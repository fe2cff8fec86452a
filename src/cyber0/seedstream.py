"""Deterministic seed derivation and random-direction generation.

Federator and clients never exchange perturbation vectors: both sides
regenerate identical directions from small seed tuples. Everything in this
module is therefore frozen and documented so that a third party can
reproduce every stream bit for bit:

* ``derive_seed`` absorbs the five words (root, step, sample, epoch, kind
  tag) sequentially through the SplitMix64 finalizer::

      h = 0
      for word in (root, step, sample, epoch, kind):
          h = fmix64(h ^ word)

  where ``fmix64`` is the xor-shift/multiply finalizer with constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shifts 30, 27, 31).

* A stream seeded with ``s`` is the SplitMix64 counter sequence

      word[i] = fmix64((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)

  so any position is random access; generating a block never depends on
  wall clock, thread schedule, or chunking.

* Uniforms take the top 53 bits: ``u[i] = (word[i] >> 11) * 2**-53``.

* Gaussians use the Marsaglia polar method, consuming uniform pairs
  ``(u[2j], u[2j+1])`` in order. With ``v = 2u - 1`` and
  ``s = v1**2 + v2**2``, a pair is accepted when ``0 < s < 1`` and emits
  ``v1 * f`` then ``v2 * f`` for ``f = sqrt(-2 ln(s) / s)``. Rejected pairs
  are part of the stream; the i-th Gaussian depends only on (seed, i).

* Sphere directions are d Gaussians divided by their Euclidean norm, where
  the squared norm is accumulated as a plain Python float over ``np.dot``
  of consecutive 4096-wide chunks, in chunk order. The chunking fixes the
  summation order and so the last bits of every sphere direction. An
  all-zero draw (probability zero) consumes the next d Gaussians from the
  same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy scalar copies of the constants for the vectorized hot path
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_S30, _S27, _S31, _S11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
_U53 = 2.0 ** -53

# chunk width of the sphere normalizer's per-chunk dot products; part of the
# frozen identity because it fixes their summation order
CHUNK = 4096


class StreamKind(IntEnum):
    """Domain tag absorbed into every derived seed.

    Separate tags guarantee that batch shuffling can never alias
    perturbation directions, and give the adversary its own randomness.
    """

    DIRECTION = 1
    DATA_SHUFFLE = 2
    INIT = 3
    ADVERSARY = 4


class DirectionMode(IntEnum):
    GAUSSIAN = 0
    SPHERE = 1


@dataclass(frozen=True)
class SeedTuple:
    """Identifies one random stream: (root s, step t, sample r, epoch e, kind)."""

    root: int
    step: int
    sample: int
    epoch: int
    kind: StreamKind

    def __post_init__(self) -> None:
        for name in ("step", "sample", "epoch"):
            if getattr(self, name) < 0:
                raise ValueError(f"SeedTuple.{name} must be non-negative")


def _fmix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(t: SeedTuple) -> int:
    """Pure 5-word absorption; bit-exact across platforms and processes."""
    h = 0
    for word in (t.root, t.step, t.sample, t.epoch, int(t.kind)):
        h = _fmix64(h ^ (word & _MASK64))
    return h


def _words_at(seed: int, pos: int, n: int) -> np.ndarray:
    """Raw words at stream positions pos..pos+n-1 (vectorized, in-place ops)."""
    z = np.arange(pos + 1, pos + n + 1, dtype=np.uint64)
    z *= _NP_GOLDEN
    z += np.uint64(seed)
    z ^= z >> _S30
    z *= _NP_MIX1
    z ^= z >> _S27
    z *= _NP_MIX2
    z ^= z >> _S31
    return z


class RngStream:
    """Sequential view over one counter-based stream.

    Values depend only on (seed, position); interleaving words/uniforms/
    gaussians calls is well defined because every call advances the word
    position exactly as the scalar reference algorithm would.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._pos = 0
        self._pending: float | None = None  # second half of an odd polar pair

    def words(self, n: int) -> np.ndarray:
        w = _words_at(self._seed, self._pos, n)
        self._pos += n
        return w

    def uniforms(self, n: int) -> np.ndarray:
        u = (self.words(n) >> _S11).astype(np.float64)
        u *= _U53
        return u

    def gaussians(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._pending is not None and n > 0:
            out[0] = self._pending
            self._pending = None
            filled = 1
        while filled < n:
            need = n - filled
            want_pairs = (need + 1) // 2
            batch = min(max(want_pairs * 9 // 7 + 8, 64), 1 << 16)
            w = _words_at(self._seed, self._pos, 2 * batch)
            u = (w >> _S11).astype(np.float64)
            u *= _U53
            v1 = u[0::2].copy()
            v2 = u[1::2].copy()
            v1 *= 2.0
            v1 -= 1.0
            v2 *= 2.0
            v2 -= 1.0
            s = v1 * v1
            s += v2 * v2
            acc = np.flatnonzero((s > 0.0) & (s < 1.0))
            if len(acc) >= want_pairs:
                # consume exactly up to the pair that completes the request,
                # so chunked and one-shot consumption stay bit-identical
                sel = acc[:want_pairs]
                self._pos += 2 * (int(sel[-1]) + 1)
                f = np.log(s[sel])
                f *= -2.0
                f /= s[sel]
                np.sqrt(f, out=f)
                g = np.empty(2 * want_pairs, dtype=np.float64)
                g[0::2] = v1[sel] * f
                g[1::2] = v2[sel] * f
                out[filled : filled + need] = g[:need]
                if need % 2 == 1:
                    self._pending = float(g[-1])
                filled = n
            else:
                self._pos += 2 * batch
                if len(acc):
                    f = np.log(s[acc])
                    f *= -2.0
                    f /= s[acc]
                    np.sqrt(f, out=f)
                    g = np.empty(2 * len(acc), dtype=np.float64)
                    g[0::2] = v1[acc] * f
                    g[1::2] = v2[acc] * f
                    out[filled : filled + len(g)] = g
                    filled += len(g)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n raw words."""
        return np.argsort(self.words(n), kind="stable")


def gaussian_direction(seed: int, d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return RngStream(seed).gaussians(d)


def _chunked_sumsq(vec: np.ndarray) -> float:
    total = 0.0
    for a in range(0, len(vec), CHUNK):
        b = vec[a : a + CHUNK]
        total += float(np.dot(b, b))
    return total


def sphere_direction(seed: int, d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    stream = RngStream(seed)
    g = stream.gaussians(d)
    sumsq = _chunked_sumsq(g)
    while sumsq == 0.0:  # measure-zero guard
        g = stream.gaussians(d)
        sumsq = _chunked_sumsq(g)
    g /= np.sqrt(sumsq)
    return g


def make_direction(seed: int, d: int, mode: DirectionMode) -> np.ndarray:
    if mode == DirectionMode.SPHERE:
        return sphere_direction(seed, d)
    return gaussian_direction(seed, d)


def perturb_inplace(
    w: np.ndarray,
    scale: float,
    seed: int,
    mode: DirectionMode = DirectionMode.GAUSSIAN,
    direction: np.ndarray | None = None,
) -> None:
    """w <- w + scale * z(seed), mutating w.

    ``direction`` may carry the cached z for this seed; callers are
    responsible for the cache actually matching (seed, mode). Without it,
    z is regenerated by ``make_direction``.
    """
    z = make_direction(seed, len(w), mode) if direction is None else direction
    w += scale * z
