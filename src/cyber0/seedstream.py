"""Deterministic seed derivation and random-direction generation.

Federator and clients never exchange perturbation vectors: both sides
regenerate identical directions from seeds, each named by five integers.
Everything in this module is therefore frozen and documented so that a
third party can reproduce every stream bit for bit:

* ``derive_seed(root, step, sample, epoch, kind)`` absorbs the five words
  (the last a kind tag) sequentially through the SplitMix64 finalizer::

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
  ``ln`` is ``np.log``, whose AVX-512 loop rounds a few values in 1,000
  one ulp apart from numpy's other loops.

* Sphere directions are d Gaussians divided by their Euclidean norm. The
  squared norm adds up, in chunk order, the sums of squares of
  consecutive 4096-wide chunks, each taken by numpy's own ``einsum`` loop,
  which does not call BLAS: a sphere direction is the same on every
  OpenBLAS kernel. The chunking fixes the order in which the chunk sums
  add up, and keeps a row's sum independent of the block it sits in (an
  unchunked einsum differs between a block and a lone row at d = 10,000).

* ``sphere_rows(stream, n, d)`` draws n sphere rows from one stream: the
  next n * d Gaussians, row after row, each row divided by its norm. The
  rows that are all zero (probability zero) are redrawn, in row order,
  from the Gaussians after the block, d each, until none is zero. A
  sphere direction of seed s is ``sphere_rows(RngStream(s), 1, d)[0]``;
  ``cyber0 verify``'s Monte-Carlo estimates draw their rows by the same
  rule, so they are part of this identity too.

``RngStream`` is the reference implementation of these rules. The engine
generates directions a window of rounds at a time: one ``derive_seeds``
call over the window's (step, epoch, sample) grid, and one
``make_direction`` call that fills the window's rows, drawing the first
polar batch of many rows in one vectorised pass. A window holds as many
rounds as fit ``WINDOW_VALUES`` doubles, at least one. A row whose first
batch holds too few accepted pairs (binomial odds 1 in 749 at d = 7850,
1 in 3,245 at d = 16) is redrawn whole by its own ``RngStream``: the same
row. Every sphere norm, of one direction or of a block's rows, comes from
``rows_sumsq``. Windowed and block generation are bit-identical to the
per-seed streams and are not part of the frozen identity: how rows are
grouped into windows and chunks (``WINDOW_VALUES``, ``BLOCK_WORDS``)
changes speed and memory only.

A long ``RngStream.gaussians`` request, such as a synthetic feature
matrix, is drawn in position chunks that do not depend on each other:
chunk c of a request that starts at word o of stream s is the first
2 * GAUSSIAN_BATCH_PAIRS words of the stream seeded s + (o + 2 *
GAUSSIAN_BATCH_PAIRS * c) * GOLDEN, and a pair is accepted or rejected from
its own two words only. Two worker threads, which make no BLAS call,
compute the chunks once OpenBLAS's idle workers, which busy-wait after a
threaded product, are stopped (the next product restarts them at the same
thread count; no other thread may be in a BLAS call then). The caller
places the accepted pairs in chunk order and joins the threads before it
returns, so neither the thread schedule nor the chunk size changes a bit
of the stream. Every other draw stays on the calling thread.
"""

from __future__ import annotations

import ctypes
import math
import mmap
from collections import deque
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

# chunk width of the sphere normalizer's per-chunk einsum sums; part of the
# frozen identity because it fixes the order in which they add up, and
# within it a row's sum does not depend on the block the row sits in
CHUNK = 4096

# raw words per chunk of rows in block direction generation (at least one
# row per chunk); sets speed and memory, never the output. The theory
# round's rows at d = 16 (36 words each) go 455 to a chunk; at d = 7850
# (10,108 words) every row is its own chunk, as larger chunks measured no
# faster there and hold more memory.
BLOCK_WORDS = 16384

# uniform pairs one ``RngStream.gaussians`` batch draws at most: 64 Ki words
# (512 KB), so a long request such as a synthetic feature matrix runs in
# cache-sized chunks. A request whose ``_polar_batch`` exceeds THREAD_BATCHES
# (at least 2) full batches has them computed on _WORKERS threads, the
# position chunks of the module docstring. Both set speed and memory, never
# the stream: 16 Ki pairs measured slower and 64 Ki no faster on two cores
GAUSSIAN_BATCH_PAIRS = 1 << 15
THREAD_BATCHES = 4
_WORKERS = 2

# direction values (doubles) the engine generates at once: it fills the
# directions of as many rounds as fit, and at least one round (256 theory
# rounds at d = 16, k = 16; one MNIST-sized round at d = 7850, k = 64)
WINDOW_VALUES = 1 << 16


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


def _fmix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(root: int, step: int, sample: int, epoch: int, kind: StreamKind) -> int:
    """Seed of the stream (root s, step t, sample r, epoch e, kind): pure
    5-word absorption, bit-exact across platforms and processes."""
    if min(step, sample, epoch) < 0:
        raise ValueError("step, sample and epoch must be non-negative")
    h = 0
    for word in (root, step, sample, epoch, int(kind)):
        h = _fmix64(h ^ (word & _MASK64))
    return h


def derive_seeds(
    root: int, step: int | np.ndarray, sample: int | np.ndarray, epoch: int | np.ndarray,
    kind: StreamKind,
) -> np.ndarray:
    """``derive_seed`` broadcast over integers or integer arrays of step,
    sample and epoch, as a uint64 array of the broadcast shape.

    The root is absorbed once with Python integers; every other word runs
    as one numpy fmix64 over the whole broadcast shape.
    """
    words = [np.asarray(x) for x in (step, sample, epoch)]
    for x in words:
        if x.dtype.kind not in "iu" or (x.size and x.min() < 0):
            raise ValueError("step, sample and epoch must be non-negative integers")
    z = np.full(np.broadcast_shapes(*(x.shape for x in words)), _fmix64(root & _MASK64),
                dtype=np.uint64)
    tmp = np.empty_like(z)
    for x in words:
        z ^= x.astype(np.uint64)
        _fmix64_inplace(z, tmp)
    z ^= np.uint64(int(kind))
    return _fmix64_inplace(z, tmp)


def _fmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """fmix64 of every word of ``z``, in place; ``tmp``, an array of z's
    shape and dtype, takes the shifted words."""
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _NP_MIX1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _NP_MIX2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def _words_at(seed: int, pos: int, n: int) -> np.ndarray:
    """Raw words at stream positions pos..pos+n-1 (vectorized, in-place ops)."""
    z = np.arange(pos + 1, pos + n + 1, dtype=np.uint64)
    z *= _NP_GOLDEN
    z += np.uint64(seed)
    return _fmix64_inplace(z, np.empty_like(z))


def first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``RngStream(s).uniforms(1)[0]`` for every seed of a uint64 array."""
    z = np.asarray(seeds, dtype=np.uint64) + _NP_GOLDEN
    z = _fmix64_inplace(z, np.empty_like(z)) >> _S11
    return z.astype(np.float64) * _U53


def _polar_batch(want_pairs: int) -> int:
    """Uniform pairs to draw when ``want_pairs`` accepted pairs are still
    needed: the expected need at acceptance rate pi/4, with slack. The one
    slack rule: it sizes ``make_direction``'s first batch of a row (which
    redraws a row it leaves short whole), each batch of a sequential request
    (capped at GAUSSIAN_BATCH_PAIRS), and a pooled request's plan."""
    return want_pairs * 13 // 10 + 8


def _polar_factor(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The polar method's f = sqrt(-2 ln(s) / s) of accepted pairs' s,
    written into ``out`` when given."""
    f = np.log(s, out=out)
    f *= -2.0
    f /= s
    return np.sqrt(f, out=f)


def _position_grid(pairs: int) -> np.ndarray:
    """(i + 1) * GOLDEN of the first polar batch of ``pairs`` pairs, as a
    (2, pairs) block of the first and the second word of each pair:
    grid[0, j] is word 2j's."""
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2).T
    return np.multiply(counters, _NP_GOLDEN, order="C")


def _polar(z: np.ndarray, v: np.ndarray, interleaved: bool = False) -> tuple[np.ndarray, ...]:
    """The polar method on a C-contiguous uint64 block ``z`` of raw words:
    each pair's first and second word are consecutive when ``interleaved``,
    and otherwise z[0] and z[1] hold them and z's memory then takes the
    pairs' s. ``v``, a float64 block of z's shape, takes v = 2u - 1.
    Returns v1, v2 and s flattened, and the flat indices of the accepted
    pairs."""
    z >>= _S11
    # the words are below 2**53, so the int64 conversion is exact, and the
    # scale is a power of two: v = 2u - 1 exactly
    np.multiply(z.view(np.int64), 2.0 * _U53, out=v)
    v -= 1.0
    if interleaved:  # a stream's own short batch: fresh arrays cost less than views
        v1, v2 = v[0::2], v[1::2]
        s = v1 * v1
        s += v2 * v2
    else:
        v1, v2 = v[0].reshape(-1), v[1].reshape(-1)
        s = z.view(np.float64)
        s, s2 = s[0].reshape(-1), s[1].reshape(-1)
        np.multiply(v1, v1, out=s)
        s += np.multiply(v2, v2, out=s2)
    return v1, v2, s, np.flatnonzero((s > 0.0) & (s < 1.0))


def _pooled_batch(seed: int, grid: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, ...]:
    """The accepted pairs' indices, and their first and their second
    Gaussians, v1 f and v2 f, of the first ``grid.shape[1]`` pairs of the
    stream seeded ``seed``, computed in ``scratch``, a (2, 2, pairs) uint64
    block: a worker thread allocates no more than the indices, so little of
    what it frees stays in its own allocator arena (allocating each result
    there raised a short ``mnist_logreg`` run's peak memory by 3.7 MB)."""
    z, v = scratch[0], scratch[1].view(np.float64)
    np.add(grid, np.uint64(seed), out=z)
    _fmix64_inplace(z, v.view(np.uint64))
    v1, v2, s, acc = _polar(z, v)
    # each result overwrites values already used: s[acc], then v1[acc], go
    # over s's scratch in z[1], f over s in z[0], and v2[acc] over v1
    m = len(acc)
    free_s, free_f = z[1].view(np.float64)[:m], z[0].view(np.float64)[:m]
    s_acc = np.take(s, acc, out=free_s, mode="clip")
    f = _polar_factor(s_acc, out=free_f)
    first = np.take(v1, acc, out=free_s, mode="clip")
    second = np.take(v2, acc, out=v[0][:m], mode="clip")
    first *= f
    second *= f
    return acc, first, second


def _openblas(name: str, restype=None) -> str:
    """What the function ``name`` of numpy's bundled OpenBLAS returns, as
    text, or ``unknown`` where numpy does not expose that function."""
    try:
        from numpy._core import _multiarray_umath  # linked against the library
        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        return "unknown"
    function.argtypes, function.restype = [], restype
    value = function()
    return value.decode() if isinstance(value, bytes) else str(value)


def _park_blas() -> None:
    """Stop OpenBLAS's idle workers, as OpenBLAS does before a fork (see
    the module docstring); nothing happens where numpy hides the function."""
    _openblas("blas_thread_shutdown_")


class RngStream:
    """Sequential view over one counter-based stream.

    Values depend only on (seed, position); interleaving words/uniforms/
    gaussians calls is well defined because every call advances the word
    position exactly as the scalar reference algorithm would.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._pos = 0  # word position of the next draw
        self._pending: float | None = None  # second half of an odd polar pair

    def words(self, n: int) -> np.ndarray:
        if n < 0:  # np.arange would return no words and the position move back
            raise ValueError(f"cannot draw {n} words")
        w = _words_at(self._seed, self._pos, n)
        self._pos += n
        return w

    def uniforms(self, n: int) -> np.ndarray:
        u = (self.words(n) >> _S11).astype(np.float64)
        u *= _U53
        return u

    def gaussians(self, n: int, out: np.ndarray | None = None, placed=None) -> np.ndarray:
        """The next n Gaussians, written into ``out`` (n values) when given.
        After each batch of values is in place, ``placed(count)`` is called,
        when given, with the count of leading values of ``out`` that are
        final."""
        if out is None:
            out = np.empty(n, dtype=np.float64)
        elif out.shape != (n,):
            raise ValueError(f"out must have shape {(n,)}, got {out.shape}")
        filled = 0
        if self._pending is not None and n > 0:
            out[0] = self._pending
            self._pending = None
            filled = 1
        want = (n - filled + 1) // 2
        if not want:
            return out
        if _polar_batch(want) <= THREAD_BATCHES * GAUSSIAN_BATCH_PAIRS:
            self._place(out, filled, want, self._batches(want), placed)
            return out
        # imported here: the module costs 0.7 MB at import, which short draws never need
        from concurrent.futures import ThreadPoolExecutor

        _park_blas()
        pool = ThreadPoolExecutor(_WORKERS)
        try:
            self._place(out, filled, want, self._pooled_batches(want, pool), placed)
        finally:
            pool.shutdown(cancel_futures=True)
        return out

    def _place(self, out: np.ndarray, filled: int, want: int, batches, placed) -> None:
        """Place ``want`` accepted pairs of ``batches``, the consecutive
        polar batches from the stream position on, into out[filled:]; the
        last value of an odd request is kept pending."""
        pos = self._pos
        for pairs, acc, first, second in batches:
            k = len(acc)
            if k >= want:
                # a completed request consumes exactly up to the pair that
                # completes it, so chunked and one-shot consumption stay
                # bit-identical; a short batch is consumed whole
                k = want
                self._pos = pos + 2 * (int(acc[k - 1]) + 1)
            pos += 2 * pairs
            want -= k
            take = min(2 * k, len(out) - filled)  # 2k values, or 2k - 1 at the end of an odd request
            out[filled : filled + take : 2] = first[:k]
            out[filled + 1 : filled + take : 2] = second[: take // 2]
            if take < 2 * k:
                self._pending = float(second[k - 1])
            filled += take
            if placed is not None:
                placed(filled)
            if not want:
                return

    def _batches(self, want: int):
        """The polar batches from the stream position on, drawn on the
        calling thread, each the expected need of the ``want`` pairs still
        wanted, with slack, and at most GAUSSIAN_BATCH_PAIRS pairs: yields
        each batch's pairs, its accepted pairs' indices and their first and
        second Gaussians."""
        pos = self._pos
        while True:
            pairs = min(_polar_batch(want), GAUSSIAN_BATCH_PAIRS)
            z = _words_at(self._seed, pos, 2 * pairs)
            v1, v2, s, acc = _polar(z, np.empty(len(z)), interleaved=True)
            f = _polar_factor(s[acc])
            first, second = v1[acc], v2[acc]
            first *= f
            second *= f
            yield pairs, acc, first, second
            want -= len(acc)
            pos += 2 * pairs

    def _pooled_batches(self, want: int, pool):
        """``_batches`` for a request whose ``_polar_batch`` spans many
        batches, each then GAUSSIAN_BATCH_PAIRS pairs, computed on
        ``pool``'s workers: the batches that ``_polar_batch`` plans run
        ahead, one more than there are workers at a time, each in its own
        scratch block, and more one at a time should they fall short. The
        plan sets which batches are computed, never the stream's bits."""
        pairs = GAUSSIAN_BATCH_PAIRS
        grid = _position_grid(pairs)
        # a mapping of its own, whose pages go back when it is freed: from the
        # heap, the freed block stayed resident and raised byz_m40's peak by 4 MB
        shape = (_WORKERS + 1, 2, 2, pairs)
        scratch = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.uint64).reshape(shape)
        start, submitted = self._pos, 0
        planned = math.ceil(_polar_batch(want) / pairs)
        ahead: deque = deque()  # futures of the batches computed ahead, in stream order
        while True:
            # a block is handed out again only after the batch it held is placed
            while len(ahead) < len(scratch) and (submitted < planned or not ahead):
                seed = self._seed_at(start + 2 * pairs * submitted)
                ahead.append(pool.submit(_pooled_batch, seed, grid,
                                         scratch[submitted % len(scratch)]))
                submitted += 1
            yield (pairs, *ahead.popleft().result())

    def _seed_at(self, pos: int) -> int:
        """The seed of the stream whose word 0 is this stream's word ``pos``."""
        return (self._seed + pos * _GOLDEN) & _MASK64

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n raw words."""
        return np.argsort(self.words(n), kind="stable")


def rows_sumsq(block: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of every row of an (n, d) block, the one
    sum of squares behind every sphere norm: each CHUNK-wide column slice
    is summed by ``np.einsum``, numpy's own loop and not BLAS, so the bits
    do not depend on the OpenBLAS kernel, and the slices add up in chunk
    order. A row's sum is the same in any block, alone, C-contiguous or
    a slice of a wider one."""
    head = block[:, :CHUNK]
    total = np.einsum("nd,nd->n", head, head)
    for a in range(CHUNK, block.shape[1], CHUNK):
        b = block[:, a : a + CHUNK]
        total += np.einsum("nd,nd->n", b, b)
    return total


def sphere_rows(stream: RngStream, n: int, d: int) -> np.ndarray:
    """The next n sphere rows of ``stream``, an (n, d) block: n * d
    Gaussians, each row divided by the square root of its ``rows_sumsq``.
    An all-zero row (probability zero) is redrawn, in row order, from the
    Gaussians after the block, until no row is zero (the module docstring)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    g = stream.gaussians(n * d).reshape(n, d)
    norms = np.sqrt(rows_sumsq(g))
    while np.count_nonzero(norms) < n:  # measure-zero guard
        zero = np.flatnonzero(norms == 0.0)
        g[zero] = stream.gaussians(len(zero) * d).reshape(len(zero), d)
        norms[zero] = np.sqrt(rows_sumsq(g[zero]))
    g /= norms[:, None]
    return g


def sphere_direction(seed: int, d: int) -> np.ndarray:
    """The sphere direction of ``seed``: ``sphere_rows``' one row of its stream."""
    return sphere_rows(RngStream(seed), 1, d)[0]


def make_direction(
    seeds: np.ndarray, d: int, mode: DirectionMode, out: np.ndarray | None = None
) -> np.ndarray:
    """The (k, d) block of directions of a uint64 array of k seeds, written
    into ``out`` when given.

    Every row is bit-identical to ``RngStream(seed).gaussians(d)`` or
    ``sphere_direction(seed, d)``. Rows are generated about BLOCK_WORDS
    raw words at a time: each chunk draws every row's first polar batch in
    one pass, a row whose batch holds too few accepted pairs is redrawn
    whole by its own ``RngStream``, and sphere rows take their norms from
    ``rows_sumsq``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    seeds = np.asarray(seeds, dtype=np.uint64)
    k = len(seeds)
    if out is None:
        out = np.empty((k, d))
    elif out.shape != (k, d):
        raise ValueError(f"out must have shape {(k, d)}, got {out.shape}")
    want = (d + 1) // 2
    pairs = _polar_batch(want)
    positions = _position_grid(pairs)[:, None, :]
    rows = max(1, min(k, BLOCK_WORDS // (2 * pairs)))  # range() takes no zero step
    scratch = np.empty((2, 2, rows, pairs), dtype=np.uint64)
    for a in range(0, k, rows):
        block = out[a : a + rows]
        _gaussian_rows(seeds[a : a + rows], positions, want, block, scratch[:, :, : len(block)])
        if mode == DirectionMode.SPHERE:
            norms = np.sqrt(rows_sumsq(block))
            for r in np.flatnonzero(norms == 0.0):  # measure-zero guard, as in sphere_direction
                block[r] = sphere_direction(int(seeds[a + r]), d)
                norms[r] = 1.0
            block /= norms[:, None]
    return out


def _gaussian_rows(seeds: np.ndarray, positions: np.ndarray, want: int, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """Fill out[r] with the first d Gaussians of stream seeds[r].

    ``positions`` is the (2, 1, pairs) grid of (i + 1) * GOLDEN of one
    polar batch, and ``scratch`` two uint64 blocks of shape (2, n, pairs):
    the words are mixed in the first, their v = 2u - 1 go to the second,
    and the pairs' s back to the first. The accepted pairs of the whole
    chunk come from one flatnonzero, and a searchsorted at the row starts
    splits them by row. A row with at least ``want`` accepted pairs takes
    the first ``want``; a shorter row (counted: 18 of 12,800 at d = 7850,
    69 of 204,800 at d = 16) is redrawn whole as
    ``RngStream(seed).gaussians(d)``, which starts with the same pairs.
    """
    n, d = out.shape
    pairs = positions.shape[2]
    z, v = scratch[0], scratch[1].view(np.float64)
    np.add(positions, seeds[:, None], out=z)
    _fmix64_inplace(z, v.view(np.uint64))
    v1, v2, s, acc = _polar(z, v)
    if n == 1:  # every chunk at d = 7,850: its pairs are a slice of acc, no index grid
        full = np.array([len(acc) >= want])
        sel = acc[: want if full[0] else 0].reshape(-1, want)
    else:
        starts = np.searchsorted(acc, np.arange(n + 1) * pairs)
        full = np.diff(starts) >= want
        sel = acc[starts[:-1][full, None] + np.arange(want)]
    f = _polar_factor(s[sel])
    rows = slice(None) if full.all() else full
    out[rows, 0::2] = v1[sel] * f
    out[rows, 1::2] = v2[sel[:, : d // 2]] * f[:, : d // 2]
    for r in np.flatnonzero(~full):
        out[r] = RngStream(int(seeds[r])).gaussians(d)
