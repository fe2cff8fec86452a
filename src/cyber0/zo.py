"""Zero-order replay.

A client never uploads vectors: per perturbation direction z it uploads the
signed scalar ``c * (f(w + mu z; B) - f(w - mu z; B)) / (2 mu)``, where z
is regenerated from a shared seed and c is d in Sphere mode and 1 in
Gaussian mode; the mu = 0 branch projects the exact gradient, ``c * <grad
f(w; B), z>``. Aggregated coefficients are applied by replaying the same
directions.
"""

from __future__ import annotations

import math

import numpy as np

from .seedstream import StreamKind, derive_seeds


class NonFiniteLossError(RuntimeError):
    """A loss, coefficient or gradient became non-finite; never silently
    clamped. A field the failure does not locate is -1."""

    def __init__(self, message: str, step: int = -1, epoch: int = -1, direction: int = -1,
                 client: int = -1, coordinate: int = -1):
        super().__init__(message)
        self.step = step
        self.epoch = epoch
        self.direction = direction
        self.client = client
        self.coordinate = coordinate


def direction_seed(
    root: int, step: int | np.ndarray, sample: int | np.ndarray, epoch: int | np.ndarray = 0
) -> np.ndarray:
    """Seeds of directions ``sample`` at (root, step, epoch): ``derive_seeds``
    under the DIRECTION tag, the uint64 array of the broadcast shape of the
    integers or integer arrays step, sample and epoch."""
    return derive_seeds(root, step, sample, epoch, StreamKind.DIRECTION)


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite. Its sum of squares, one BLAS dot
    that sets no floating-point warning, is finite unless an entry is not or
    the sum overflows; only then does the exact isfinite test decide."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def apply_update(
    w: np.ndarray, coeffs: np.ndarray, directions: np.ndarray, eta: float, step: int
) -> None:
    """Replay the k aggregated coefficients along the (k, d) ``directions``
    into w, mutating it: w -= eta / k * sum_r coeffs[r] * directions[r].

    Directions are applied in ascending r; federator and clients run this
    identical sequence, so their states stay bit-identical.
    """
    if not all_finite(coeffs):
        raise NonFiniteLossError(f"non-finite aggregated coefficients at step {step}", step=step)
    k = len(directions)
    if len(coeffs) != k:
        raise ValueError(f"expected {k} aggregated coefficients, got {len(coeffs)}")
    # -(eta * a / k), bit for bit: rounding is symmetric under negation
    scales = np.multiply(coeffs, -eta, dtype=np.float64)
    scales /= k
    if 1 < len(w) <= 4 * k:
        # few columns per row: one reduce down the rows, which costs per
        # column, beats k row updates, which cost per row. Both add the rows
        # to w one at a time in ascending r: numpy reduces axis 0 of a
        # C-ordered (k, d >= 2) block row by row (a (k, 1) one pairwise, so
        # d = 1 takes the loop). The reduce starts from its initial value,
        # and -0.0 is the one that keeps every sum's bits
        rows = np.multiply(directions, scales[:, None], order="C")
        rows[0] += w
        np.add.reduce(rows, axis=0, out=w, initial=-0.0)
    else:
        for r in range(k):
            w += scales[r] * directions[r]
