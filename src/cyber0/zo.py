"""Zero-order gradient machinery.

A client never uploads vectors: per perturbation direction it uploads the
signed scalar ``c * (f(w + mu z; B) - f(w - mu z; B)) / (2 mu)`` where the
direction z is regenerated from a shared seed and c is d in Sphere mode and
1 in Gaussian mode. The mu = 0 branch projects the exact gradient instead.
Aggregated coefficients are applied by replaying the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamVector
from .losses import Batch, LossModel
from .seedstream import (
    DirectionMode,
    SeedTuple,
    StreamKind,
    derive_seed,
    derive_seeds,
    make_direction,
    perturb_inplace,
)


class NonFiniteLossError(RuntimeError):
    """A loss or coefficient became non-finite; never silently clamped."""

    def __init__(self, message: str, step: int = -1, direction: int = -1, client: int = -1):
        super().__init__(message)
        self.step = step
        self.direction = direction
        self.client = client


@dataclass(frozen=True)
class ZoConfig:
    """Estimator settings: perturbation step, samples per estimate, direction law."""

    mu: float
    k: int
    direction_mode: DirectionMode = DirectionMode.GAUSSIAN
    mu_zero: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mu_zero:
            if self.mu != 0.0:
                raise ValueError("mu must be 0 when mu_zero is set")
        elif self.mu <= 0.0:
            raise ValueError("mu must be positive unless mu_zero is set")

    def scale(self, d: int) -> float:
        # Sphere directions need the dimension factor; Gaussian ones do not.
        return float(d) if self.direction_mode == DirectionMode.SPHERE else 1.0


def direction_seed(
    root: int, step: int | np.ndarray, sample: int | np.ndarray, epoch: int | np.ndarray = 0
) -> int | np.ndarray:
    """Seed of direction ``sample`` at (root, step, epoch). Integer arrays of
    step, sample or epoch broadcast against each other and give the uint64
    array of their seeds."""
    if np.ndim(step) == np.ndim(sample) == np.ndim(epoch) == 0:
        return derive_seed(SeedTuple(root, step, sample, epoch, StreamKind.DIRECTION))
    return derive_seeds(root, step, sample, epoch, StreamKind.DIRECTION)


def zo_coefficient(
    model: LossModel,
    w: ParamVector,
    batch: Batch,
    cfg: ZoConfig,
    seed: int,
    direction: np.ndarray | None = None,
) -> float:
    """Finite-difference coefficient along the seeded direction.

    Evaluates f at w + mu z and then at (w + mu z) - 2 mu z, exactly the
    in-place perturbation schedule of the round protocol. The bracket runs
    on a scratch copy: an in-place add/subtract cycle can leave individual
    float64 coordinates one ulp off (fl(w + a) is not injective in w), and
    the caller's w must be bit-identical on return.
    """
    if cfg.mu_zero:
        raise ValueError("zo_coefficient requires mu > 0; use zo_coefficient_mu0")
    mu = cfg.mu
    scratch = w.copy()
    perturb_inplace(scratch, mu, seed, cfg.direction_mode, direction)
    loss_plus = model.eval(scratch, batch)
    perturb_inplace(scratch, -2.0 * mu, seed, cfg.direction_mode, direction)
    loss_minus = model.eval(scratch, batch)
    coeff = cfg.scale(len(w)) * (loss_plus - loss_minus) / (2.0 * mu)
    if not np.isfinite(coeff):
        raise NonFiniteLossError(
            f"non-finite zero-order coefficient ({coeff}) from losses "
            f"{loss_plus}, {loss_minus} at mu={mu}"
        )
    return float(coeff)


def zo_coefficient_mu0(
    model: LossModel,
    w: ParamVector,
    batch: Batch,
    cfg: ZoConfig,
    seed: int,
    gradient: np.ndarray | None = None,
    direction: np.ndarray | None = None,
) -> float:
    """Gradient-projection coefficient: c * <grad f(w; B), z(seed)>.

    One gradient evaluation can serve all k directions within a step; pass
    it via ``gradient`` to avoid recomputation.
    """
    g = model.grad(w, batch) if gradient is None else gradient
    z = make_direction(seed, len(w), cfg.direction_mode) if direction is None else direction
    coeff = cfg.scale(len(w)) * float(np.dot(g, z))
    if not np.isfinite(coeff):
        raise NonFiniteLossError(f"non-finite mu=0 coefficient ({coeff})")
    return coeff


def apply_update(
    w: ParamVector,
    agg_coeffs: np.ndarray,
    step: int,
    epoch: int,
    eta: float,
    cfg: ZoConfig,
    root_seed: int,
    directions: np.ndarray | None = None,
) -> None:
    """Replay the k aggregated coefficients into w, mutating it.

    Directions are applied in ascending r; federator and clients run this
    identical sequence, so their states stay bit-identical. ``directions``
    may carry the step's cached (k, d) block; without it the block is
    regenerated from the seeds (root, step, r, epoch), r = 0..k-1.
    """
    if not np.isfinite(agg_coeffs).all():
        raise NonFiniteLossError(f"non-finite aggregated coefficients at step {step}", step=step)
    k = cfg.k
    if len(agg_coeffs) != k:
        raise ValueError(f"expected {k} aggregated coefficients, got {len(agg_coeffs)}")
    if directions is None:
        directions = make_direction(direction_seed(root_seed, step, np.arange(k), epoch), len(w),
                                    cfg.direction_mode)
    # -(eta * a / k), bit for bit: rounding is symmetric under negation
    scales = np.multiply(agg_coeffs, -eta, dtype=np.float64)
    scales /= k
    if len(w) <= 4 * k:
        # few columns per row: one cumsum down the rows, which costs per
        # column, beats k row updates, which cost per row. Both add the
        # rows to w one at a time in ascending r.
        rows = directions * scales[:, None]
        rows[0] += w
        w[:] = rows.cumsum(axis=0, out=rows)[-1]
    else:
        for r in range(k):
            w += scales[r] * directions[r]
