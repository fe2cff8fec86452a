"""Dense parameter vectors and the Euclidean ball projection.

A parameter vector is a plain 1-D float64 numpy array.
"""

from __future__ import annotations

import numpy as np

ParamVector = np.ndarray


def project_ball(w: ParamVector, radius: float) -> ParamVector:
    """Euclidean projection onto the L2 ball of the given radius.

    Returns ``w`` itself when it is already inside the ball, so projection
    is exactly idempotent. Training runs leave the parameter space
    unconstrained by default; this exists for theory-mode configurations.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.all(np.isfinite(w)):
        raise ValueError("project_ball: non-finite input vector")
    norm, peak = float(np.linalg.norm(w)), 1.0
    if norm == np.inf:  # w is finite, so only its squared norm overflowed
        peak = float(np.max(np.abs(w)))
        norm = float(np.linalg.norm(w / peak))  # ||w|| / peak
    if norm * peak <= radius:
        return w
    out = (w if peak == 1.0 else w / peak) * (radius / norm)
    # rescaling can round the norm a hair above the radius; nudge until the
    # inside test holds so projection is exactly idempotent
    for _ in range(4):
        n = float(np.linalg.norm(out))
        if n <= radius:
            return out
        out = out * (radius / n)
    return out * (1.0 - 4.0 * np.finfo(float).eps)

