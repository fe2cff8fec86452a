"""Byzantine behaviors with oracle access to the honest coefficients.

The coefficient attacks substitute one colluding value per direction for
every Byzantine client, computed after all honest coefficients for the
step are in. Label flipping instead poisons the Byzantine clients' local
data once; those clients then follow the protocol honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .robust import trim_count
from .seedstream import RngStream, SeedTuple, StreamKind, derive_seed


class AttackKind(str, Enum):
    NONE = "none"
    FULL_KNOWLEDGE = "full_knowledge"
    ALWAYS_SMALL = "always_small"
    ALWAYS_LARGE = "always_large"
    RANDOM_CHOICE = "random_choice"
    LABEL_FLIPPING = "label_flip"

    @property
    def substitutes_coefficients(self) -> bool:
        return self in (
            AttackKind.FULL_KNOWLEDGE,
            AttackKind.ALWAYS_SMALL,
            AttackKind.ALWAYS_LARGE,
            AttackKind.RANDOM_CHOICE,
        )


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    byzantine_ids: frozenset[int]

    @staticmethod
    def build(kind: AttackKind, m: int, alpha: float) -> "AttackSpec":
        """Byzantine set = the last floor(alpha * m) client indices."""
        if not 0.0 <= alpha < 0.5:
            raise ValueError(f"byzantine fraction must satisfy 0 <= alpha < 1/2, got {alpha}")
        count = int(np.floor(alpha * m))
        return AttackSpec(kind, frozenset(range(m - count, m)))


def _order_stat_index(beta: float, m: int) -> int:
    # the "floor(beta m)-th smallest/largest"; degenerate floor(beta m) = 0
    # falls back to the extreme order statistic so tiny setups stay defined
    return max(trim_count(beta, m), 1)


def _checked(honest_values) -> np.ndarray:
    v = np.asarray(honest_values, dtype=np.float64)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("attack oracle needs a nonempty honest coefficient set")
    return v


def _jth_smallest(sorted_vals: np.ndarray, j: int) -> float:
    return float(sorted_vals[j - 1])


def _jth_largest(sorted_vals: np.ndarray, j: int) -> float:
    return float(sorted_vals[len(sorted_vals) - j])


def full_knowledge(honest_values, beta: float, m: int) -> float:
    """Push the aggregate against the sign of the honest mean.

    The reference mean divides the honest sum by m (not by the honest
    count); only its sign is consumed, so the denominator is harmless.
    """
    v = _checked(honest_values)
    j = _order_stat_index(beta, m)
    s = np.sort(v)
    g_true = float(np.cumsum(v)[-1]) / m
    return _jth_smallest(s, j) if g_true >= 0.0 else _jth_largest(s, j)


def always_small(honest_values, beta: float, m: int) -> float:
    v = _checked(honest_values)
    return _jth_smallest(np.sort(v), _order_stat_index(beta, m))


def always_large(honest_values, beta: float, m: int) -> float:
    v = _checked(honest_values)
    return _jth_largest(np.sort(v), _order_stat_index(beta, m))


def random_choice(honest_values, beta: float, m: int, seed: int) -> float:
    """Seeded fair pick between the always-small and always-large values."""
    v = _checked(honest_values)
    j = _order_stat_index(beta, m)
    s = np.sort(v)
    u = float(RngStream(seed).uniforms(1)[0])
    return _jth_smallest(s, j) if u < 0.5 else _jth_largest(s, j)


def adversary_seed(root: int, step: int, sample: int, epoch: int = 0) -> int:
    """Dedicated randomness stream, independent of direction streams."""
    return derive_seed(SeedTuple(root, step, sample, epoch, StreamKind.ADVERSARY))


def byzantine_value(
    kind: AttackKind,
    honest_values,
    beta: float,
    m: int,
    rc_seed: int | None = None,
) -> float:
    """The single colluding value all Byzantine clients submit for one direction."""
    if kind == AttackKind.FULL_KNOWLEDGE:
        return full_knowledge(honest_values, beta, m)
    if kind == AttackKind.ALWAYS_SMALL:
        return always_small(honest_values, beta, m)
    if kind == AttackKind.ALWAYS_LARGE:
        return always_large(honest_values, beta, m)
    if kind == AttackKind.RANDOM_CHOICE:
        if rc_seed is None:
            raise ValueError("random_choice needs its adversary seed")
        return random_choice(honest_values, beta, m, rc_seed)
    raise ValueError(f"{kind} does not substitute coefficients")


def flip_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Label ell -> (C - 1) - ell; an involution that reverses the histogram."""
    labels = np.asarray(labels)
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return (num_classes - 1) - labels

