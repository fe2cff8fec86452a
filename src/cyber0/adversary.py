"""Byzantine behaviors with oracle access to the honest coefficients.

The coefficient attacks substitute one colluding value per direction for
every Byzantine client: one oracle call per round over the round's whole
honest coefficient block, made once all of it is in. Label flipping
instead poisons the Byzantine clients' local data once; those clients
then follow the protocol honestly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .robust import ordered_column_sums, trim_count
from .seedstream import first_uniforms


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


def byzantine_value(
    kind: AttackKind,
    honest: np.ndarray,
    beta: float,
    m: int,
    rc_seeds: np.ndarray | None = None,
) -> np.ndarray:
    """The (n,) colluding row every Byzantine client submits, from the (h, n)
    block of honest coefficients: one column per direction.

    Each column gets its j-th smallest or j-th largest honest value, with
    j = floor(beta m), or 1 when beta m < 1 so tiny setups stay defined;
    a block of fewer than j honest rows is a ValueError.
    full_knowledge pushes against the sign of the honest sum divided by m
    (only the sign is used, so the denominator is harmless); random_choice
    takes the small value when the first uniform of the column's adversary
    stream in ``rc_seeds``, one seed per column, is below 1/2.
    """
    honest = np.asarray(honest, dtype=np.float64)
    if honest.ndim != 2 or len(honest) == 0:
        raise ValueError("attack oracle needs a nonempty (h, n) honest coefficient block")
    j = max(trim_count(beta, m), 1)
    if j > len(honest):
        raise ValueError(f"order statistic j = {j} needs j honest rows, got h = {len(honest)}")
    s = np.sort(honest, axis=0)
    small, large = s[j - 1], s[len(s) - j]
    if kind == AttackKind.FULL_KNOWLEDGE:
        return np.where(ordered_column_sums(honest, m) >= 0.0, small, large)
    if kind == AttackKind.ALWAYS_SMALL:
        return small
    if kind == AttackKind.ALWAYS_LARGE:
        return large
    if kind == AttackKind.RANDOM_CHOICE:
        seeds = 0 if rc_seeds is None else len(rc_seeds)
        if seeds != honest.shape[1]:
            raise ValueError(f"random_choice needs one adversary seed per column: "
                             f"got {seeds} seeds for {honest.shape[1]} columns")
        return np.where(first_uniforms(rc_seeds) < 0.5, small, large)
    raise ValueError(f"{kind} does not substitute coefficients")


def flip_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Label ell -> (C - 1) - ell; an involution that reverses the histogram."""
    labels = np.asarray(labels)
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return (num_classes - 1) - labels

