"""The per-direction and per-coordinate aggregators: the trimmed mean down
each column of an (m, n) matrix, one row per client.

The trimmed mean sorts ascending, drops floor(beta * m) values from each
end, and averages the survivors in ascending order. The fixed summation
order makes every aggregate bit-reproducible regardless of client
scheduling; ties are resolved by value only, so permuting clients can
never change the result.
"""

from __future__ import annotations

import math

import numpy as np


class AggregationError(ValueError):
    pass


def trim_count(beta: float, m: int) -> int:
    if not 0.0 <= beta < 0.5:
        raise AggregationError(f"trim fraction must satisfy 0 <= beta < 1/2, got {beta}")
    return int(math.floor(beta * m))


def ordered_column_sums(block: np.ndarray, divisor: int) -> np.ndarray:
    """The sum down each column of an (n, k) block in row order, over divisor.
    A column of finite values whose sum overflows is summed at the exact
    scale 2**-e, 2**e > n, and scaled back after the divide; every other
    column keeps the plain cumsum's bits."""
    with np.errstate(over="ignore"):
        out = block.cumsum(axis=0)[-1]
    out /= divisor
    if not np.isfinite(out).all():
        over = ~np.isfinite(out) & np.isfinite(block).all(axis=0)
        e = len(block).bit_length()
        out[over] = np.ldexp(np.ldexp(block[:, over], -e).cumsum(axis=0)[-1] / divisor, e)
    return out


def coordwise_trimmed_mean(matrix: np.ndarray, beta: float) -> np.ndarray:
    """Trimmed mean down each column of an (m, n) matrix, e.g. per
    coordinate of m full gradients.

    Columns are sorted and the survivors of each column are added one at a
    time in ascending order, then divided by their count. The sum stays a
    ``cumsum`` down axis 0: where the summed values lie contiguous, as in
    an (m, 1) block, ``np.add.reduce`` and ``np.sum`` add them pairwise in
    eight partial sums, which rounds differently from the ascending order.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise AggregationError("expected an (m, n) matrix, one row per client")
    m = matrix.shape[0]
    g = trim_count(beta, m)
    survivors = m - 2 * g
    if survivors < 1:
        raise AggregationError(f"trimming {g} from each end of {m} values leaves nothing")
    s = np.sort(matrix, axis=0)
    kept = s[g : m - g]
    out = ordered_column_sums(kept, survivors)
    # a constant survivor set means the exact answer is that constant; the
    # sum/divide route can be one ulp off (n * c / n need not round to c)
    np.copyto(out, kept[0], where=kept[0] == kept[-1])
    return out
