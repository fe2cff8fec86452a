"""Loss models: multinomial logistic regression and a strongly convex quadratic.

Both expose the same surface: ``dimension``, ``eval(w, batch)``,
``grad(w, batch)``, and the engine's central-difference kernel. That kernel
has two steps: ``prepare_variants(directions, mu)`` lays out the steps
mu z_r of a (..., k, d) block of directions in one call (the engine passes
a window of rounds), and ``loss_batch_multi(prepared, batch, counts, ws)``
evaluates one (k, d) slice's layout on a group of clients at once: client
j owns the next ``counts[j]`` rows of the stacked batch and the parameters
``ws[j]``, and gets its k loss differences f(w_j + mu z_r) - f(w_j - mu z_r).
The logistic kernel never forms a perturbed parameter vector: it computes
S = X (mu Z) + mu b_z once for the whole group and the softmax P of
X W_j + b_j once per client, and takes each row's difference as
log(P e^S) - log(P e^-S) - 2 S_y, with one exponential per bracket pair.

A batch is a pair ``(X, y)`` of features (rows in [0, 1]) and integer
labels; the quadratic model ignores it (every sample yields the same loss).
"""

from __future__ import annotations

import numpy as np

from . import data

Batch = tuple[np.ndarray, np.ndarray] | None

# rows per tile of a group's X Z product: each client's rows start a tile and
# are zero-padded to whole tiles, so that they equal its own product. Measured
# on OpenBLAS 0.3.31's dgemm kernels (final_w, grouped vs one client a group):
#   tile  SkylakeX  Haswell  Sandybridge  Nehalem              Katmai
#   4     same      same     same         differ               differ
#   8     same      same     same         differ at 2 threads  same
#   16    same      same     same         same                 same
_TILE = 16


class LogisticRegressionModel:
    """Mean softmax cross-entropy with the bias as a trailing weight row.

    The flat parameter vector reshapes row-major to (p + 1, C); logits are
    X @ W[:p] + W[p], stabilized by per-row max subtraction.
    """

    def __init__(self, input_dim: int = 784, num_classes: int = 10):
        if input_dim < 1 or num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.dimension = (input_dim + 1) * num_classes

    def _check_batch(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        if batch is None:
            raise ValueError("logistic regression requires a (features, labels) batch")
        X, y = batch
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"feature rows must have length {self.input_dim}, got {X.shape}")
        if len(X) == 0 or len(X) != len(y):
            raise ValueError("batch must be nonempty with matching feature/label counts")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        return X, y

    def _weights(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(self.input_dim + 1, self.num_classes)

    def logits(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        W = self._weights(w)
        return X @ W[:-1] + W[-1]

    def eval(self, w: np.ndarray, batch: Batch) -> float:
        X, y = self._check_batch(batch)
        return float(_mean_nll(self.logits(w, X)[:, :, None], y)[0])

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        X, y = self._check_batch(batch)
        L = self.logits(w, X)
        L -= L.max(axis=1)[:, None]
        np.exp(L, out=L)
        L /= L.sum(axis=1)[:, None]
        L[np.arange(len(y)), y] -= 1.0  # softmax minus one-hot
        L /= len(y)
        g = np.empty((self.input_dim + 1, self.num_classes))
        g[:-1] = X.T @ L
        g[-1] = L.sum(axis=0)
        return g.reshape(-1)

    def prepare_variants(self, directions: np.ndarray, mu: float,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Lay the steps mu z_r of the (..., k, d) ``directions`` out class-major,
        one (..., p + 1, C * k) block: rows 0..p-1 of a (p + 1, C * k) layout
        are mu Z, with column c * k + r holding class c of direction r, and
        row p is the biases mu b_z in the same order. ``out`` may be a layout
        returned earlier for the same shape, which is then overwritten, not
        reallocated."""
        *lead, k, _ = directions.shape
        p, C = self.input_dim, self.num_classes
        if out is None:
            out = np.empty((*lead, p + 1, C * k))
        Z = directions.reshape(*lead, k, p + 1, C)
        np.multiply(np.moveaxis(Z, -3, -1), mu, out=out.reshape(*lead, p + 1, C, k))
        return out

    def loss_batch_multi(
        self, prepared: np.ndarray, batch: Batch, counts: np.ndarray, ws: np.ndarray
    ) -> np.ndarray:
        """Each client's f(w_j + mu z_r) - f(w_j - mu z_r), a (len(ws), k)
        block; client j's batch is the next ``counts[j]`` rows.

        The logits are A +- S with A = X W_j + b_j and S = X (mu Z) + mu b_z
        from ``_step``. With P = softmax(A), a row's lse(A + S) - lse(A - S)
        is log(P e^S) - log(P e^-S), so its difference is that minus 2 S_y:
        one exp, one reciprocal and two stacked (1, C) (C, k) products over
        the block, then one mean per client. That is exact to rounding while
        every softmax weight is a normal float: where e^S or a product of
        it leaves the float range, so does the client's difference, and such
        a client, or one with a weight below the normal range, gets the two
        stabilised brackets of ``_brackets`` instead. The batch is not
        validated: this runs once per client group per round, and the label
        scan's small temporaries, interleaved with the round's large arrays,
        measurably raise peak memory. A feature width other than p still
        fails in the matrix product."""
        X, y = batch
        counts = np.asarray(counts)
        ends = np.cumsum(counts)
        starts = ends - counts
        step = self._step(prepared, X, counts)
        n, C, k = step.shape
        P = np.empty((n, C))
        for w, a, b in zip(ws, starts, ends):
            W = self._weights(w)
            np.matmul(X[a:b], W[:-1], out=P[a:b])
            P[a:b] += W[-1]
        P -= P.max(axis=1)[:, None]
        np.exp(P, out=P)
        P /= P.sum(axis=1)[:, None]
        subnormal = np.minimum.reduceat(P.min(axis=1), starts) < np.finfo(float).tiny
        twice_true = step[np.arange(n), y]
        twice_true *= 2.0
        with np.errstate(all="ignore"):  # a client whose values leave the range is redone
            np.exp(step, out=step)
            P = P[:, None, :]
            up = P @ step
            up /= P @ np.reciprocal(step, out=step)
            up = np.log(up, out=up).reshape(n, k)
            up -= twice_true
            diff = np.add.reduceat(up, starts, axis=0)
        diff /= counts[:, None]
        for j in np.flatnonzero(subnormal | ~np.isfinite(diff).all(axis=1)):
            rows = slice(starts[j], ends[j])
            diff[j] = self._brackets(prepared, X[rows], y[rows], ws[j])
        return diff

    def _step(self, prepared: np.ndarray, X: np.ndarray, counts) -> np.ndarray:
        """S = X (mu Z) + mu b_z of clients owning ``counts`` consecutive rows
        of X each, as (rows, C, k), from one product of the stack in _TILE tiles."""
        Zp, bias = prepared[:-1], prepared[-1]
        pad = -np.asarray(counts) % _TILE
        if pad.any():  # each client's rows from a tile boundary, zero rows after them
            at = np.arange(len(X)) + np.repeat(np.cumsum(pad) - pad, counts)
            tiled = np.zeros((len(X) + pad.sum(), X.shape[1]))
            tiled[at] = X
            step = (tiled @ Zp)[at]
        else:  # every client fills whole tiles: X is its own tiled layout
            step = X @ Zp
        step += bias
        return step.reshape(len(X), self.num_classes, -1)

    def _brackets(self, prepared: np.ndarray, X: np.ndarray, y: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
        """One client's (k,) differences as two max-stabilised brackets, the
        logits A + S and A - S each through ``_mean_nll``."""
        step = self._step(prepared, X, [len(X)])
        base = self.logits(w, X)[:, :, None]
        upper = base + step
        np.subtract(base, step, out=step)
        return _mean_nll(upper, y) - _mean_nll(step, y)

    def accuracy(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct argmax predictions, in percent (nan for no
        rows), counted exactly over one product per row group of X of
        ``data.GROUP_VALUES`` doubles: a tall product's OpenBLAS buffer
        pages stay resident (2.9 KB per 784-wide row)."""
        rows = max(1, data.GROUP_VALUES // self.input_dim)
        hits = 0
        for a in range(0, len(X), rows):
            pred = np.argmax(self.logits(w, X[a:a + rows]), axis=1)
            hits += int(np.count_nonzero(pred == y[a:a + rows]))
        return 100.0 * (hits / len(X)) if len(X) else float("nan")


class QuadraticModel:
    """F(w) = (lam / 2) * ||w||^2 on ``dim`` coordinates, whose optimum is
    the origin; data-free, exact gradient."""

    def __init__(self, lam: float, dim: int):
        if lam <= 0:
            raise ValueError("curvature must be positive")
        self.lam = float(lam)
        self.dimension = int(dim)

    def eval(self, w: np.ndarray, batch: Batch = None) -> float:
        return 0.5 * self.lam * float(np.einsum("d,d->", w, w))

    def grad(self, w: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.lam * w

    def prepare_variants(self, directions: np.ndarray, mu: float,
                         out: np.ndarray | None = None) -> np.ndarray:
        """The two steps of each of the (..., k, d) ``directions``, as the
        (..., 2, k, d) halves mu z_r and -2 mu z_r (the first times -2, which
        is exact). ``out`` may be a layout returned earlier for the same
        shape, which is then overwritten, not reallocated."""
        if out is None:
            out = np.empty((*directions.shape[:-2], 2, *directions.shape[-2:]))
        step = np.multiply(directions, mu, out=out[..., 0, :, :])
        np.multiply(step, -2.0, out=out[..., 1, :, :])
        return out

    def loss_batch_multi(
        self, prepared: np.ndarray, batch: Batch, counts: np.ndarray, ws: np.ndarray
    ) -> np.ndarray:
        """plus - minus, a (1, k) block, for the 2k bracket points of the one
        row w of ``ws`` in the in-place schedule, plus[r] = w + mu z_r and
        minus[r] = (w + mu z_r) - 2 mu z_r, two adds of the laid-out steps.
        The model is data-free, so the engine evaluates one client, whose
        row every client shares; the batch and its counts are ignored.

        plus and minus are the two contiguous (k, d) halves of one (2k, d)
        buffer, so each step of the schedule is one numpy call over a whole
        side and the squared norms are one einsum over the buffer; a row's
        einsum sum does not depend on where the row sits."""
        step, back = prepared[0], prepared[1]
        k = len(step)
        v = np.empty((2 * k, ws.shape[1]))
        plus, minus = v[:k], v[k:]
        np.add(step, ws, out=plus)  # one row, broadcast over the k directions
        np.add(back, plus, out=minus)
        losses = np.einsum("sd,sd->s", v, v)
        losses *= 0.5 * self.lam
        return losses[None, :k] - losses[None, k:]


def _mean_nll(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy per variant of (b, C, k) logits, overwriting them."""
    m = L.max(axis=1)
    true = L[np.arange(len(y)), y]
    L -= m[:, None, :]
    np.exp(L, out=L)
    lse = np.log(L.sum(axis=1))
    lse += m
    lse -= true
    return lse.mean(axis=0)
