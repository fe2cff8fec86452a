"""Loss models: multinomial logistic regression and a strongly convex quadratic.

Both expose the same surface: ``dimension``, ``eval(w, batch)``,
``grad(w, batch)``, and the engine's central-difference kernel. That kernel
has two steps: ``prepare_variants`` lays a (k, d) block of directions out
once per round and epoch, and ``loss_batch_multi(prepared, batch, counts,
ws, mu)`` evaluates a group of clients at once: client j owns the next
``counts[j]`` rows of the stacked batch and the parameters ``ws[j]``, and
gets its k losses at w_j + mu z_r and its k losses at w_j - mu z_r. The
logistic kernel never forms a perturbed parameter vector: it computes
X Z + b_z once for the whole group and X W_j + b_j once per client, and
takes the logits of both brackets as their sum and difference.

A batch is a pair ``(X, y)`` of features (rows in [0, 1]) and integer
labels; the quadratic model ignores it (every sample yields the same loss).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

Batch = tuple[np.ndarray, np.ndarray] | None


class LossModel(Protocol):
    dimension: int

    def eval(self, w: np.ndarray, batch: Batch) -> float: ...

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray: ...

    def prepare_variants(self, directions: np.ndarray, out: object = None) -> object: ...

    def loss_batch_multi(
        self, prepared: object, batch: Batch, counts: np.ndarray, ws: np.ndarray, mu: float
    ) -> tuple[np.ndarray, np.ndarray]: ...


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

    def prepare_variants(
        self, directions: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lay k directions out class-major: the (p, C * k) weight block with
        column c * k + r holding class c of direction r, and the (C * k,)
        biases in the same order. ``out`` may be a layout returned earlier
        for the same k, which is then overwritten instead of reallocated."""
        k = len(directions)
        p, C = self.input_dim, self.num_classes
        Z = directions.reshape(k, p + 1, C)
        if out is None:
            out = np.empty((p, C * k)), np.empty(C * k)
        Zp, bias = out
        np.copyto(Zp.reshape(p, C, k), Z[:, :-1, :].transpose(1, 2, 0))
        np.copyto(bias.reshape(C, k), Z[:, -1, :].T)
        return out

    def loss_batch_multi(
        self, prepared: tuple[np.ndarray, np.ndarray], batch: Batch, counts: np.ndarray,
        ws: np.ndarray, mu: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each client's losses at w_j + mu z_r and at w_j - mu z_r, two
        (len(ws), k) blocks; client j's batch is the next ``counts[j]`` rows.

        The logits are X W_j + b_j +- mu (X Z + b_z): one product of the
        whole stacked batch with the C * k prepared columns, then one with
        the C columns of w_j and the cross-entropies on each client's rows.
        The batch is not validated: this runs once per client group per
        round, and the label scan's small temporaries, interleaved with the
        round's large arrays, measurably raise peak memory. A feature width
        other than p still fails in the matrix product."""
        X, y = batch
        Zp, bias = prepared
        k = len(bias) // self.num_classes
        step = X @ Zp
        step += bias
        step *= mu
        step = step.reshape(len(X), self.num_classes, k)
        plus, minus = np.empty((2, len(ws), k))
        end = 0
        for j, (w, n) in enumerate(zip(ws, counts)):
            rows = slice(end, end + n)
            end += n
            base = self.logits(w, X[rows])[:, :, None]
            mine = step[rows]
            upper = base + mine
            np.subtract(base, mine, out=mine)
            plus[j], minus[j] = _mean_nll(upper, y[rows]), _mean_nll(mine, y[rows])
        return plus, minus

    def accuracy(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct argmax predictions, in percent."""
        pred = np.argmax(self.logits(w, X), axis=1)
        return 100.0 * float(np.mean(pred == y))


class QuadraticModel:
    """F(w) = (lam / 2) * ||w - w_star||^2; data-free, exact gradient."""

    def __init__(self, lam: float, w_star: np.ndarray):
        if lam <= 0:
            raise ValueError("curvature must be positive")
        self.lam = float(lam)
        self.w_star = np.asarray(w_star, dtype=np.float64)
        self.dimension = len(self.w_star)

    def eval(self, w: np.ndarray, batch: Batch = None) -> float:
        diff = w - self.w_star
        return 0.5 * self.lam * float(np.dot(diff, diff))

    def grad(self, w: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.lam * (w - self.w_star)

    def prepare_variants(self, directions: np.ndarray, out: object = None) -> np.ndarray:
        return directions

    def loss_batch_multi(
        self, prepared: np.ndarray, batch: Batch, counts: np.ndarray, ws: np.ndarray, mu: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The 2k bracket points of the one row w of ``ws`` in the in-place
        schedule, plus[r] = w + mu z_r and minus[r] = (w + mu z_r) - 2 mu z_r,
        evaluated in one pass, as two (1, k) blocks. The model is data-free,
        so the engine evaluates one client, whose row every client shares;
        the batch and its counts are ignored.

        plus and minus are the two contiguous (k, d) halves of one (2k, d)
        buffer, so each step of the schedule is one numpy call over a whole
        side and the squared norms are one einsum over the buffer; a row's
        einsum sum does not depend on where the row sits."""
        k = len(prepared)
        v = np.empty((2 * k, ws.shape[1]))
        plus, minus = v[:k], v[k:]
        np.multiply(prepared, mu, out=plus)
        plus += ws  # one row, broadcast over the k directions
        np.multiply(prepared, -2.0 * mu, out=minus)
        minus += plus
        v -= self.w_star
        losses = np.einsum("sd,sd->s", v, v)
        losses *= 0.5 * self.lam
        return losses[None, :k], losses[None, k:]


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
