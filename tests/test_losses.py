import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyber0.losses import LogisticRegressionModel, QuadraticModel


def naive_logreg_loss(w, X, y, p, C):
    """Independent per-sample reimplementation (math module only)."""
    W = [[w[i * C + c] for c in range(C)] for i in range(p + 1)]
    total = 0.0
    for row, label in zip(X, y):
        logits = [sum(row[i] * W[i][c] for i in range(p)) + W[p][c] for c in range(C)]
        m = max(logits)
        lse = m + math.log(sum(math.exp(v - m) for v in logits))
        total += lse - logits[label]
    return total / len(X)


def one_client(model, prepared, batch, w, mu):
    """The kernel on a group of one client: its (k,) losses at both brackets."""
    counts = [1 if batch is None else len(batch[0])]
    plus, minus = model.loss_batch_multi(prepared, batch, counts, w[None], mu)
    return plus[0], minus[0]


def random_batch(rng, n, p, C):
    X = rng.uniform(0, 1, size=(n, p))
    y = rng.integers(0, C, size=n)
    return X, y


class TestLogreg:
    def setup_method(self):
        self.model = LogisticRegressionModel(input_dim=12, num_classes=5)
        self.rng = np.random.default_rng(0)

    def test_dimension_mnist_shape(self):
        assert LogisticRegressionModel(784, 10).dimension == 7850

    def test_zero_weights_give_log_c(self):
        X, y = random_batch(self.rng, 37, 12, 5)
        loss = self.model.eval(np.zeros(self.model.dimension), (X, y))
        assert loss == pytest.approx(math.log(5), abs=1e-14)

    def test_loss_positive(self):
        for _ in range(20):
            X, y = random_batch(self.rng, 8, 12, 5)
            w = self.rng.normal(size=self.model.dimension)
            assert self.model.eval(w, (X, y)) >= 0.0

    def test_margin_growth_drives_loss_to_zero(self):
        # logits forced toward the one-hot of the true class
        model = LogisticRegressionModel(input_dim=2, num_classes=3)
        X = np.array([[1.0, 0.0]])
        y = np.array([1])
        prev = None
        for margin in (0.5, 2.0, 8.0, 32.0):
            w = np.zeros(model.dimension).reshape(3, 3)
            w[0, 1] = margin  # feature 0 pushes class 1
            loss = model.eval(w.reshape(-1), (X, y))
            if prev is not None:
                assert loss < prev
            prev = loss
        assert prev < 1e-10

    def test_matches_naive_reimplementation(self):
        for _ in range(10):
            X, y = random_batch(self.rng, 6, 12, 5)
            w = self.rng.normal(size=self.model.dimension)
            fast = self.model.eval(w, (X, y))
            slow = naive_logreg_loss(w, X, y, 12, 5)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        X, y = random_batch(self.rng, 16, 12, 5)
        w = self.rng.normal(size=self.model.dimension) * 0.5
        g = self.model.grad(w, (X, y))
        h = 1e-5
        coords = self.rng.choice(self.model.dimension, size=20, replace=False)
        for j in coords:
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (self.model.eval(wp, (X, y)) - self.model.eval(wm, (X, y))) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_bias_gradient_rows_sum_to_zero_at_origin(self):
        # softmax minus one-hot sums to zero across classes for a balanced batch
        model = LogisticRegressionModel(input_dim=4, num_classes=5)
        X = np.tile(self.rng.uniform(0, 1, size=(1, 4)), (5, 1))
        y = np.arange(5)
        g = model.grad(np.zeros(model.dimension), (X, y)).reshape(5, 5)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-15)

    def test_duplicated_batch_same_gradient(self):
        X, y = random_batch(self.rng, 9, 12, 5)
        w = self.rng.normal(size=self.model.dimension)
        X2 = np.concatenate([X, X])
        y2 = np.concatenate([y, y])
        assert np.allclose(self.model.grad(w, (X, y)), self.model.grad(w, (X2, y2)),
                           rtol=1e-13, atol=1e-15)

    def test_convex_along_random_slices(self):
        X, y = random_batch(self.rng, 24, 12, 5)
        for _ in range(20):
            w = self.rng.normal(size=self.model.dimension)
            v = self.rng.normal(size=self.model.dimension)
            f0 = self.model.eval(w, (X, y))
            f1 = self.model.eval(w + v, (X, y))
            mid = self.model.eval(w + 0.5 * v, (X, y))
            assert mid <= 0.5 * (f0 + f1) + 1e-10

    def test_multi_variant_losses_match_eval(self):
        X, y = random_batch(self.rng, 11, 12, 5)
        w = self.rng.normal(size=self.model.dimension)
        dirs = self.rng.normal(size=(7, self.model.dimension))
        mu = 0.1
        plus, minus = one_client(self.model, self.model.prepare_variants(dirs), (X, y), w, mu)
        assert np.allclose(plus, [self.model.eval(w + mu * z, (X, y)) for z in dirs], rtol=1e-12)
        assert np.allclose(minus, [self.model.eval(w - mu * z, (X, y)) for z in dirs], rtol=1e-12)

    def test_layout_buffer_is_reused(self):
        dirs = self.rng.normal(size=(3, self.model.dimension))
        first = self.model.prepare_variants(dirs)
        again = self.model.prepare_variants(2.0 * dirs, first)
        assert again is first
        for part, fresh in zip(first, self.model.prepare_variants(dirs)):
            assert np.array_equal(part, 2.0 * fresh)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension), (np.zeros((3, 7)), np.zeros(3, int)))
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension),
                            (np.zeros((2, 12)), np.array([0, 9])))
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension), None)
        prepared = self.model.prepare_variants(np.zeros((2, self.model.dimension)))
        with pytest.raises(ValueError):
            one_client(self.model, prepared, (np.zeros((3, 7)), np.zeros(3, int)),
                       np.zeros(self.model.dimension), 0.1)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 9),
    C=st.integers(2, 6),
    k=st.integers(1, 5),
    b=st.integers(1, 7),
    mu=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_logreg_kernel_matches_eval_at_both_brackets(p, C, k, b, mu, seed):
    model = LogisticRegressionModel(input_dim=p, num_classes=C)
    rng = np.random.default_rng(seed)
    X, y = random_batch(rng, b, p, C)
    w = rng.normal(size=model.dimension)
    dirs = rng.normal(size=(k, model.dimension))
    plus, minus = one_client(model, model.prepare_variants(dirs), (X, y), w, mu)
    assert plus.shape == minus.shape == (k,)
    assert np.allclose(plus, [model.eval(w + mu * z, (X, y)) for z in dirs], rtol=1e-12)
    assert np.allclose(minus, [model.eval(w - mu * z, (X, y)) for z in dirs], rtol=1e-12)


def grouped_equals_each_client_alone(model, rng, counts, k, mu):
    X, y = random_batch(rng, sum(counts), model.input_dim, model.num_classes)
    ws = rng.normal(size=(len(counts), model.dimension))
    prepared = model.prepare_variants(rng.normal(size=(k, model.dimension)))
    plus, minus = model.loss_batch_multi(prepared, (X, y), counts, ws, mu)
    assert plus.shape == minus.shape == (len(counts), k)
    ends = np.cumsum(counts)
    for j, w in enumerate(ws):
        rows = slice(ends[j] - counts[j], ends[j])
        alone = one_client(model, prepared, (X[rows].copy(), y[rows].copy()), w, mu)
        assert np.array_equal(plus[j], alone[0]) and np.array_equal(minus[j], alone[1])


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 9),
    C=st.integers(2, 6),
    k=st.integers(1, 9),
    counts=st.lists(st.integers(1, 7), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_kernel_is_each_client_alone_bitwise(p, C, k, counts, seed):
    # one X Z product for the stacked group, then each client's brackets on
    # its own rows at its own w: bit for bit the single-client call
    model = LogisticRegressionModel(input_dim=p, num_classes=C)
    grouped_equals_each_client_alone(model, np.random.default_rng(seed), counts, k, 1e-3)


@pytest.mark.parametrize("counts", [[64] * 6, [64, 17, 40, 64]])
def test_grouped_kernel_is_each_client_alone_bitwise_at_mnist_width(counts):
    # 784 features, C * k = 640: the engine's step block, and a group with
    # the unequal batches of small non-IID shards
    model = LogisticRegressionModel(input_dim=784, num_classes=10)
    grouped_equals_each_client_alone(model, np.random.default_rng(7), counts, 64, 1e-3)


class TestQuadratic:
    def test_minimum(self):
        m = QuadraticModel(2.0, np.array([1.0, -1.0]))
        assert m.eval(m.w_star) == 0.0
        assert np.array_equal(m.grad(m.w_star), [0.0, 0.0])

    def test_hand_example(self):
        m = QuadraticModel(2.0, np.zeros(2))
        w = np.array([1.0, 0.0])
        assert m.eval(w) == 1.0
        assert np.array_equal(m.grad(w), [2.0, 0.0])

    def test_symmetric_difference_identity(self):
        # F(w + mu z) - F(w - mu z) = 2 mu lam <w - w*, z> in exact arithmetic
        rng = np.random.default_rng(1)
        m = QuadraticModel(1.7, rng.normal(size=9))
        for _ in range(50):
            w = rng.normal(size=9)
            z = rng.normal(size=9)
            mu = float(rng.uniform(0.01, 0.5))
            lhs = m.eval(w + mu * z) - m.eval(w - mu * z)
            rhs = 2 * mu * m.lam * float(np.dot(w - m.w_star, z))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_multi_variant_losses_match_eval(self):
        rng = np.random.default_rng(2)
        m = QuadraticModel(0.8, rng.normal(size=6))
        w = rng.normal(size=6)
        dirs = rng.normal(size=(5, 6))
        mu = 0.1
        plus, minus = one_client(m, m.prepare_variants(dirs), None, w, mu)
        assert np.allclose(plus, [m.eval(w + mu * z) for z in dirs], rtol=1e-14)
        assert np.allclose(minus, [m.eval(w - mu * z) for z in dirs], rtol=1e-14)

    @pytest.mark.parametrize("k, d", [(1, 1), (3, 5), (16, 16), (7, 33), (4, 100)])
    def test_multi_variant_follows_in_place_schedule_bitwise(self, k, d):
        # direction by direction: w + mu z, then that point minus 2 mu z, each
        # squared norm one einsum row
        rng = np.random.default_rng(k * 1000 + d)
        m = QuadraticModel(0.7, rng.normal(size=d))
        w = rng.normal(size=d)
        dirs = rng.normal(size=(k, d))
        mu = 1e-3
        plus, minus = one_client(m, m.prepare_variants(dirs), None, w, mu)
        for r, z in enumerate(dirs):
            vp = z * mu + w
            vm = z * (-2.0 * mu) + vp
            for got, v in ((plus[r], vp - m.w_star), (minus[r], vm - m.w_star)):
                assert got == 0.5 * m.lam * np.einsum("d,d->", v, v)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m = QuadraticModel(1.3, rng.normal(size=5))
        w = rng.normal(size=5)
        g = m.grad(w)
        h = 1e-6
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (m.eval(wp) - m.eval(wm)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_accuracy_percent():
    model = LogisticRegressionModel(input_dim=2, num_classes=2)
    # weights that classify by the first feature's sign
    w = np.zeros(model.dimension).reshape(3, 2)
    w[0, 1] = 1.0
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-0.5, 0.0]])
    y = np.array([1, 0, 1, 1])
    assert model.accuracy(w.reshape(-1), X, y) == 75.0
