import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyber0
from cyber0 import data as data_module
from cyber0.federation import ExperimentConfig, run_experiment
from cyber0.losses import LogisticRegressionModel, QuadraticModel
from test_kernels import CORES, print_openblas_config, run_on_kernel, whole_accuracy


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


def one_client(model, prepared, batch, w):
    """The kernel on a group of one client: its (k,) differences
    f(w + mu z_r) - f(w - mu z_r), with mu laid out in ``prepared``."""
    counts = [1 if batch is None else len(batch[0])]
    return model.loss_batch_multi(prepared, batch, counts, w[None])[0]


def assert_matches_eval_brackets(model, diff, w, dirs, mu, batch, rtol):
    """|diff_r - (f(w + mu z_r) - f(w - mu z_r))| <= rtol (|f+| + |f-|), with
    each bracket from ``eval``: the bound a per-bracket rtol gives the
    difference."""
    plus = np.array([model.eval(w + mu * z, batch) for z in dirs])
    minus = np.array([model.eval(w - mu * z, batch) for z in dirs])
    assert diff.shape == plus.shape
    assert np.all(np.abs(diff - (plus - minus)) <= rtol * (np.abs(plus) + np.abs(minus)))


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
        diff = one_client(self.model, self.model.prepare_variants(dirs, mu), (X, y), w)
        assert_matches_eval_brackets(self.model, diff, w, dirs, mu, (X, y), 1e-12)

    def test_layout_buffer_is_reused(self):
        dirs = self.rng.normal(size=(3, self.model.dimension))
        first = self.model.prepare_variants(dirs, 0.1)
        again = self.model.prepare_variants(dirs, 0.2, first)
        assert again is first
        for part, fresh in zip(first, self.model.prepare_variants(dirs, 0.1)):
            assert np.array_equal(part, 2.0 * fresh)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension), (np.zeros((3, 7)), np.zeros(3, int)))
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension),
                            (np.zeros((2, 12)), np.array([0, 9])))
        with pytest.raises(ValueError):
            self.model.eval(np.zeros(self.model.dimension), None)
        prepared = self.model.prepare_variants(np.zeros((2, self.model.dimension)), 0.1)
        with pytest.raises(ValueError):
            one_client(self.model, prepared, (np.zeros((3, 7)), np.zeros(3, int)),
                       np.zeros(self.model.dimension))


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
    diff = one_client(model, model.prepare_variants(dirs, mu), (X, y), w)
    assert diff.shape == (k,)
    assert_matches_eval_brackets(model, diff, w, dirs, mu, (X, y), 1e-12)


def longdouble_differences(model, X, y, w, dirs, mu):
    """f(w + mu z_r) - f(w - mu z_r) of every direction, each bracket's
    logits and log-sum-exp in np.longdouble."""
    L = np.longdouble
    X, rows = X.astype(L), np.arange(len(y))
    out = []
    for z in dirs:
        f = []
        for point in (w.astype(L) + L(mu) * z.astype(L), w.astype(L) - L(mu) * z.astype(L)):
            W = point.reshape(model.input_dim + 1, model.num_classes)
            A = X @ W[:-1] + W[-1]
            top = A.max(axis=1)
            lse = top + np.log(np.exp(A - top[:, None]).sum(axis=1))
            f.append((lse - A[rows, y]).mean())
        out.append(f[0] - f[1])
    return np.array(out)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="np.longdouble is float64 here")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [0.05, 3.0])
@pytest.mark.parametrize("mu", [1e-3, 0.1, 1.0])
def test_logreg_kernel_against_longdouble_differences(mu, scale, seed):
    # a 784-feature batch: the worst error over the directions, against the
    # median |difference|, stays under 1e-13. Over 360 such draws the kernel
    # reached 7.2e-14 (99th percentile 2.0e-14), where two separate float64
    # brackets reached 1.1e-11
    model = LogisticRegressionModel(784, 10)
    rng = np.random.default_rng([seed, int(scale * 100), int(1 / mu)])
    X, y = random_batch(rng, 64, 784, 10)
    w = scale * rng.normal(size=model.dimension)
    dirs = rng.normal(size=(8, model.dimension))
    diff = one_client(model, model.prepare_variants(dirs, mu), (X, y), w)
    ref = longdouble_differences(model, X, y, w, dirs, mu)
    assert np.max(np.abs(diff - ref)) <= 1e-13 * np.median(np.abs(ref))


def grouped_equals_each_client_alone(model, rng, counts, k, mu):
    X, y = random_batch(rng, sum(counts), model.input_dim, model.num_classes)
    ws = rng.normal(size=(len(counts), model.dimension))
    prepared = model.prepare_variants(rng.normal(size=(k, model.dimension)), mu)
    diff = model.loss_batch_multi(prepared, (X, y), counts, ws)
    assert diff.shape == (len(counts), k)
    ends = np.cumsum(counts)
    for j, w in enumerate(ws):
        rows = slice(ends[j] - counts[j], ends[j])
        alone = one_client(model, prepared, (X[rows].copy(), y[rows].copy()), w)
        assert np.array_equal(diff[j], alone)


# two groups whose stacked X Z product, without whole tiles per client,
# rounds apart from the clients' own products on the SkylakeX kernel
# (OpenBLAS's small-matrix path)
SMALL_GROUPS = [dict(p=9, C=6, k=9, counts=[2, 5, 7, 1, 3], seed=183),
                dict(p=9, C=6, k=8, counts=[7, 2, 1, 4], seed=208)]


def small_group_equals_each_client_alone(p, C, k, counts, seed):
    model = LogisticRegressionModel(input_dim=p, num_classes=C)
    grouped_equals_each_client_alone(model, np.random.default_rng(seed), counts, k, 1e-3)


@settings(max_examples=40, deadline=None)
@example(**SMALL_GROUPS[0])
@example(**SMALL_GROUPS[1])
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
    small_group_equals_each_client_alone(p, C, k, counts, seed)


@pytest.mark.parametrize("counts", [[64] * 6, [64, 17, 40, 64]])
def test_grouped_kernel_is_each_client_alone_bitwise_at_mnist_width(counts):
    # 784 features, C * k = 640: the engine's step block, and a group with
    # the unequal batches of small non-IID shards
    model = LogisticRegressionModel(input_dim=784, num_classes=10)
    grouped_equals_each_client_alone(model, np.random.default_rng(7), counts, 64, 1e-3)


def check_grouping_on_this_kernel():
    """Print the OpenBLAS build this process runs, then fail unless a client's
    rows of a group are its own, at 784 features and in SMALL_GROUPS, and a
    run's final w does not depend on data.GROUP_VALUES."""
    print_openblas_config()
    model = LogisticRegressionModel(input_dim=784, num_classes=10)
    grouped_equals_each_client_alone(model, np.random.default_rng(7), [64, 17, 40, 64], 64, 1e-3)
    for case in SMALL_GROUPS:
        small_group_equals_each_client_alone(**case)
    cfg = ExperimentConfig(synth_samples=600, synth_features=784, synth_classes=10,
                           clients=12, batch_size=17, k=64, steps=2)
    final = []
    for budget in (data_module.GROUP_VALUES, 1):  # one group of every client, one each
        data_module.GROUP_VALUES = budget
        final.append(run_experiment(cfg).final_w.tobytes())
    assert final[0] == final[1], "final w depends on data.GROUP_VALUES"


@pytest.mark.parametrize("core", CORES)
def test_grouping_is_not_part_of_a_run_on_every_kernel(core):
    # the grouping checks in a child process on each of OpenBLAS's dgemm
    # kernels (test_kernels.run_on_kernel)
    run_on_kernel(core, __file__)


@pytest.mark.parametrize("case", ["exp_overflows", "softmax_underflows"])
def test_clients_out_of_range_take_their_brackets_in_a_group(case, monkeypatch):
    # client 1 alone leaves the difference kernel's range: its e^S overflows
    # (mu = 100 on client 0's rows scaled down and on its own), or its
    # softmax weights underflow (weights scaled up). It is redone with its
    # stabilised brackets, and each row is bit for bit the client's own call
    model = LogisticRegressionModel(input_dim=50, num_classes=4)
    rng = np.random.default_rng(5)
    X, y = random_batch(rng, 7, 50, 4)
    ws = 0.1 * rng.normal(size=(2, model.dimension))
    dirs = rng.normal(size=(5, model.dimension))
    mu = 100.0 if case == "exp_overflows" else 1e-3
    prepared = model.prepare_variants(dirs, mu)
    if case == "exp_overflows":
        X[:3] *= 1e-3
        Zp, bias = prepared[:-1], prepared[-1]  # mu Z above the biases mu b_z
        peaks = [np.abs(X[rows] @ Zp + bias).max() for rows in (slice(0, 3), slice(3, 7))]
        assert peaks[0] < np.log(np.finfo(float).max) < peaks[1]
    else:
        ws[1] *= 1e4
    redone = []
    brackets = LogisticRegressionModel._brackets

    def spy(self, prepared, X, y, w):
        redone.append(len(X))
        return brackets(self, prepared, X, y, w)

    monkeypatch.setattr(LogisticRegressionModel, "_brackets", spy)
    diff = model.loss_batch_multi(prepared, (X, y), [3, 4], ws)
    assert redone == [4]
    for j, rows in enumerate((slice(0, 3), slice(3, 7))):
        batch = X[rows].copy(), y[rows].copy()
        assert np.array_equal(diff[j], one_client(model, prepared, batch, ws[j]))
        assert_matches_eval_brackets(model, diff[j], ws[j], dirs, mu, batch, 1e-12)


class TestQuadratic:
    @pytest.mark.parametrize("lam, dim", [(math.nan, 4), (math.inf, 4), (1.0, 0)])
    def test_rejects_bad_curvature_or_dimension(self, lam, dim):
        with pytest.raises(ValueError):
            QuadraticModel(lam, dim)

    def test_minimum(self):
        m = QuadraticModel(2.0, 2)
        assert m.dimension == 2
        assert m.eval(np.zeros(2)) == 0.0
        assert np.array_equal(m.grad(np.zeros(2)), [0.0, 0.0])

    def test_hand_example(self):
        m = QuadraticModel(2.0, 2)
        w = np.array([1.0, 0.0])
        assert m.eval(w) == 1.0
        assert np.array_equal(m.grad(w), [2.0, 0.0])

    def test_symmetric_difference_identity(self):
        # F(w + mu z) - F(w - mu z) = 2 mu lam <w, z> in exact arithmetic
        rng = np.random.default_rng(1)
        m = QuadraticModel(1.7, 9)
        for _ in range(50):
            w = rng.normal(size=9)
            z = rng.normal(size=9)
            mu = float(rng.uniform(0.01, 0.5))
            lhs = m.eval(w + mu * z) - m.eval(w - mu * z)
            rhs = 2 * mu * m.lam * float(np.dot(w, z))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_multi_variant_losses_match_eval(self):
        rng = np.random.default_rng(2)
        m = QuadraticModel(0.8, 6)
        w = rng.normal(size=6)
        dirs = rng.normal(size=(5, 6))
        mu = 0.1
        diff = one_client(m, m.prepare_variants(dirs, mu), None, w)
        assert_matches_eval_brackets(m, diff, w, dirs, mu, None, 1e-14)

    @pytest.mark.parametrize("k, d", [(1, 1), (3, 5), (16, 16), (7, 33), (4, 100)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_multi_variant_follows_in_place_schedule_bitwise(self, k, d, data):
        # direction by direction: w + mu z, then that point minus 2 mu z,
        # each squared norm one einsum row
        rng = np.random.default_rng(k * 1000 + d)
        seeded = rng.normal(size=d)
        dirs = rng.normal(size=(k, d))
        # -0.0 and subnormal coordinates among finite ones
        coord = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2e-308]),
                          st.floats(-4.0, 4.0))
        drawn = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)), dtype=np.float64)
        mu = 1e-3
        m = QuadraticModel(0.7, d)
        for w in (seeded, drawn):
            diff = one_client(m, m.prepare_variants(dirs, mu), None, w)
            for r, z in enumerate(dirs):
                vp = z * mu + w
                vm = z * (-2.0 * mu) + (z * mu + w)
                plus, minus = (0.5 * m.lam * np.einsum("d,d->", v, v) for v in (vp, vm))
                assert diff[r] == plus - minus

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m = QuadraticModel(1.3, 5)
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


@pytest.mark.parametrize("p,budget", [(784, None), (20, 100), (150, 100)],
                         ids=["mnist_width", "five_rows", "one_row"])
def test_grouped_accuracy_is_one_whole_product(p, budget, monkeypatch):
    # accuracy evaluates GROUP_VALUES // p rows at a time (at least one);
    # its exact count gives the whole product's percentage bit for bit at
    # one row and around one and several group boundaries
    if budget is not None:
        monkeypatch.setattr(data_module, "GROUP_VALUES", budget)
    rows = max(1, data_module.GROUP_VALUES // p)
    model = LogisticRegressionModel(input_dim=p, num_classes=10)
    rng = np.random.default_rng(p)
    w = rng.standard_normal(model.dimension)
    for n in sorted({1, max(1, rows - 1), rows, rows + 1, 3 * rows + 5}):
        X, y = rng.random((n, p)), rng.integers(0, 10, n)
        assert model.accuracy(w, X, y) == whole_accuracy(model, w, X, y), n


def test_accuracy_of_no_rows_is_nan_without_a_warning():
    model = LogisticRegressionModel(input_dim=3, num_classes=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(model.accuracy(np.ones(model.dimension), np.empty((0, 3)),
                                         np.empty(0, dtype=int)))


ACCURACY_MEMORY = """
import numpy as np
from cyber0 import data
from cyber0.losses import LogisticRegressionModel

def peak_kb():
    # this process's own high-water mark: ru_maxrss also keeps the forking
    # parent's, which would hide a smaller child's growth
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

model = LogisticRegressionModel(input_dim=256, num_classes=10)
rng = np.random.default_rng(3)
X, y = rng.random((8000, 256)), rng.integers(0, 10, 8000)
w = rng.standard_normal(model.dimension)
model.logits(w, X[:data.GROUP_VALUES // 256])  # OpenBLAS warmed by one group's product
before = peak_kb()
model.accuracy(w, X, y)
print(peak_kb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_accuracy_leaves_no_product_sized_buffer_resident():
    # one product over all 8000 rows (a 15.6 MB operand) leaves about 15 MB
    # of OpenBLAS buffer resident past a group-sized product's, on two
    # threads; in a fresh process, whose peak no earlier test has raised
    src = str(Path(cyber0.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", ACCURACY_MEMORY], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    grown_kb = int(child.stdout)
    assert grown_kb < 2048, f"peak RSS grew {grown_kb} KB"


if __name__ == "__main__":
    check_grouping_on_this_kernel()
