import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyber0.federation import ExperimentConfig, _Setup, run_cyber0
from cyber0.losses import LogisticRegressionModel, QuadraticModel
from cyber0.seedstream import DirectionMode, RngStream, make_direction, sphere_direction
from cyber0.zo import NonFiniteLossError, apply_update, direction_seed, zo_coefficient


def gaussian_reference(seed, d):
    return RngStream(seed).gaussians(d)


class TestCoefficient:
    def test_hand_example_on_quadratic(self):
        # lam=1, d=2, w-w*=(1,0), z=(1,0), mu=0.1, sphere scaling:
        # 2 * ((0.605 - 0.405) / 0.2) = 2.0
        model = QuadraticModel(1.0, np.zeros(2))
        w = np.array([1.0, 0.0])
        c = zo_coefficient(model, w, None, np.array([1.0, 0.0]), 0.1, 2.0)
        assert c == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_direction_gives_zero(self):
        model = QuadraticModel(1.0, np.zeros(2))
        w = np.array([1.0, 0.0])
        c = zo_coefficient(model, w, None, np.array([0.0, 1.0]), 0.1, 2.0)
        assert abs(c) <= 4 * np.finfo(float).eps * 2.0

    def test_gaussian_mode_drops_dimension_factor(self):
        base = dict(model="quadratic", quad_dim=4, mu=0.05)
        sphere = _Setup(ExperimentConfig(**base, direction_mode="sphere"))
        gaussian = _Setup(ExperimentConfig(**base, direction_mode="gaussian"))
        assert (sphere.scale, gaussian.scale) == (4.0, 1.0)
        assert (sphere.direction_mode, gaussian.direction_mode) == (
            DirectionMode.SPHERE, DirectionMode.GAUSSIAN)
        model = QuadraticModel(1.0, np.zeros(4))
        w = np.array([0.5, -0.2, 0.1, 0.9])
        z = sphere_direction(99, 4)
        cs = zo_coefficient(model, w, None, z, 0.05, sphere.scale)
        cg = zo_coefficient(model, w, None, z, 0.05, gaussian.scale)
        assert cs == pytest.approx(4.0 * cg, rel=1e-12)

    def test_caller_w_untouched(self):
        model = QuadraticModel(1.0, np.zeros(64))
        w = RngStream(3).gaussians(64) * 0.4
        snapshot = w.copy()
        zo_coefficient(model, w, None, sphere_direction(5, 64), 1e-3, 64.0)
        assert np.array_equal(w, snapshot)

    def test_mu_independence_on_quadratic(self):
        # symmetric difference is exact on quadratics for every mu
        rng = np.random.default_rng(0)
        model = QuadraticModel(1.4, rng.normal(size=10))
        w = rng.normal(size=10)
        z = sphere_direction(12, 10)
        vals = [zo_coefficient(model, w, None, z, mu, 10.0) for mu in (1e-4, 1e-2, 0.3)]
        mu0 = 10.0 * (z @ model.grad(w))  # the engine's mu = 0 coefficient
        for v in vals:
            assert v == pytest.approx(mu0, rel=1e-9, abs=1e-11)

    def test_mu0_zero_gradient_gives_zero(self):
        # the engine's mu = 0 coefficients at the minimiser are exact zeros,
        # so w = w* = 0 never moves
        cfg = ExperimentConfig(model="quadratic", quad_dim=6, quad_lambda=2.0, clients=4,
                               alpha=0.0, mu=0.0, mu_zero=True, k=10, steps=3,
                               direction_mode="sphere", init="zeros")
        assert np.array_equal(run_cyber0(cfg).final_w, np.zeros(6))

    def test_logreg_halving_mu_shrinks_gap(self):
        # |mu>0 coefficient - mu=0 coefficient| = O(mu): Richardson-style check
        rng = np.random.default_rng(1)
        model = LogisticRegressionModel(input_dim=6, num_classes=3)
        X = rng.uniform(0, 1, size=(12, 6))
        y = rng.integers(0, 3, size=12)
        w = rng.normal(size=model.dimension) * 0.3
        d = model.dimension
        z = sphere_direction(77, d)
        exact = d * (z @ model.grad(w, (X, y)))
        gaps = []
        for mu in (1e-2, 5e-3, 2.5e-3):
            c = zo_coefficient(model, w, (X, y), z, mu, float(d))
            gaps.append(abs(c - exact))
        # the gap is O(mu^2) for central differences; demand at least O(mu)
        assert gaps[1] <= gaps[0] / 1.9 + 1e-12
        assert gaps[2] <= gaps[1] / 1.9 + 1e-12

    def test_nonfinite_loss_raises(self):
        class ExplodingModel:
            dimension = 3

            def eval(self, w, batch):
                return float("inf")

        with pytest.raises(NonFiniteLossError):
            zo_coefficient(ExplodingModel(), np.zeros(3), None, np.ones(3), 0.1, 3.0)

    def test_mu0_requires_mu0_config(self):
        # mu = 0 has no bracket: it takes the engine's projection path
        model = QuadraticModel(1.0, np.zeros(2))
        with pytest.raises(ValueError, match="mu > 0"):
            zo_coefficient(model, np.zeros(2), None, np.array([1.0, 0.0]), 0.0, 2.0)


class TestUnbiasedness:
    def test_sphere_mu0_estimator_mean_approximates_gradient(self):
        # Monte-Carlo mean of c_r z_r over 1e5 directions vs the true gradient
        d, n = 10, 100_000
        rng = np.random.default_rng(2)
        model = QuadraticModel(1.0, rng.normal(size=d))
        w = rng.normal(size=d)
        grad = model.grad(w)
        stream = RngStream(4242)
        g = stream.gaussians(n * d).reshape(n, d)
        g /= np.sqrt(np.einsum("nd,nd->n", g, g))[:, None]
        coeffs = d * (g @ grad)
        acc = (coeffs[:, None] * g).mean(axis=0)
        rel = np.linalg.norm(acc - grad) / np.linalg.norm(grad)
        assert rel < 0.03


class TestApplyUpdate:
    def test_zero_coefficients_no_change(self):
        directions = make_direction(direction_seed(9, 3, np.arange(4)), 32, DirectionMode.GAUSSIAN)
        w = RngStream(5).gaussians(32)
        before = w.copy()
        apply_update(w, np.zeros(4), directions, eta=0.1, step=3)
        assert np.array_equal(w, before)

    def test_k1_matches_dense_vector_arithmetic(self):
        w = RngStream(6).gaussians(50) * 0.2
        expected = w.copy()
        seed = direction_seed(11, 4, 0, 0)
        coeff = 0.37
        expected += (-(0.05 * coeff / 1)) * gaussian_reference(seed, 50)
        directions = make_direction(np.array([seed], dtype=np.uint64), 50, DirectionMode.GAUSSIAN)
        apply_update(w, np.array([coeff]), directions, eta=0.05, step=4)
        assert np.array_equal(w, expected)

    @pytest.mark.parametrize("cfg", [(DirectionMode.GAUSSIAN, gaussian_reference),
                                     (DirectionMode.SPHERE, sphere_direction)])
    def test_regenerated_block_matches_per_seed_replay(self, cfg):
        # the k directions come from one block call; the update must equal
        # k per-seed regenerations in ascending r
        mode, make = cfg
        w = RngStream(9).gaussians(300) * 0.3
        coeffs = RngStream(10).gaussians(8)
        expected = w.copy()
        for r in range(8):
            expected += -(0.02 * float(coeffs[r]) / 8) * make(direction_seed(21, 6, r, 1), 300)
        directions = make_direction(direction_seed(21, 6, np.arange(8), 1), 300, mode)
        apply_update(w, coeffs, directions, 0.02, 6)
        assert np.array_equal(w, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 70),
        d=st.integers(1, 600),
        eta=st.floats(1e-6, 10.0),
        seed=st.integers(0, 2**32),
        magnitude=st.sampled_from([1e-8, 1.0, 1e6]),
    )
    @example(k=16, d=1, eta=0.07, seed=3, magnitude=1.0)
    @example(k=64, d=16, eta=0.01, seed=4, magnitude=1e6)
    def test_update_equals_ascending_axpy_loop(self, k, d, eta, seed, magnitude):
        # d crosses 4k, so both the cumsum and the row-loop replay run; each
        # must add the k rows into w one at a time in ascending r
        directions = RngStream(seed).gaussians(k * d).reshape(k, d)
        coeffs = RngStream(seed + 1).gaussians(k) * magnitude  # signed
        w = RngStream(seed + 2).gaussians(d)
        expected = w.copy()
        for r in range(k):
            expected += -(eta * float(coeffs[r]) / k) * directions[r]
        apply_update(w, coeffs, directions, eta, 0)
        assert np.array_equal(w, expected)

    def test_rejects_nonfinite_and_wrong_length(self):
        w = np.zeros(8)
        directions = np.ones((2, 8))
        with pytest.raises(NonFiniteLossError):
            apply_update(w, np.array([1.0, np.nan]), directions, 0.1, 0)
        with pytest.raises(ValueError):
            apply_update(w, np.zeros(3), directions, 0.1, 0)
