from dataclasses import replace

import numpy as np
import pytest

from cyber0 import verify
from cyber0.seedstream import RngStream
from cyber0.verify import (
    CheckResult,
    TheoryParams,
    check_rate_factor,
    check_rate_factor_mu_positive,
    cross_bound_value,
    error_floor,
    mc_cross_abs_bound,
    mc_isotropy,
    mc_norm_factor,
    mean_square_trace,
    smoothed_gap_quadratic,
    step_ratio,
    _distance_trace,
    _theory_config,
)


class TestTheoryParams:
    def test_tau_mu_zero(self):
        p = TheoryParams(lam=1.0, l_smooth=1.0, d=16, k=16, mu=0.0)
        assert p.tau == pytest.approx(31 / 16)
        assert p.eta == pytest.approx(16 / 31)
        assert p.rate_bound == pytest.approx(1 - 16 / 62)

    def test_tau_mu_positive(self):
        p = TheoryParams(lam=1.0, l_smooth=1.0, d=16, k=16, mu=1e-3)
        assert p.tau == pytest.approx((32 + 15 * 5) / 16)
        assert p.eta == pytest.approx(1 / (2 * p.tau))
        assert p.rate_bound == pytest.approx(1 - p.lam / (2 * p.tau * (p.l_smooth + p.lam)))

    def test_tau_limits(self):
        assert TheoryParams(1, 1, d=50, k=1, mu=0.0).tau == 50.0
        big_k = TheoryParams(1, 1, d=8, k=100_000, mu=0.0).tau
        assert big_k == pytest.approx(1.0, abs=1e-3)


class TestIsotropy:
    def test_d1_exact(self):
        assert mc_isotropy(1, 500, seed=3) == (0.0, 1.0)

    def test_small_budget_estimate(self):
        dev, diag = mc_isotropy(10, 50_000, seed=4)
        assert dev < 0.01 and diag == pytest.approx(0.1)

    def test_seed_deterministic(self):
        assert mc_isotropy(6, 10_000, seed=5) == mc_isotropy(6, 10_000, seed=5)


class TestNormFactor:
    def test_d1_exact_for_all_k(self):
        x = np.array([1.7])
        for k in (1, 4, 32):
            assert mc_norm_factor(1, k, 2000, x, seed=6) == pytest.approx(1.0, abs=1e-12)

    def test_k1_matches_target(self):
        x = RngStream(1).gaussians(8)
        est = mc_norm_factor(8, 1, 50_000, x, seed=7)
        assert est == pytest.approx(8.0, rel=0.05)

    def test_target_formula(self):
        # the target of criterion 2 is tau at mu = 0, (d + k - 1) / k
        assert TheoryParams(1, 1, d=8, k=512, mu=0.0).tau == pytest.approx(519 / 512)
        assert TheoryParams(1, 1, d=10, k=1, mu=0.0).tau == 10.0


class TestCrossBound:
    def test_d1_boundary_equality(self):
        x = np.array([2.0])
        est = mc_cross_abs_bound(1, 3000, x, seed=8)
        assert est == pytest.approx(4.0, abs=1e-12)  # |z1 z2| (x z1)^2 = x^2
        assert cross_bound_value(1, x) == 4.0

    def test_homogeneity_in_x(self):
        x = RngStream(2).gaussians(6)
        a = mc_cross_abs_bound(6, 5000, x, seed=9)
        b = mc_cross_abs_bound(6, 5000, 3.0 * x, seed=9)
        assert b == pytest.approx(9.0 * a, rel=1e-12)

    def test_bound_holds_at_small_budget(self):
        x = RngStream(3).gaussians(16)
        est = mc_cross_abs_bound(16, 50_000, x, seed=10)
        assert est <= cross_bound_value(16, x)


class TestSmoothedGap:
    def test_mu_zero_gap_is_zero(self):
        assert smoothed_gap_quadratic(1.0, 0.0, 8, 1000, seed=11) == 0.0

    def test_matches_analytic_value(self):
        dev = smoothed_gap_quadratic(1.0, 0.1, 16, 50_000, seed=12)
        assert dev <= 0.05 * 0.005

    def test_independent_of_w(self):
        devs = [
            smoothed_gap_quadratic(1.0, 0.1, 16, 50_000, seed=13, dist=dist)
            for dist in (0.1, 0.5, 2.0)
        ]
        for dev in devs:
            assert dev <= 0.1 * 0.005


class TestContraction:
    def test_floor_shrinks_with_mu_small_budget(self):
        params = TheoryParams(lam=1.0, l_smooth=1.0, d=16, k=16, mu=1e-3)
        floors = {}
        for mu in (1e-3, 1e-4):
            cfg = _theory_config(replace(params, mu=mu), steps=900, seed=6000)
            floors[mu] = error_floor(cfg, n_seeds=3)
        assert floors[1e-3] / floors[1e-4] >= 5.0

    def test_floor_check_fails_when_the_floor_does_not_shrink(self, monkeypatch):
        # the negative control of criterion 6: the same floor at both mu
        monkeypatch.setattr(verify, "error_floor", lambda config, n_seeds: 1e-20)
        shrink, round_off = verify.check_floor_mu_positive()
        assert shrink.estimate == 1.0 and not shrink.passed and shrink.line().startswith("FAIL")
        assert round_off.passed

    @pytest.mark.parametrize("floors", [{1e-3: 1e-6, 1e-4: 1e-6}, {1e-3: 4e-4, 1e-4: 4e-5}],
                             ids=["1e-6", "forward_differences"])
    def test_floor_check_fails_when_the_floor_is_not_round_off(self, monkeypatch, floors):
        # forward differences' floors (about 4e-4 and 4e-5) shrink with mu
        # as central ones do, so only the round-off line catches them
        monkeypatch.setattr(verify, "error_floor", lambda config, n_seeds: floors[config.mu])
        shrink, round_off = verify.check_floor_mu_positive()
        assert shrink.passed == (floors[1e-3] >= 5 * floors[1e-4])
        assert round_off.estimate == floors[1e-3] and not round_off.passed
        assert round_off.line().startswith("FAIL  floor at round-off mu 1e-3, 1e-4")

    def test_distance_trace_deterministic(self):
        params = TheoryParams(lam=1.0, l_smooth=1.0, d=8, k=8, mu=0.0)
        cfg = _theory_config(params, steps=25, seed=123)
        trace = _distance_trace(cfg, 3)
        assert np.array_equal(trace, _distance_trace(cfg, 3))
        assert step_ratio(trace[:21]) < 1.0


class TestRateIdentity:
    """On the isotropic quadratic (lambda = 1, w* = 0) one epoch of k
    directions gives E||w'||^2 = (1 - 2 eta + eta^2 nu) ||w||^2 exactly, with
    nu = (d + k - 1) / k for sphere directions (c = d) and nu = (d + k + 1) / k
    for Gaussian ones (c = 1), for mu = 0 and, central differences being
    exact on a quadratic, for mu > 0; a round of E epochs multiplies E such
    factors. The estimate is the per-step ratio (M_T / M_0)^(1/T) of the seed
    mean M_t of ||w_t||^2 = 2 train_loss, which log row t + 1 holds, over 200
    seeds of 10 steps at eta = 1 / (2 nu). The tolerance is four standard
    deviations of the estimate over 15 disjoint sets of 200 seeds: sphere
    0.0024 at (d, k) = (16, 16) and 0.0010 at (64, 4), Gaussian 0.0020 at
    (16, 16) and 0.0008 at (64, 4), sphere with E = 2 0.0025 at (16, 16).
    The engine run at 0.7 eta or 1.3 eta misses the identity at eta by 7 to
    46 of those standard deviations."""

    # (d, k, mode, E) -> tolerance
    TOL = {(16, 16, "sphere", 1): 0.0096, (64, 4, "sphere", 1): 0.0040,
           (16, 16, "gaussian", 1): 0.0080, (64, 4, "gaussian", 1): 0.0032,
           (16, 16, "sphere", 2): 0.0100}
    SPHERE_16 = pytest.param(16, 16, 0.0, "sphere", 1, id="16-16-0.0")
    SPHERE_64 = pytest.param(64, 4, 1e-3, "sphere", 1, id="64-4-0.001")
    GAUSSIAN_16 = pytest.param(16, 16, 1e-3, "gaussian", 1, id="gaussian-16-16-0.001")
    TWO_EPOCHS = pytest.param(16, 16, 0.0, "sphere", 2, id="e2-16-16-0.0")

    @staticmethod
    def eta(d, k, mode):
        """1 / (2 nu), nu = (d + k - 1) / k (sphere) or (d + k + 1) / k."""
        return k / (2.0 * (d + k - 1 if mode == "sphere" else d + k + 1))

    @staticmethod
    def identity(d, k, eta, mode, epochs):
        nu = (d + k - 1 if mode == "sphere" else d + k + 1) / k
        return (1.0 - 2.0 * eta + eta**2 * nu) ** epochs

    @staticmethod
    def measured_ratio(d, k, mu, eta, mode, epochs, steps=10, n_seeds=200):
        params = TheoryParams(lam=1.0, l_smooth=1.0, d=d, k=k, mu=mu)
        cfg = replace(_theory_config(params, steps, 0), eta=eta, direction_mode=mode,
                      local_epochs=epochs)
        mean = mean_square_trace(cfg, n_seeds)  # seeds 0..n_seeds-1
        assert mean[0] == pytest.approx(1.0)  # init_radius = 1
        return step_ratio(mean)

    @pytest.mark.parametrize("d,k,mu,mode,epochs", [
        SPHERE_16, pytest.param(16, 16, 1e-3, "sphere", 1, id="16-16-0.001"), SPHERE_64,
        GAUSSIAN_16, pytest.param(64, 4, 1e-3, "gaussian", 1, id="gaussian-64-4-0.001"),
        TWO_EPOCHS])
    def test_per_step_ratio_matches_identity(self, d, k, mu, mode, epochs):
        eta = self.eta(d, k, mode)
        got = self.measured_ratio(d, k, mu, eta, mode, epochs)
        assert abs(got - self.identity(d, k, eta, mode, epochs)) <= self.TOL[d, k, mode, epochs]

    def test_factor_at_theory_step_size(self):
        # the run at TheoryParams.eta itself against a target from d and k
        # alone, so a wrong step size in TheoryParams misses it
        res = check_rate_factor()
        assert (res.target, res.tolerance) == (1.0 - 16 / 31, 4 * 0.0036)
        assert res.passed

    @pytest.mark.parametrize("factor", [0.7, 1.3])
    def test_rate_factor_check_fails_at_a_wrong_theory_step_size(self, monkeypatch, factor):
        eta = TheoryParams.eta
        monkeypatch.setattr(TheoryParams, "eta", property(lambda p: factor * eta.fget(p)))
        res = check_rate_factor()
        assert not res.passed and res.line().startswith("FAIL")

    def test_factor_at_mu_positive_theory_step_size(self):
        # the mu > 0 run at TheoryParams.eta against the identity at the mu > 0
        # step size k / (2 (2d + (k - 1)(1 + sqrt d))) = 16 / 214
        res = check_rate_factor_mu_positive()
        eta = 16 / 214
        assert res.target == pytest.approx(1 - 2 * eta + eta**2 * 31 / 16, rel=1e-15)
        assert round(res.target, 5) == 0.86130 and res.passed
        assert res.name == "rate factor at theory eta mu=0.001 d=16 k=16"

    @pytest.mark.parametrize("factor", [0.7, 1.3])
    def test_mu_positive_factor_check_fails_at_a_wrong_tau(self, monkeypatch, factor):
        # only the mu > 0 branch of tau is wrong: the mu = 0 check still passes
        tau = TheoryParams.tau
        monkeypatch.setattr(TheoryParams, "tau", property(
            lambda p: factor * tau.fget(p) if p.mu > 0 else tau.fget(p)))
        res = check_rate_factor_mu_positive()
        assert not res.passed and res.line().startswith("FAIL")
        assert check_rate_factor().passed

    @pytest.mark.parametrize("d,k,mu,mode,epochs", [SPHERE_16, SPHERE_64, GAUSSIAN_16, TWO_EPOCHS])
    @pytest.mark.parametrize("factor", [0.7, 1.3])
    def test_wrong_step_size_misses_identity(self, d, k, mu, mode, epochs, factor):
        # the negative control: the engine run at factor * eta, the identity at eta
        eta = self.eta(d, k, mode)
        got = self.measured_ratio(d, k, mu, factor * eta, mode, epochs)
        assert abs(got - self.identity(d, k, eta, mode, epochs)) > self.TOL[d, k, mode, epochs]


class TestCheckReports:
    def test_check_lines_mention_estimate_and_tolerance(self):
        res = CheckResult("demo", estimate=0.25, target=0.5, tolerance=0.01, passed=True,
                          detail="why")
        assert res.line() == "PASS  demo: estimate=0.25 target=0.5 tolerance=0.01  (why)"

    def test_checks_are_deterministic(self):
        x = RngStream(4).gaussians(8)
        for estimate in (lambda: mc_cross_abs_bound(8, 20_000, x, seed=11),
                         lambda: mc_norm_factor(4, 2, 5000, x[:4], seed=7)):
            assert estimate() == estimate()

    def test_failing_check_reports_fail(self):
        res = CheckResult("demo", estimate=1.0, target=0.0, tolerance=0.002, passed=False)
        assert res.line() == "FAIL  demo: estimate=1 target=0 tolerance=0.002"
