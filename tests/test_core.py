import math
import warnings

import numpy as np
import pytest

from cyber0.federation import project_ball


class TestProjectBall:
    def test_inside_unchanged(self):
        w = np.array([0.3, 0.4])
        assert project_ball(w, 1.0) is w

    def test_outside_scaled(self):
        out = project_ball(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_overflowing_norm(self):
        # finite w whose squared norm overflows float64
        with np.errstate(over="ignore"):
            out = project_ball(np.array([3e200, 4e200]), 1.0)
            assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)
            assert np.linalg.norm(out) <= 1.0
            big = np.array([1.7e308, -1.7e308, 1e300])
            assert np.allclose(project_ball(big, 2.0), [np.sqrt(2), -np.sqrt(2), 0.0])
            inside = np.array([3e160])
            assert project_ball(inside, 1e200) is inside

    def test_overflowing_norm_warns_nothing(self):
        # the projection's norms are einsum sums, which raise no overflow
        # warning where BLAS's dot does: the same vectors, warnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_ball(np.array([3e200, 4e200]), 1.0)
            assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)
            big = np.array([1.7e308, -1.7e308, 1e300])
            assert np.allclose(project_ball(big, 2.0), [np.sqrt(2), -np.sqrt(2), 0.0])
            inside = np.array([3e160])
            assert project_ball(inside, 1e200) is inside

    def test_zero_fixed_point(self):
        z = np.zeros(5)
        assert np.array_equal(project_ball(z, 0.25), z)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = rng.normal(size=rng.integers(1, 30)) * rng.choice([1e-3, 1.0, 1e3])
            r = float(rng.uniform(0.1, 2.0))
            once = project_ball(w, r)
            assert np.array_equal(project_ball(once, r), once)

    def test_norm_bound(self):
        rng = np.random.default_rng(4)
        eps = np.finfo(float).eps
        for _ in range(500):
            w = rng.normal(size=rng.integers(1, 50)) * 10 ** rng.uniform(-6, 6)
            r = float(10 ** rng.uniform(-3, 3))
            assert np.linalg.norm(project_ball(w, r)) <= r * (1 + 4 * eps)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_ball(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            project_ball(np.array([1.0]), 0.0)

    def test_rejects_a_nan_radius(self):
        # NaN <= 0 is False: a NaN radius would project every w to NaN
        with pytest.raises(ValueError, match="radius"):
            project_ball(np.array([3.0, 4.0]), math.nan)
