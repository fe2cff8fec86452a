import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyber0 import federation
from cyber0.adversary import AttackKind
from cyber0.federation import ExperimentConfig, run_experiment
from cyber0.robust import (
    AggregationError,
    coordwise_trimmed_mean,
    trim_count,
)


def column_trimmed_mean(values, beta):
    """The trimmed mean of one multiset, as the aggregators take it: one
    column through ``coordwise_trimmed_mean``."""
    return float(coordwise_trimmed_mean(np.asarray(values, dtype=np.float64)[:, None], beta)[0])


def brute_trimmed_mean(values, beta):
    """Sort-based oracle written independently of the library routine."""
    xs = sorted(float(v) for v in values)
    g = int(np.floor(beta * len(xs)))
    kept = xs[g : len(xs) - g]
    if kept[0] == kept[-1]:  # constant survivors: the mean is exactly that value
        return kept[0]
    return sum(kept) / len(kept)


class TestTrimmedMean:
    def test_hand_trace(self):
        assert column_trimmed_mean([1.0, 2.0, 3.0, 1000.0], 0.25) == 2.5

    def test_beta_zero_is_plain_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 40))
            assert column_trimmed_mean(x, 0.0) == pytest.approx(np.mean(x), rel=1e-14)

    def test_constant_multiset(self):
        for beta in (0.0, 0.1, 0.25, 0.49):
            assert column_trimmed_mean([3.25] * 9, beta) == 3.25

    def test_brute_force_equivalence_10k_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            m = int(rng.integers(1, 25))
            beta = float(rng.uniform(0, 0.5))
            if m - 2 * int(np.floor(beta * m)) < 1:
                continue
            x = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
            assert column_trimmed_mean(x, beta) == brute_trimmed_mean(x, beta)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=12)
        base = column_trimmed_mean(x, 0.25)
        for _ in range(20):
            assert column_trimmed_mean(rng.permutation(x), 0.25) == base

    def test_containment(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(3, 30))
            beta = float(rng.uniform(0, 0.5))
            g = int(np.floor(beta * m))
            if m - 2 * g < 1:
                continue
            x = np.sort(rng.normal(size=m))
            v = column_trimmed_mean(x, beta)
            assert x[g] <= v <= x[m - g - 1]

    def test_breakdown_with_huge_values(self):
        # floor(alpha m) <= floor(beta m) attackers at 1e300 stay trimmed away
        honest = np.array([0.5, -0.2, 0.1, 0.3, -0.4, 0.2, 0.0, -0.1, 0.15])
        attackers = np.full(3, 1e300)
        allv = np.concatenate([honest, attackers])
        v = column_trimmed_mean(allv, 0.25)  # m=12, trims 3 per side
        assert honest.min() <= v <= honest.max()
        v2 = column_trimmed_mean(np.concatenate([honest, -attackers]), 0.25)
        assert honest.min() <= v2 <= honest.max()

    def test_invalid_inputs(self):
        with pytest.raises(AggregationError):
            column_trimmed_mean([1.0, 2.0], 0.5)
        with pytest.raises(AggregationError):
            column_trimmed_mean([1.0, 2.0], -0.1)
        with pytest.raises(AggregationError):
            column_trimmed_mean([], 0.0)

    def test_survivors_always_remain_for_valid_beta(self):
        # beta < 1/2 implies floor(beta m) < m/2, so trimming never empties
        for m in range(1, 30):
            for beta in (0.0, 0.1, 0.25, 0.4, 0.49):
                assert m - 2 * int(np.floor(beta * m)) >= 1


# (m, n) blocks of integers times 2**e, large and moderate, never subnormal:
# their columns' sums overflow at large e, and 2**-8 rescales them exactly
HUGE_BLOCKS = st.integers(1, 40).flatmap(lambda m: st.lists(
    st.lists(st.builds(np.ldexp, st.integers(-2**52, 2**52), st.sampled_from([-60, 0, 971, 971])),
             min_size=m, max_size=m),
    min_size=1, max_size=4).map(lambda cols: np.array(cols, dtype=np.float64).T))


class TestOverflow:
    """Finite values whose sum passes the float range still have a finite
    trimmed mean."""

    def test_sum_past_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert column_trimmed_mean([1e308, 1.5e308], 0.0) == 1.25e308
            # a running sum that overflows midway and comes back in range
            assert column_trimmed_mean([1.7e308, 1.7e308, -1.7e308], 0.0) == 1.7e308 / 3

    def test_non_finite_columns_stay_non_finite(self):
        with np.errstate(invalid="ignore"):  # inf - inf
            out = coordwise_trimmed_mean([[np.inf, 1e308, np.inf], [1.0, 1.5e308, -np.inf]], 0.0)
        assert out[0] == np.inf and out[1] == 1.25e308 and np.isnan(out[2])

    @settings(max_examples=80, deadline=None)
    @given(block=HUGE_BLOCKS, beta=st.floats(0.0, 0.5, exclude_max=True))
    @example(block=np.array([[1.7e308, 1.0], [1.7e308, 2.0], [-1.7e308, 3.0]]), beta=0.0)
    def test_equals_the_mean_at_a_power_of_two_scale(self, block, beta):
        # 2**8 > m: the scaled sums stay in range, and every column, whether
        # its sum overflows or not, gets the bits of the scaled route
        want = np.ldexp(coordwise_trimmed_mean(np.ldexp(block, -8), beta), 8)
        assert np.array_equal(coordwise_trimmed_mean(block, beta), want)


class TestDirectionAggregate:
    def test_per_column_hand_trace(self):
        M = np.array([[1.0, -1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 2.0]])
        agg = coordwise_trimmed_mean(M, 0.25)
        assert np.array_equal(agg, [2.5, 0.5])

    def test_beta_zero_column_means(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 7))
        agg = coordwise_trimmed_mean(M, 0.0)
        assert np.allclose(agg, M.mean(axis=0), rtol=1e-14)

    def test_matches_scalar_routine_bitwise(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(11, 9))
        agg = coordwise_trimmed_mean(M, 0.2)
        for col in range(9):
            assert agg[col] == column_trimmed_mean(M[:, col], 0.2)

    def test_client_order_irrelevant(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(8, 4))
        a = coordwise_trimmed_mean(M, 0.25)
        b = coordwise_trimmed_mean(M[::-1], 0.25)
        assert np.array_equal(a, b)

    def test_byzantine_containment_per_column(self):
        rng = np.random.default_rng(7)
        honest = rng.normal(size=(9, 6))
        bad = np.full((3, 6), -1e300)
        M = np.concatenate([honest, bad])
        agg = coordwise_trimmed_mean(M, 0.25)
        assert np.all(agg >= honest.min(axis=0)) and np.all(agg <= honest.max(axis=0))

    @pytest.mark.parametrize("shape", [(40, 64), (9, 1), (24, 1), (40, 1)])
    @pytest.mark.parametrize("beta", [0.0, 0.125, 0.25])
    def test_ascending_sum_at_engine_shapes(self, shape, beta):
        # byz_m40's (40, 64) coefficient block and single-direction blocks;
        # an (m, 1) column is contiguous, so a pairwise np.add.reduce / np.sum
        # would round differently from the ascending sum of the oracle
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + int(beta * 1000))
        for _ in range(40):
            M = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            agg = coordwise_trimmed_mean(M, beta)
            for col in range(shape[1]):
                assert agg[col] == column_trimmed_mean(M[:, col], beta)
                assert agg[col] == brute_trimmed_mean(M[:, col], beta)

    def test_mismatched_counts_rejected(self):
        # rows of differing lengths do not form a matrix
        with pytest.raises(ValueError):
            coordwise_trimmed_mean([np.zeros(3), np.zeros(4)], 0.0)
        with pytest.raises(AggregationError):
            coordwise_trimmed_mean(np.zeros(3), 0.0)


class TestCoordwise:
    def test_d1_reduces_to_scalar(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(9, 1))
        assert coordwise_trimmed_mean(x, 0.2)[0] == brute_trimmed_mean(x[:, 0], 0.2)

    def test_identical_gradients_pass_through(self):
        g = np.linspace(-1, 1, 13)
        grads = np.tile(g, (7, 1))
        assert np.array_equal(coordwise_trimmed_mean(grads, 0.25), g)

    def test_brute_force_per_coordinate(self):
        rng = np.random.default_rng(9)
        grads = rng.normal(size=(4, 30))
        out = coordwise_trimmed_mean(grads, 0.25)
        for j in range(30):
            assert out[j] == brute_trimmed_mean(grads[:, j], 0.25)

    def test_single_client_identity(self):
        g = np.array([[1.0, -2.0, 3.0]])
        for beta in (0.0, 0.25):
            assert np.array_equal(coordwise_trimmed_mean(g, beta), g[0])


class TestBroadcastRow:
    """m clients that all report one row: the data-free round takes that row
    as its aggregate without the matrix, the oracle or the trim."""

    @settings(max_examples=60, deadline=None)
    @given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=8),
           beta=st.floats(0.0, 0.5, exclude_max=True))
    @example(row=[1.0 + 2.0**-52, -(1.0 + 2.0**-52)], beta=0.0)  # the m-fold sum rounds
    @example(row=[1e308, -1e308, 5e-324], beta=0.25)  # the m-fold sum overflows
    @example(row=[-0.0, 0.0], beta=0.0)
    def test_trimmed_mean_of_copies_is_the_row(self, row, beta):
        row = np.array(row)
        for m in range(1, 41):
            # every trim count of m rows, then the drawn beta
            betas = [g / m + 1e-9 for g in range((m - 1) // 2 + 1)] + [beta]
            assert sorted({trim_count(b, m) for b in betas[:-1]}) == list(range((m - 1) // 2 + 1))
            for b in betas:
                out = coordwise_trimmed_mean(np.broadcast_to(row, (m, len(row))), b)
                assert np.array_equal(out.view(np.int64), row.view(np.int64))

    @pytest.mark.parametrize("algorithm,attack",
                             [("cyber0", kind.value) for kind in AttackKind]
                             + [("fedavg", "none"), ("fedavg", "label_flip")])
    def test_data_free_round_skips_oracle_and_trim(self, monkeypatch, algorithm, attack):
        # under a coefficient attack too: the colluding row is an order
        # statistic of copies of the one honest row, so it is that row
        cfg = ExperimentConfig(model="quadratic", quad_dim=12, clients=4, alpha=0.25, beta=0.25,
                               k=6, eta=0.3, steps=5, direction_mode="sphere", attack=attack,
                               algorithm=algorithm, init_radius=1.0, root_seed=5)
        calls = {"byzantine_value": 0, "robust_direction_aggregate": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(federation, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(federation, name, counted)
        run_experiment(cfg)
        assert calls == {"byzantine_value": 0, "robust_direction_aggregate": 0}
