import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyber0 import federation
from cyber0.adversary import (
    AttackKind,
    byzantine_value,
    flip_labels,
)
from cyber0.federation import ExperimentConfig
from cyber0.robust import coordwise_trimmed_mean
from cyber0.seedstream import StreamKind, derive_seed, derive_seeds
from test_robust import HUGE_BLOCKS, column_trimmed_mean

FK = AttackKind.FULL_KNOWLEDGE
SMALL = AttackKind.ALWAYS_SMALL
LARGE = AttackKind.ALWAYS_LARGE
RC = AttackKind.RANDOM_CHOICE
COEFFICIENT_ATTACKS = (FK, SMALL, LARGE, RC)


def reference_seed(root, step, sample, epoch=0):
    return derive_seed(root, step, sample, epoch, StreamKind.ADVERSARY)


def col(values):
    """One honest column: an (h, 1) block."""
    return np.asarray(values, dtype=np.float64)[:, None]


class TestFullKnowledge:
    def test_negative_mean_sends_largest(self):
        assert byzantine_value(FK, col([-3.0, -1.0, 2.0]), beta=0.25, m=4)[0] == 2.0

    def test_positive_mean_sends_smallest(self):
        assert byzantine_value(FK, col([1.0, 2.0, 3.0]), beta=0.25, m=4)[0] == 1.0

    def test_inert_on_constant_honest_values(self):
        # every attack submits the column's constant, which the trim keeps
        honest = np.tile([0.7, -2.5, 0.0], (9, 1))
        for kind in COEFFICIENT_ATTACKS:
            v = byzantine_value(kind, honest, 0.25, 12, rc_seeds=np.arange(3, dtype=np.uint64))
            assert np.array_equal(v, honest[0])
            agg = coordwise_trimmed_mean(np.vstack([honest, np.tile(v, (3, 1))]), 0.25)
            assert np.array_equal(agg, honest[0])

    def test_side_from_a_sum_past_float_range(self):
        # the honest sum 2 * 1.7e308 - 3 * 1.7e308 is negative: the large value
        honest = col([1.7e308] * 2 + [-1.7e308] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert byzantine_value(FK, honest, beta=0.0, m=6)[0] == 1.7e308
            assert byzantine_value(FK, -honest, beta=0.0, m=6)[0] == -1.7e308

    @settings(max_examples=80, deadline=None)
    @given(honest=HUGE_BLOCKS, beta=st.floats(0.0, 0.5, exclude_max=True))
    @example(honest=np.array([[1.7e308, 1.0]] * 2 + [[-1.7e308, -1.0]] * 3), beta=0.0)
    def test_side_at_a_power_of_two_scale(self, honest, beta):
        m = len(honest)
        want = np.ldexp(byzantine_value(FK, np.ldexp(honest, -8), beta, m), 8)
        assert np.array_equal(byzantine_value(FK, honest, beta, m), want)

    def test_order_statistic_index(self):
        # m=16, beta=0.25 -> 4th smallest / largest, per column
        honest = np.arange(12.0)
        v = byzantine_value(FK, np.column_stack([honest, -honest]), beta=0.25, m=16)
        assert v.tolist() == [3.0, -3.0]  # mean >= 0 sends the small one, < 0 the large

    def test_empty_honest_rejected(self):
        with pytest.raises(ValueError):
            byzantine_value(FK, np.empty((0, 3)), beta=0.25, m=4)
        with pytest.raises(ValueError):  # one direction's values, not a block
            byzantine_value(FK, [1.0, 2.0], beta=0.25, m=4)

    @pytest.mark.parametrize("kind", COEFFICIENT_ATTACKS)
    @pytest.mark.parametrize("h,m,j", [(2, 40, 10), (2, 12, 3)])
    def test_missing_order_statistic_rejected(self, kind, h, m, j):
        # j = floor(beta m) > h, far past h and at h + 1: no j-th smallest
        # or largest honest value
        seeds = np.arange(3, dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"j = {j} .* h = {h}$"):
            byzantine_value(kind, np.zeros((h, 3)), beta=0.25, m=m, rc_seeds=seeds)

    def test_kind_and_seeds_checked(self):
        with pytest.raises(ValueError):
            byzantine_value(AttackKind.LABEL_FLIPPING, col([1.0]), beta=0.25, m=4)
        with pytest.raises(ValueError):
            byzantine_value(RC, col([1.0]), beta=0.25, m=4)

    @pytest.mark.parametrize("seeds", [1, 2])
    def test_random_choice_needs_one_seed_per_column(self, seeds):
        # one seed would broadcast over the 4 columns, two would not broadcast
        honest = np.tile(np.arange(4.0), (3, 1))
        with pytest.raises(ValueError, match=f"got {seeds} seeds for 4 columns$"):
            byzantine_value(RC, honest, beta=0.25, m=4, rc_seeds=np.arange(seeds, dtype=np.uint64))


class TestOtherCoefficientAttacks:
    def test_always_small_large_hand_trace(self):
        assert byzantine_value(SMALL, col([5.0, 6.0, 7.0]), beta=0.25, m=4)[0] == 5.0
        assert byzantine_value(LARGE, col([5.0, 6.0, 7.0]), beta=0.25, m=4)[0] == 7.0

    def test_single_honest_value(self):
        honest = np.array([[4.25, -1.5]])
        for kind in COEFFICIENT_ATTACKS:
            v = byzantine_value(kind, honest, beta=0.25, m=4, rc_seeds=np.array([1, 2], np.uint64))
            assert np.array_equal(v, honest[0])

    def test_random_choice_frequency(self):
        # 10,000 directions of the same honest column, one seed per step
        honest = np.tile(col([1.0, 2.0, 3.0]), (1, 10_000))
        seeds = derive_seeds(5, np.arange(10_000), 0, 0, StreamKind.ADVERSARY)
        picks = byzantine_value(RC, honest, beta=0.25, m=4, rc_seeds=seeds)
        assert {1.0, 3.0} == set(picks.tolist())
        assert abs(np.mean(picks == 1.0) - 0.5) < 0.02

    def test_random_choice_deterministic_per_seed(self):
        honest = col([1.0, 2.0, 3.0])
        s = derive_seeds(5, 3, [2], 0, StreamKind.ADVERSARY)
        assert byzantine_value(RC, honest, 0.25, 4, s) == byzantine_value(RC, honest, 0.25, 4, s)

    def test_degenerate_trim_count_uses_extreme(self):
        # beta m < 1: fall back to the 1st order statistic
        assert byzantine_value(SMALL, col([9.0, 4.0, 6.0]), beta=0.1, m=3)[0] == 4.0
        assert byzantine_value(LARGE, col([9.0, 4.0, 6.0]), beta=0.1, m=3)[0] == 9.0

    def test_collusion_single_value_per_direction(self):
        # the engine writes one colluding row, the oracle's, into every
        # Byzantine row; column e*k + r draws on adversary seed (step, r, e)
        seeds = np.array([reference_seed(11, 6, c % 4, c // 4) for c in range(8)], np.uint64)
        before = np.random.default_rng(0).normal(size=(8, 8))
        for kind in COEFFICIENT_ATTACKS:
            cfg = ExperimentConfig(synth_samples=240, clients=8, alpha=0.375, beta=0.375, k=4,
                                   local_epochs=2, attack=kind.value, root_seed=11)
            setup = federation._Setup(cfg)
            matrix = before.copy()
            federation._substitute_byzantine(setup, matrix, 6)
            want = byzantine_value(kind, before[:5], 0.375, 8, seeds)
            assert setup.honest == 5
            assert np.array_equal(matrix[5:], np.tile(want, (3, 1)))
            assert np.array_equal(matrix[:5], before[:5])

    @pytest.mark.parametrize("kind", COEFFICIENT_ATTACKS)
    def test_block_matches_per_column(self, kind):
        rng = np.random.default_rng(3)
        honest = rng.normal(size=(9, 40))
        honest[:, :5] = rng.integers(-2, 3, size=(9, 5))  # ties and zero sums
        seeds = derive_seeds(5, 3, np.arange(40), 0, StreamKind.ADVERSARY)
        row = byzantine_value(kind, honest, beta=0.25, m=12, rc_seeds=seeds)
        assert row.shape == (40,)
        for c in range(40):
            assert seeds[c] == reference_seed(5, 3, c)
            one = byzantine_value(kind, honest[:, [c]], beta=0.25, m=12, rc_seeds=seeds[[c]])
            assert row[c] == one[0]


class TestLabelFlip:
    def test_endpoints(self):
        labels = np.array([0, 9, 4])
        assert np.array_equal(flip_labels(labels, 10), [9, 0, 5])

    def test_involution(self):
        labels = np.arange(10)
        assert np.array_equal(flip_labels(flip_labels(labels, 10), 10), labels)

    def test_histogram_reversed(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=5000)
        before = np.bincount(labels, minlength=10)
        after = np.bincount(flip_labels(labels, 10), minlength=10)
        assert np.array_equal(after, before[::-1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_labels(np.array([10]), 10)


class TestAttackSpec:
    """The attack's client roles, which federation._Setup holds as counts:
    clients 0..honest-1 are honest and 0..computing-1 compute; a
    coefficient attack's Byzantine clients do not compute, label
    flipping's do."""

    @staticmethod
    def setup(**overrides):
        return federation._Setup(ExperimentConfig(synth_samples=400, **overrides))

    def test_byzantine_ids_are_last_indices(self):
        fk = self.setup(clients=12, alpha=0.25, attack="full_knowledge")
        assert (fk.honest, fk.computing) == (9, 9)
        flip = self.setup(clients=12, alpha=0.25, attack="label_flip")
        assert (flip.honest, flip.computing) == (9, 12)

    def test_alpha_floor(self):
        assert self.setup(clients=40, alpha=0.375).honest == 25


class TestAttackTrimInterplay:
    """Closed-form survivor arithmetic for the attacked trimmed mean."""

    def test_small_alpha_pulls_toward_low_order_statistic(self):
        # m=40, alpha=beta=0.125: five colluders duplicate the 5th smallest
        # honest value; survivors are 5 copies of h_(5) plus h_(6..30)
        honest = np.arange(1.0, 36.0)
        v = byzantine_value(FK, col(honest), beta=0.125, m=40)[0]
        assert v == 5.0
        agg = column_trimmed_mean(np.concatenate([honest, [v] * 5]), 0.125)
        assert agg == (5 * 5.0 + sum(range(6, 31))) / 30

    def test_large_alpha_collapses_to_single_order_statistic(self):
        # m=40, alpha=beta=0.375: survivors are exactly ten copies of h_(15)
        honest = np.arange(1.0, 26.0)
        v = byzantine_value(FK, col(honest), beta=0.375, m=40)[0]
        assert v == 15.0
        agg = column_trimmed_mean(np.concatenate([honest, [v] * 15]), 0.375)
        assert agg == 15.0

    def test_attacked_aggregate_stays_in_honest_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(4, 41))
            beta = float(rng.choice([0.125, 0.25, 0.375, 0.45]))
            n_byz = int(np.floor(beta * m))
            honest = rng.normal(size=(m - n_byz, 8))
            v = byzantine_value(FK, honest, beta, m)
            agg = coordwise_trimmed_mean(np.vstack([honest, np.tile(v, (n_byz, 1))]), beta)
            assert np.all(honest.min(axis=0) <= agg) and np.all(agg <= honest.max(axis=0))
