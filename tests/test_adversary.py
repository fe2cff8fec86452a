import numpy as np
import pytest

from cyber0.adversary import (
    AttackKind,
    AttackSpec,
    adversary_seed,
    always_large,
    always_small,
    byzantine_value,
    flip_labels,
    full_knowledge,
    random_choice,
)
from cyber0.robust import trimmed_mean


class TestFullKnowledge:
    def test_negative_mean_sends_largest(self):
        assert full_knowledge([-3.0, -1.0, 2.0], beta=0.25, m=4) == 2.0

    def test_positive_mean_sends_smallest(self):
        assert full_knowledge([1.0, 2.0, 3.0], beta=0.25, m=4) == 1.0

    def test_inert_on_constant_honest_values(self):
        honest = [0.7] * 9
        v = full_knowledge(honest, beta=0.25, m=12)
        assert v == 0.7
        assert trimmed_mean(honest + [v] * 3, 0.25) == 0.7

    def test_order_statistic_index(self):
        # m=16, beta=0.25 -> 4th smallest / largest
        honest = list(range(12))
        assert full_knowledge(honest, beta=0.25, m=16) == 3.0  # mean >= 0
        assert full_knowledge([-v for v in honest], beta=0.25, m=16) == -3.0

    def test_empty_honest_rejected(self):
        with pytest.raises(ValueError):
            full_knowledge([], beta=0.25, m=4)


class TestOtherCoefficientAttacks:
    def test_always_small_large_hand_trace(self):
        assert always_small([5.0, 6.0, 7.0], beta=0.25, m=4) == 5.0
        assert always_large([5.0, 6.0, 7.0], beta=0.25, m=4) == 7.0

    def test_single_honest_value(self):
        for fn in (always_small, always_large):
            assert fn([4.25], beta=0.25, m=4) == 4.25
        assert full_knowledge([4.25], beta=0.25, m=4) == 4.25
        assert random_choice([4.25], beta=0.25, m=4, seed=1) == 4.25

    def test_random_choice_frequency(self):
        honest = [1.0, 2.0, 3.0]
        picks = [
            random_choice(honest, beta=0.25, m=4, seed=adversary_seed(5, t, 0))
            for t in range(10_000)
        ]
        small = sum(1 for p in picks if p == 1.0)
        assert {1.0, 3.0} == set(picks)
        assert abs(small / 10_000 - 0.5) < 0.02

    def test_random_choice_deterministic_per_seed(self):
        honest = [1.0, 2.0, 3.0]
        s = adversary_seed(5, 3, 2)
        assert random_choice(honest, 0.25, 4, s) == random_choice(honest, 0.25, 4, s)

    def test_degenerate_trim_count_uses_extreme(self):
        # beta m < 1: fall back to the 1st order statistic
        assert always_small([9.0, 4.0, 6.0], beta=0.1, m=3) == 4.0
        assert always_large([9.0, 4.0, 6.0], beta=0.1, m=3) == 9.0

    def test_collusion_single_value_per_direction(self):
        honest = np.array([0.3, -0.5, 1.2, 0.9])
        for kind in (AttackKind.FULL_KNOWLEDGE, AttackKind.ALWAYS_SMALL,
                     AttackKind.ALWAYS_LARGE, AttackKind.RANDOM_CHOICE):
            v1 = byzantine_value(kind, honest, 0.25, 8, rc_seed=7)
            v2 = byzantine_value(kind, honest, 0.25, 8, rc_seed=7)
            assert v1 == v2  # all Byzantine clients submit this same value


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
    def test_byzantine_ids_are_last_indices(self):
        spec = AttackSpec.build(AttackKind.FULL_KNOWLEDGE, m=12, alpha=0.25)
        assert spec.byzantine_ids == frozenset({9, 10, 11})

    def test_alpha_floor(self):
        spec = AttackSpec.build(AttackKind.NONE, m=40, alpha=0.375)
        assert len(spec.byzantine_ids) == 15

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            AttackSpec.build(AttackKind.NONE, m=4, alpha=0.5)


class TestAttackTrimInterplay:
    """Closed-form survivor arithmetic for the attacked trimmed mean."""

    def test_small_alpha_pulls_toward_low_order_statistic(self):
        # m=40, alpha=beta=0.125: five colluders duplicate the 5th smallest
        # honest value; survivors are 5 copies of h_(5) plus h_(6..30)
        honest = np.arange(1.0, 36.0)
        v = full_knowledge(honest, beta=0.125, m=40)
        assert v == 5.0
        agg = trimmed_mean(np.concatenate([honest, [v] * 5]), 0.125)
        assert agg == (5 * 5.0 + sum(range(6, 31))) / 30

    def test_large_alpha_collapses_to_single_order_statistic(self):
        # m=40, alpha=beta=0.375: survivors are exactly ten copies of h_(15)
        honest = np.arange(1.0, 26.0)
        v = full_knowledge(honest, beta=0.375, m=40)
        assert v == 15.0
        agg = trimmed_mean(np.concatenate([honest, [v] * 15]), 0.375)
        assert agg == 15.0

    def test_attacked_aggregate_stays_in_honest_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(4, 41))
            beta = float(rng.choice([0.125, 0.25, 0.375, 0.45]))
            n_byz = int(np.floor(beta * m))
            honest = rng.normal(size=m - n_byz)
            if len(honest) == 0:
                continue
            v = full_knowledge(honest, beta, m)
            agg = trimmed_mean(np.concatenate([honest, [v] * n_byz]), beta)
            assert honest.min() <= agg <= honest.max()
