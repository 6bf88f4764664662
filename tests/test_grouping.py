import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raicarn.errors import DomainError
from raicarn.grouping import (
    GroupPlan,
    max_group_size,
    pair_probability,
    plan_groups,
    sample_groups,
)


def _exact_pair_probability(N, L):
    """Oracle: exact big-integer binomial ratio C(N-2, L-2) / C(N, L)."""
    return math.comb(N - 2, L - 2) / math.comb(N, L)


class TestPairProbability:
    def test_23_choose_5(self):
        # oracle: C(21, 3) / C(23, 5) = 1330 / 33649
        assert pair_probability(23, 5) == pytest.approx(1330 / 33649, abs=1e-15)

    def test_full_roster_certain(self):
        assert pair_probability(23, 23) == pytest.approx(1.0, abs=1e-15)

    def test_pairs_only(self):
        assert pair_probability(23, 2) == pytest.approx(1 / 253, abs=1e-15)

    def test_matches_exact_binomials(self):
        for N in (5, 10, 23, 60):
            for L in range(2, N + 1):
                assert pair_probability(N, L) == pytest.approx(
                    _exact_pair_probability(N, L), abs=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_probability(10, 1)
        with pytest.raises(DomainError):
            pair_probability(10, 11)


class TestMaxGroupSize:
    def test_23_at_5_percent(self):
        assert max_group_size(23, 0.05) == 5

    def test_infeasible(self):
        # P(2 of 4) = 1/6 > 0.01, no L works
        assert max_group_size(4, 0.01) is None

    def test_near_one_cap(self):
        # P(9 of 10) = 0.8 <= 0.999 < P(10 of 10) = 1.0
        assert max_group_size(10, 0.999) == 9

    def test_next_size_violates(self):
        for N, alpha in ((23, 0.05), (30, 0.1), (50, 0.02)):
            L = max_group_size(N, alpha)
            assert pair_probability(N, L) <= alpha
            if L < N:
                assert pair_probability(N, L + 1) > alpha


class TestSampleGroups:
    def test_full_roster(self):
        plan = sample_groups(6, 6, 4, seed=0)
        for g in plan.groups:
            assert sorted(g) == list(range(6))

    def test_distinct_members_in_range(self):
        plan = sample_groups(23, 5, 50, seed=1)
        assert len(plan.groups) == 50
        for g in plan.groups:
            assert len(set(g)) == 5 and min(g) >= 0 and max(g) < 23

    def test_deterministic(self):
        assert sample_groups(23, 5, 20, seed=7) == sample_groups(23, 5, 20, seed=7)

    def test_empirical_cooccurrence(self):
        # Monte-Carlo oracle for the closed form, K = 10000 groups
        plan = sample_groups(23, 5, 10_000, seed=2)
        hits = sum(1 for g in plan.groups if 0 in g and 1 in g)
        assert abs(hits / 10_000 - 1330 / 33649) < 0.005

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_groups(5, 6, 1, seed=0)
        with pytest.raises(DomainError):
            sample_groups(5, 3, 0, seed=0)


class TestGroupPlan:
    def test_sizes_are_read_off_the_groups(self):
        plan = GroupPlan(N=10, alpha_max=0.5, groups=((0, 1, 2), (3, 4, 5)))
        assert (plan.L, plan.K) == (3, 2)

    def test_rejects_unequal_group_sizes(self):
        with pytest.raises(DomainError, match="L = 3 distinct"):
            GroupPlan(N=10, alpha_max=0.5, groups=((0, 1, 2), (3, 4)))

    def test_rejects_no_groups(self):
        with pytest.raises(DomainError, match="at least one group"):
            GroupPlan(N=10, alpha_max=0.5, groups=())

    def test_rejects_repeated_subject(self):
        with pytest.raises(DomainError, match="distinct"):
            GroupPlan(N=10, alpha_max=0.5, groups=((0, 1, 1),))


class TestPlanGroups:
    def test_paper_setting(self):
        plan = plan_groups(23, 0.05, 50, seed=3)
        assert plan.L == 5 and plan.K == 50

    def test_infeasible_raises(self):
        with pytest.raises(DomainError):
            plan_groups(4, 0.01, 10, seed=0)

    def test_cap_recorded(self):
        plan = plan_groups(23, 0.05, 10, seed=4)
        assert plan.alpha_max == 0.05
        assert pair_probability(plan.N, plan.L) <= plan.alpha_max


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 100))
    def test_strictly_increasing_in_L(self, N):
        probs = [pair_probability(N, L) for L in range(2, N + 1)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 200))
    def test_closed_form_equals_binomial_ratio(self, N):
        L = np.random.default_rng(N).integers(2, N + 1)
        assert pair_probability(N, int(L)) == pytest.approx(
            _exact_pair_probability(N, int(L)), abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.floats(0.001, 0.999))
    def test_max_group_size_is_maximal(self, N, alpha):
        L = max_group_size(N, alpha)
        if L is None:
            assert pair_probability(N, 2) > alpha
        else:
            assert pair_probability(N, L) <= alpha
            if L < N:
                assert pair_probability(N, L + 1) > alpha
