import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raicarn.errors import InvalidPermutationError
from raicarn.null import (
    NullConfig,
    null_distribution,
    p_values,
    permute_crcm,
    run_raicar_n,
    select_significant,
)
from raicarn.raicar import compute_crcm, match_components
from raicarn.synth import PlantSpec, planted_runset
from raicarn.types import Crcm, RunCollection


def _random_rc(K, n_C, n, seed):
    rng = np.random.default_rng(seed)
    return RunCollection(rng.standard_normal((K, n_C, n)))


def _relabeled(rc, g):
    """RunCollection whose pseudo-run r, slot c holds flat map g[r*n_C+c]."""
    flat = rc.flat_maps()[np.asarray(g)]
    return RunCollection(flat.reshape(rc.K, rc.n_C, rc.n))


class TestPermuteCrcm:
    def test_identity_keeps_zero_blocks(self):
        G = compute_crcm(_random_rc(3, 2, 40, seed=0))
        Gp = permute_crcm(G, np.arange(6))
        np.testing.assert_array_equal(Gp.matrix, G.matrix)
        for r in range(3):
            assert not Gp.block(r, r).any()

    def test_within_run_swap_preserves_entry_multiset(self):
        G = compute_crcm(_random_rc(3, 2, 40, seed=1))
        g = np.arange(6)
        g[[0, 1]] = g[[1, 0]]  # swap two components of run 0
        Gp = permute_crcm(G, g)
        assert Counter(np.round(G.matrix.ravel(), 12)) == Counter(
            np.round(Gp.matrix.ravel(), 12)
        )

    def test_cross_run_move_exposes_within_run_correlation(self):
        # oracle: recompute the correlation matrix on the relabeled maps
        rc = _random_rc(2, 2, 50, seed=2)
        g = np.array([0, 2, 1, 3])  # maps (0,1) and (1,0) change runs
        Gp = permute_crcm(compute_crcm(rc), g)
        G_direct = compute_crcm(_relabeled(rc, g))
        np.testing.assert_allclose(Gp.matrix, G_direct.matrix, atol=1e-12)
        # the formerly-zeroed within-run pair (0,0)-(0,1) is now visible
        assert Gp.matrix[0, 2] > 0.0 or G_direct.matrix[0, 2] == 0.0

    def test_invalid_permutation(self):
        G = compute_crcm(_random_rc(2, 2, 30, seed=3))
        with pytest.raises(InvalidPermutationError):
            permute_crcm(G, [0, 0, 1, 2])


class TestNullDistribution:
    def test_deterministic(self):
        rc = _random_rc(3, 3, 60, seed=4)
        G = compute_crcm(rc)
        cfg = NullConfig(R=2, seed=9)
        a = null_distribution(rc, G, cfg)
        b = null_distribution(rc, G, cfg)
        assert a.tobytes() == b.tobytes()

    def test_threaded_matches_serial(self):
        rc = _random_rc(3, 3, 60, seed=5)
        G = compute_crcm(rc)
        cfg = NullConfig(R=8, seed=1)
        assert (
            null_distribution(rc, G, cfg, threads=4).tobytes()
            == null_distribution(rc, G, cfg).tobytes()
        )

    def test_pool_length(self):
        rc = _random_rc(2, 4, 50, seed=6)
        G = compute_crcm(rc)
        pool = null_distribution(rc, G, NullConfig(R=5, seed=0))
        assert pool.shape == (20,)
        assert ((0.0 <= pool) & (pool <= 1.0)).all()

    def test_h0_null_matches_observed_level(self):
        # under pure noise, observed and null reproducibility are
        # exchangeable up to matching bias
        rc = _random_rc(10, 10, 1000, seed=7)
        G = compute_crcm(rc)
        from raicarn.raicar import match_and_score

        matched = match_and_score(rc, G)
        obs_mean = np.mean([mc.reproducibility for mc in matched])
        pool = null_distribution(rc, G, NullConfig(R=50, seed=0))
        assert abs(pool.mean() - obs_mean) < 0.02

    def test_identity_replicate_scores_like_observed(self):
        # the null and the observed pass share one scoring path, so the
        # identity relabeling reproduces the observed values bit for bit
        from raicarn.raicar import match_and_score, normalized_reproducibility, similarity_matrix

        rc = _random_rc(5, 4, 80, seed=13)
        G = compute_crcm(rc)
        Gp = permute_crcm(G, np.arange(20))
        matched = match_components(Gp)
        null_vals = normalized_reproducibility(similarity_matrix(Gp, [m for m, _ in matched]))
        observed = match_and_score(rc, G)
        assert list(null_vals) == [mc.reproducibility for mc in observed]

    def test_pool_digest_is_pinned(self):
        # entries are multiples of 1/4: the pool has exact ties and exact
        # sums, so any change to the greedy matcher's tie rules (anchor
        # choice, column side winning ties, lowest-index fallback) or to
        # the replicate RNG changes these bytes
        rng = np.random.default_rng(2248)
        U = np.round(rng.uniform(-1, 1, (30, 30)) * 4) / 4
        S = np.triu(U, 1)
        pool = null_distribution(None, Crcm(6, 5, S + S.T), NullConfig(R=200, seed=7))
        assert hashlib.sha256(pool.tobytes()).hexdigest() == (
            "6726a309ccee31ca5e38546eba513737536b62b26b55373256b647c5566b12c8"
        )


class TestPValues:
    def test_observed_above_all(self):
        null = np.linspace(0.1, 0.5, 200)
        assert p_values([0.9], null)[0] == pytest.approx(1.0 / 201.0)

    def test_observed_below_all(self):
        null = np.linspace(0.1, 0.5, 200)
        assert p_values([0.05], null)[0] == pytest.approx(1.0)

    def test_hand_counted(self):
        # oracle: direct count, 2 of 4 null values >= 0.5
        assert p_values([0.5], [0.2, 0.4, 0.6, 0.8])[0] == pytest.approx(0.6)

    def test_ties_count_as_ge(self):
        assert p_values([0.4], [0.2, 0.4, 0.6, 0.8])[0] == pytest.approx(0.8)

    def test_monotone_in_observed(self):
        rng = np.random.default_rng(8)
        null = rng.random(100)
        obs = np.sort(rng.random(10))
        p = p_values(obs, null)
        assert (np.diff(p) <= 0).all()


class TestSelectSignificant:
    def test_boundary_not_significant(self):
        assert not select_significant([0.05], 0.05)[0]

    def test_just_below_significant(self):
        assert select_significant([0.049], 0.05)[0]

    def test_all_ones_false(self):
        assert not select_significant([1.0, 1.0], 0.05).any()


class TestRunRaicarN:
    def test_planted_components_rank_first(self):
        rc, _ = planted_runset(
            PlantSpec(n=500, n_C=4, K=8, n_planted=2, overlap=0.9, seed=9)
        )
        report = run_raicar_n(rc, NullConfig(R=50, seed=0))
        reps = [mc.reproducibility for mc in report.matched]
        assert reps[0] > reps[2] and reps[1] > reps[2]
        assert report.significant[0] and report.significant[1]

    def test_identical_runs_minimum_p(self):
        rng = np.random.default_rng(10)
        run = rng.standard_normal((8, 200))
        rc = RunCollection(np.stack([run] * 5))
        report = run_raicar_n(rc, NullConfig(R=100, seed=0))
        assert report.matched[0].reproducibility == pytest.approx(1.0, abs=1e-12)
        if report.null_sample.max() < 1.0:
            assert report.p_values[0] == pytest.approx(1.0 / 801.0)

    def test_k2_reproducibility_is_pairwise_correlation(self):
        rc = _random_rc(2, 3, 80, seed=11)
        report = run_raicar_n(rc, NullConfig(R=10, seed=0))
        for mc in report.matched:
            (r0, c0, _), (r1, c1, _) = sorted(mc.members)
            x, y = rc.maps[r0, c0], rc.maps[r1, c1]
            expected = abs(np.corrcoef(x, y)[0, 1])
            assert mc.reproducibility == pytest.approx(expected, abs=1e-12)

    def test_deterministic_report(self):
        rc = _random_rc(3, 3, 60, seed=12)
        cfg = NullConfig(R=5, seed=4)
        a = run_raicar_n(rc, cfg)
        b = run_raicar_n(rc, cfg)
        assert a.p_values.tobytes() == b.p_values.tobytes()
        assert a.null_sample.tobytes() == b.null_sample.tobytes()


class TestNullConfig:
    def test_bad_R(self):
        with pytest.raises(ValueError):
            NullConfig(R=0)

    def test_bad_pcrit(self):
        with pytest.raises(ValueError):
            NullConfig(p_crit=1.0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_matches_direct_recomputation(self, seed):
        rc = _random_rc(3, 2, 30, seed=seed)
        G = compute_crcm(rc)
        g = np.random.default_rng(seed + 1).permutation(6)
        Gp = permute_crcm(G, g)
        G_direct = compute_crcm(_relabeled(rc, g))
        np.testing.assert_allclose(Gp.matrix, G_direct.matrix, atol=1e-10)
        m1 = match_components(Gp)
        m2 = match_components(G_direct)
        assert [members for members, _ in m1] == [members for members, _ in m2]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_p_value_bounds(self, seed):
        rc = _random_rc(3, 2, 40, seed=seed)
        report = run_raicar_n(rc, NullConfig(R=7, seed=0))
        lo = 1.0 / (7 * 2 + 1)
        assert (report.p_values >= lo - 1e-15).all()
        assert (report.p_values <= 1.0).all()
