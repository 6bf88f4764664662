import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raicarn.raicar import (
    align_signs,
    compute_crcm,
    match_and_score,
    match_components,
    normalized_reproducibility,
    similarity_matrix,
)
from raicarn.types import Crcm, RunCollection


def _hand_corr(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    den = np.sqrt((xc**2).sum() * (yc**2).sum())
    return 0.0 if den == 0 else abs(float(np.dot(xc, yc) / den))


def _random_rc(K, n_C, n, seed):
    rng = np.random.default_rng(seed)
    return RunCollection(rng.standard_normal((K, n_C, n)))


class TestComputeCrcm:
    def test_identical_runs_have_unit_matches(self):
        rng = np.random.default_rng(0)
        run = rng.standard_normal((3, 50))
        G = compute_crcm(RunCollection(np.stack([run, run])))
        np.testing.assert_allclose(np.diag(G.signed[:3, 3:]), 1.0, atol=1e-12)

    def test_negation_is_invisible(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        rc = RunCollection(np.array([[x], [-x]]))
        assert np.abs(compute_crcm(rc).signed)[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_hand_computed_correlations(self):
        # oracle: direct covariance-formula evaluation
        rc = _random_rc(2, 2, 40, seed=2)
        G = compute_crcm(rc)
        for i, j in itertools.product(range(2), range(2)):
            expected = _hand_corr(rc.maps[0, i], rc.maps[1, j])
            assert np.abs(G.signed)[i, 2 + j] == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_map_correlates_zero(self):
        rng = np.random.default_rng(4)
        maps = rng.standard_normal((2, 2, 30))
        maps[0, 0] = 5.0  # constant map
        G = compute_crcm(RunCollection(maps))
        assert not G.signed[0, 2:].any()


def _exhaustive_best(rc):
    """Brute-force optimum of the total reproducibility over all ways of
    aligning components across runs (run 0's order is fixed)."""
    G = compute_crcm(rc)
    K, n_C = rc.K, rc.n_C
    best = -1.0
    for perms in itertools.product(itertools.permutations(range(n_C)), repeat=K - 1):
        alignment = [tuple(range(n_C))] + [tuple(p) for p in perms]
        total = 0.0
        for slot in range(n_C):
            members = [(r, alignment[r][slot]) for r in range(K)]
            idx = [r * n_C + c for r, c in members]
            H = np.abs(G.signed)[np.ix_(idx, idx)]
            total += normalized_reproducibility(
                H + np.eye(K) - np.diag(np.diag(H))
            )
        best = max(best, total)
    return best


class TestMatchComponents:
    def test_identical_runs_collect_same_component(self):
        rng = np.random.default_rng(5)
        run = rng.standard_normal((4, 60))
        rc = RunCollection(np.stack([run, run, run]))
        matched = match_components(compute_crcm(rc))
        for members, _anchor in matched:
            comps = {c for _r, c in members}
            assert len(comps) == 1

    def test_bijection(self):
        rc = _random_rc(4, 5, 40, seed=6)
        matched = match_components(compute_crcm(rc))
        used = [tuple(m) for members, _ in matched for m in members]
        assert len(used) == len(set(used)) == 20

    def test_matches_exhaustive_optimum_on_planted_instance(self):
        # oracle: brute force over all alignments, feasible for K=3, n_C=2
        from raicarn.synth import PlantSpec, planted_runset

        rc, _ = planted_runset(PlantSpec(n=60, n_C=2, K=3, n_planted=2, overlap=0.95, seed=7))
        G = compute_crcm(rc)
        matched = match_components(G)
        total = sum(
            normalized_reproducibility(similarity_matrix(G, members))
            for members, _ in matched
        )
        assert total == pytest.approx(_exhaustive_best(rc), abs=1e-9)

    def test_within_run_peak_is_never_an_anchor_pair(self):
        # a within-run correlation above every cross-run one is zeroed
        # before matching, in G's own runs and in a relabelling's pseudo-runs
        K, n_C = 3, 2
        N = K * n_C
        rng = np.random.default_rng(16)
        for g in (np.arange(N), np.array([4, 1, 5, 0, 3, 2])):
            U = np.triu(rng.uniform(0.0, 0.5, (N, N)), 1)
            S = U + U.T
            S[g[0], g[1]] = S[g[1], g[0]] = 0.95  # both in (pseudo-)run 0
            S[g[2], g[5]] = S[g[5], g[2]] = 0.6  # the best cross-run pair
            members, anchor = match_components(Crcm(K, n_C, S), g)[0]
            assert anchor == divmod(int(g[2]), n_C)
            assert divmod(int(g[5]), n_C) in members

    def test_all_zero_matrix_falls_back_to_index_order(self):
        K, n_C = 3, 2
        N = K * n_C
        zero = np.zeros((N, N))
        G = Crcm(K, n_C, zero)
        matched = match_components(G)
        assert len(matched) == n_C
        used = [tuple(m) for members, _ in matched for m in members]
        assert len(set(used)) == N


class TestSimilarityAndReproducibility:
    def test_identical_members_all_ones(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(40)
        rc = RunCollection(np.array([[x], [x], [x]]))
        H = similarity_matrix(compute_crcm(rc), [(0, 0), (1, 0), (2, 0)])
        np.testing.assert_allclose(H, 1.0, atol=1e-12)

    def test_orthogonal_members_identity(self):
        # columns of Q are combinations of centered vectors, hence centered
        # and mutually orthogonal: correlations are exactly zero
        n = 40
        rng = np.random.default_rng(10)
        v = rng.standard_normal((3, n))
        v -= v.mean(axis=1, keepdims=True)
        q, _ = np.linalg.qr(v.T)
        rc = RunCollection(q.T[:, None, :].copy())
        H = similarity_matrix(compute_crcm(rc), [(0, 0), (1, 0), (2, 0)])
        np.testing.assert_allclose(H, np.eye(3), atol=1e-10)

    def test_hand_built_three_members(self):
        rc = _random_rc(3, 1, 30, seed=11)
        H = similarity_matrix(compute_crcm(rc), [(0, 0), (1, 0), (2, 0)])
        for a, b in itertools.combinations(range(3), 2):
            assert H[a, b] == pytest.approx(_hand_corr(rc.maps[a, 0], rc.maps[b, 0]), abs=1e-12)

    def test_stacked_sets_score_like_single_sets(self):
        rc = _random_rc(20, 3, 40, seed=15)
        G = compute_crcm(rc)
        sets = [[(r, (c + r) % 3) for r in range(20)] for c in range(3)]
        stacked = normalized_reproducibility(similarity_matrix(G, sets))
        single = [normalized_reproducibility(similarity_matrix(G, m)) for m in sets]
        assert stacked.shape == (3,)
        assert list(stacked) == single

    def test_all_ones_reproducibility(self):
        assert normalized_reproducibility(np.ones((4, 4))) == pytest.approx(1.0)

    def test_identity_reproducibility(self):
        assert normalized_reproducibility(np.eye(4)) == pytest.approx(0.0)

    def test_k3_hand_value(self):
        H = np.eye(3)
        H[0, 1] = H[1, 0] = 0.9
        H[0, 2] = H[2, 0] = 0.6
        H[1, 2] = H[2, 1] = 0.3
        assert normalized_reproducibility(H) == pytest.approx(0.6, abs=1e-12)


class TestAlignSigns:
    def test_anchor_positive(self):
        rc = _random_rc(2, 1, 30, seed=12)
        signed = align_signs(compute_crcm(rc), [(0, 0), (1, 0)], (0, 0))
        assert signed[0] == (0, 0, 1)

    def test_negated_member_flips(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(30)
        rc = RunCollection(np.array([[x], [-x]]))
        signed = align_signs(compute_crcm(rc), [(0, 0), (1, 0)], (0, 0))
        assert signed[1][2] == -1

    def test_alignment_makes_correlations_positive(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(50)
        maps = np.array([[x], [-x + 0.1 * rng.standard_normal(50)], [x + 0.1 * rng.standard_normal(50)]])
        rc = RunCollection(maps)
        signed = align_signs(compute_crcm(rc), [(0, 0), (1, 0), (2, 0)], (0, 0))
        anchor = rc.maps[0, 0] - rc.maps[0, 0].mean()
        for r, c, s in signed:
            m = s * rc.maps[r, c]
            assert np.dot(anchor, m - m.mean()) > 0 or (r, c) == (0, 0)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 10.0))
    def test_scale_invariance(self, seed, scale):
        rc = _random_rc(3, 2, 30, seed=seed)
        scaled = rc.maps.copy()
        scaled[1, 0] *= scale
        rc2 = RunCollection(scaled)
        m1 = match_and_score(compute_crcm(rc))
        m2 = match_and_score(compute_crcm(rc2))
        r1 = sorted(mc.reproducibility for mc in m1)
        r2 = sorted(mc.reproducibility for mc in m2)
        np.testing.assert_allclose(r1, r2, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_run_relabeling_equivariance(self, seed):
        rc = _random_rc(3, 2, 30, seed=seed)
        perm = np.random.default_rng(seed + 1).permutation(3)
        rc2 = RunCollection(rc.maps[perm])
        m1 = match_and_score(compute_crcm(rc))
        m2 = match_and_score(compute_crcm(rc2))
        r1 = sorted(mc.reproducibility for mc in m1)
        r2 = sorted(mc.reproducibility for mc in m2)
        np.testing.assert_allclose(r1, r2, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_within_run_shuffle_invariance(self, seed):
        rc = _random_rc(3, 3, 30, seed=seed)
        rng = np.random.default_rng(seed + 2)
        shuffled = np.stack([run[rng.permutation(3)] for run in rc.maps])
        m1 = match_and_score(compute_crcm(rc))
        m2 = match_and_score(compute_crcm(RunCollection(shuffled)))
        r1 = sorted(mc.reproducibility for mc in m1)
        r2 = sorted(mc.reproducibility for mc in m2)
        np.testing.assert_allclose(r1, r2, atol=1e-10)
