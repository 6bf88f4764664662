import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raicarn import null, raicar
from raicarn.errors import InvalidPermutationError
from raicarn.null import (
    NullConfig,
    null_distribution,
    p_values,
    permute_crcm,
    run_raicar_n,
)
from raicarn.raicar import (
    _greedy,
    compute_crcm,
    match_and_score,
    match_components,
    normalized_reproducibility,
    similarity_matrix,
)
from raicarn.synth import PlantSpec, planted_runset
from raicarn.types import Crcm, MatchedComponent, ReproducibilityReport, RunCollection


def _random_rc(K, n_C, n, seed):
    rng = np.random.default_rng(seed)
    return RunCollection(rng.standard_normal((K, n_C, n)))


def _cross_run(G):
    """Absolute correlations between components of different runs, in
    row-major order."""
    runs = np.repeat(np.arange(G.K), G.n_C)
    return np.abs(G.signed)[runs[:, None] != runs]


def _relabeled(rc, g):
    """RunCollection whose pseudo-run r, slot c holds flat map g[r*n_C+c]."""
    flat = rc.maps.reshape(-1, rc.n)[np.asarray(g)]
    return RunCollection(flat.reshape(rc.K, rc.n_C, rc.n))


class TestPermuteCrcm:
    def test_identity_keeps_zero_blocks(self):
        G = compute_crcm(_random_rc(3, 2, 40, seed=0))
        Gp = permute_crcm(G, np.arange(6))
        np.testing.assert_array_equal(Gp.signed, G.signed)
        # the matcher zeroes the same run blocks with or without a relabelling
        assert match_components(Gp) == match_components(G, np.arange(6))

    def test_within_run_swap_preserves_entry_multiset(self):
        G = compute_crcm(_random_rc(3, 2, 40, seed=1))
        g = np.arange(6)
        g[[0, 1]] = g[[1, 0]]  # swap two components of run 0
        Gp = permute_crcm(G, g)
        assert Counter(np.round(_cross_run(G), 12)) == Counter(np.round(_cross_run(Gp), 12))

    def test_cross_run_move_exposes_within_run_correlation(self):
        # oracle: recompute the correlation matrix on the relabeled maps
        rc = _random_rc(2, 2, 50, seed=2)
        g = np.array([0, 2, 1, 3])  # maps (0,1) and (1,0) change runs
        G = compute_crcm(rc)
        Gp = permute_crcm(G, g)
        G_direct = compute_crcm(_relabeled(rc, g))
        np.testing.assert_allclose(Gp.signed, G_direct.signed, atol=1e-12)
        # the formerly within-run pair (0,0)-(0,1) is now across runs
        assert np.abs(Gp.signed)[0, 2] == np.abs(G.signed)[0, 1]
        assert np.abs(G.signed)[0, 1] in _cross_run(Gp) and np.abs(G.signed)[0, 1] not in _cross_run(G)

    def test_invalid_permutation(self):
        # permute_crcm and the relabelled matcher share one check
        G = compute_crcm(_random_rc(2, 2, 30, seed=3))
        for bad in ([0, 0, 1, 2], [0, 1, 2], [0.0, 1.0, 2.0, 3.0], [0, 1, 2, 4]):
            for relabel in (permute_crcm, match_components):
                with pytest.raises(InvalidPermutationError):
                    relabel(G, bad)


def _through(g, n_C, pairs):
    """(run, component) pairs of a relabelled matrix as G's own pairs."""
    return [divmod(int(g[r * n_C + c]), n_C) for r, c in pairs]


def _tied_or_random(kind, K, n_C, rng):
    N = K * n_C
    U = rng.uniform(-1, 1, (N, N))
    if kind == "quantised":
        U = np.round(U * 4) / 4
    elif kind == "sparse":
        # few non-zero entries: the matrix runs out of positive values
        # part-way, and the lowest-index fallback takes over
        U = np.round(U * 4) / 4 * (rng.random((N, N)) < 0.1)
    elif kind == "constant":
        U = np.full((N, N), U[0, 0])
    elif kind == "zero":
        U = np.zeros((N, N))
    S = np.triu(U)
    return Crcm(K, n_C, S + np.triu(S, 1).T)


def _dense_greedy(G):
    """Reference greedy matcher: one argmax over the whole N x N working
    matrix per step, as the matching is defined. Returns match_components'
    format."""
    K, n_C = G.K, G.n_C
    N = K * n_C
    runs = np.arange(K)
    W = np.abs(G.signed)
    W.reshape(K, n_C, K, n_C)[runs, :, runs, :] = 0.0
    free = np.ones((K, n_C), dtype=bool)
    matched = []
    for _ in range(n_C):
        fi, fj = divmod(int(np.argmax(W)), N)
        if W[fi, fj] <= 0.0:
            fi, fj = int(np.argmax(free[0])), n_C + int(np.argmax(free[1]))
        col, row = W[fj].reshape(K, n_C), W[fi].reshape(K, n_C)
        a, b = col.argmax(axis=1), row.argmax(axis=1)
        a_val, b_val = col[runs, a], row[runs, b]
        pick = np.where(a_val >= b_val, a, b)
        pick = np.where((a_val == 0.0) & (b_val == 0.0), free.argmax(axis=1), pick)
        (l, i), (m, j) = divmod(fi, n_C), divmod(fj, n_C)
        pick[l], pick[m] = i, j
        flat = runs * n_C + pick
        W[flat, :] = 0.0
        W[:, flat] = 0.0
        free[runs, pick] = False
        members = [divmod(int(f), n_C) for f in flat]
        matched.append((members, members[l]))
    return matched


def _reference_pool(G, cfg):
    """The null pool replicate by replicate: the matcher on the permuted
    matrix, scored on the permuted matrix."""
    vals = []
    for r in range(cfg.R):
        g = np.random.default_rng([cfg.seed, r]).permutation(G.K * G.n_C)
        Gp = permute_crcm(G, g)
        sets = [m for m, _ in match_components(Gp)]
        vals.append(normalized_reproducibility(similarity_matrix(Gp, sets)))
    return np.concatenate(vals)


class TestRelabelledMatching:
    """A null replicate is match_components(G, g); the references are the
    matcher on the permuted matrix permute_crcm(G, g) and the dense
    argmax matcher on that matrix."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 7),
        st.integers(1, 6),
        st.sampled_from(["random", "quantised", "sparse", "constant", "zero"]),
    )
    def test_relabelled_matcher_equals_permuted_matrix(self, seed, K, n_C, kind):
        rng = np.random.default_rng(seed)
        G = _tied_or_random(kind, K, n_C, rng)
        g = rng.permutation(K * n_C)
        Gp = permute_crcm(G, g)
        ref = match_components(Gp)
        assert ref == _dense_greedy(Gp)
        assert match_components(G) == _dense_greedy(G)
        got = match_components(G, g)
        assert got == [(_through(g, n_C, m), _through(g, n_C, [a])[0]) for m, a in ref]
        assert all(type(x) is int for m, a in got for pair in m + [a] for x in pair)
        # replicate values: bit for bit the permuted-Crcm formula
        ref_vals = normalized_reproducibility(similarity_matrix(Gp, [m for m, _ in ref]))
        got_vals = normalized_reproducibility(similarity_matrix(G, [m for m, _ in got]))
        assert got_vals.tobytes() == ref_vals.tobytes()


class TestBatchedNull:
    """null_distribution matches replicates in batches of about
    _STATE_CELLS / N; its pool is the replicate-by-replicate reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(1, 5),
        st.sampled_from(["random", "quantised", "sparse", "constant", "zero"]),
        st.integers(2, 4),
        st.integers(0, 3),
    )
    def test_pool_equals_per_replicate_reference(self, seed, K, n_C, kind, batch, extra):
        G = _tied_or_random(kind, K, n_C, np.random.default_rng(seed))
        # several batches and a partial last one
        cfg = NullConfig(R=3 * batch + 1 + extra % (batch - 1), seed=seed % 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(null, "_STATE_CELLS", batch * K * n_C)
            pool = null_distribution(None, G, cfg)
        assert pool.tobytes() == _reference_pool(G, cfg).tobytes()

    def test_pool_equals_reference_at_full_batch_size(self):
        # N=600: batches of 27 replicates, the third one partial
        G = compute_crcm(_random_rc(20, 30, 200, seed=21))
        cfg = NullConfig(R=60, seed=3)
        assert null_distribution(None, G, cfg).tobytes() == _reference_pool(G, cfg).tobytes()

    def test_pool_is_a_prefix_across_batches(self):
        # N=160: batches of 102 replicates
        G = compute_crcm(_random_rc(20, 8, 100, seed=22))
        short = null_distribution(None, G, NullConfig(R=100, seed=5))
        longer = null_distribution(None, G, NullConfig(R=110, seed=5))
        assert longer[: short.size].tobytes() == short.tobytes()

    @pytest.mark.parametrize("state_cells", [2, 256, 2**14])
    def test_deep_walks_equal_reference(self, state_cells):
        # N=600 planted on 3 sources with little noise: each row's best
        # partners are the ~200 members of its own cluster, so as a cluster
        # is used up its rows' pointers walk past many used partners (up to
        # 185 entries in one advance). The state cap holds every window at
        # 1-2 entries, lets it grow a few times, or leaves it to grow to N;
        # 3 replicates go in each batch.
        rng = np.random.default_rng(31)
        K, n_C = 20, 30
        sources = rng.standard_normal((3, 200))
        cluster = rng.integers(0, 3, (K, n_C))
        rc = RunCollection(sources[cluster] + 0.05 * rng.standard_normal((K, n_C, 200)))
        G = compute_crcm(rc)
        cfg = NullConfig(R=7, seed=4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raicar, "_STATE_CELLS", state_cells)
            mp.setattr(null, "_STATE_CELLS", 3 * K * n_C)
            pool = null_distribution(None, G, cfg)
            assert pool.tobytes() == _reference_pool(G, cfg).tobytes()

    def test_pool_digest_is_pinned_at_n_2000(self):
        # the wide path (N=2000, batches of 8) on unplanted maps; pinned
        # before the matcher's pointer windows and pseudo-order state changed
        G = compute_crcm(_random_rc(50, 40, 60, seed=24))
        pool = null_distribution(None, G, NullConfig(R=4, seed=1))
        assert hashlib.sha256(pool.tobytes()).hexdigest() == (
            "9c6b9e439561f5ed076738ee2df2485681b2b0827fda85352a12c33fa42698bb"
        )

    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_bijection_at_n_2000(self, kind):
        # K=50, n_C=40: every (run, component) is used exactly once per
        # replicate, and slot s takes one member from every pseudo-run
        K, n_C = 50, 40
        N = K * n_C
        if kind == "zero":
            G = Crcm(K, n_C, np.zeros((N, N)))
        else:
            G = compute_crcm(_random_rc(K, n_C, 60, seed=23))
        perms = np.array([np.random.default_rng([0, r]).permutation(N) for r in range(8)])
        members, anchor_run = _greedy(G, perms)
        assert members.shape == (8, n_C, K)
        for g, labels, anchors in zip(perms, members, anchor_run):
            assert np.array_equal(np.sort(labels, axis=None), np.arange(N))
            pseudo = np.argsort(g)[labels]
            assert np.array_equal(pseudo // n_C, np.broadcast_to(np.arange(K), (n_C, K)))
            assert ((0 <= anchors) & (anchors < K)).all()


class TestNullDistribution:
    def test_deterministic(self):
        rc = _random_rc(3, 3, 60, seed=4)
        G = compute_crcm(rc)
        cfg = NullConfig(R=2, seed=9)
        a = null_distribution(rc, G, cfg)
        b = null_distribution(rc, G, cfg)
        assert a.tobytes() == b.tobytes()

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
        matched = match_and_score(G)
        obs_mean = np.mean([mc.reproducibility for mc in matched])
        pool = null_distribution(rc, G, NullConfig(R=50, seed=0))
        assert abs(pool.mean() - obs_mean) < 0.02

    def test_identity_replicate_scores_like_observed(self):
        # the null and the observed pass share one scoring path, so the
        # identity relabeling reproduces the observed values bit for bit
        G = compute_crcm(_random_rc(5, 4, 80, seed=13))
        matched = match_components(G, np.arange(20))
        null_vals = normalized_reproducibility(similarity_matrix(G, [m for m, _ in matched]))
        observed = match_and_score(G)
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

    def test_paper_scale_pool_digest_is_pinned(self):
        # planted data at the acceptance-test shape (N=160, R=300): guards
        # the matcher and the batched null on real-scale input, where the
        # tie pin above guards the tie rules
        rc, _ = planted_runset(PlantSpec(n=2000, n_C=8, K=20, n_planted=3, seed=1))
        pool = null_distribution(None, compute_crcm(rc), NullConfig(R=300, seed=1))
        assert hashlib.sha256(pool.tobytes()).hexdigest() == (
            "bc00ec38c35a45d68bddbb04d507b4333de9882e4fd5d4399dfa1637074c62c9"
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
    """A report's components are significant iff p < p_crit, strictly."""

    def _report(self, reps, null):
        mcs = tuple(MatchedComponent(((0, 0, 1), (1, 0, 1)), (0, 0), r) for r in reps)
        return ReproducibilityReport(mcs, np.asarray(null, dtype=np.float64), 0.05)

    def test_boundary_not_significant(self):
        report = self._report([0.9], np.full(19, 0.5))  # p = 1/20
        assert report.p_values[0] == 0.05
        assert not report.significant[0]

    def test_just_below_significant(self):
        report = self._report([0.9], np.full(20, 0.5))  # p = 1/21
        assert report.p_values[0] < 0.05
        assert report.significant[0]

    def test_all_ones_false(self):
        report = self._report([0.1, 0.1], np.full(19, 0.5))
        np.testing.assert_array_equal(report.p_values, [1.0, 1.0])
        assert not report.significant.any()


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
        G_direct = compute_crcm(_relabeled(rc, g))
        np.testing.assert_allclose(permute_crcm(G, g).signed, G_direct.signed, atol=1e-10)
        # G_direct's pseudo-run labels, mapped through g, are G's own
        m_direct = [_through(g, 2, members) for members, _ in match_components(G_direct)]
        assert [members for members, _ in match_components(G, g)] == m_direct

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_p_value_bounds(self, seed):
        rc = _random_rc(3, 2, 40, seed=seed)
        report = run_raicar_n(rc, NullConfig(R=7, seed=0))
        lo = 1.0 / (7 * 2 + 1)
        assert (report.p_values >= lo - 1e-15).all()
        assert (report.p_values <= 1.0).all()
