import itertools

import numpy as np
import pytest
from scipy import stats

from raicarn.errors import DomainError
from raicarn.raicar import compute_crcm, match_and_score
from raicarn.synth import (
    SOURCE_FAMILIES,
    PlantSpec,
    gen_mixture,
    gen_sources,
    planted_runs,
    planted_runset,
)


class TestGenSources:
    def test_laplacian_kurtosis(self):
        # oracle: Laplace excess kurtosis is exactly 3
        S = gen_sources(2, 100_000, "laplacian", seed=0)
        for row in S:
            assert stats.kurtosis(row) == pytest.approx(3.0, abs=0.3)

    def test_uniform_kurtosis(self):
        # oracle: uniform excess kurtosis is exactly -1.2
        S = gen_sources(2, 100_000, "uniform", seed=1)
        for row in S:
            assert stats.kurtosis(row) == pytest.approx(-1.2, abs=0.1)

    def test_unit_variance_all_families(self):
        for family in SOURCE_FAMILIES:
            S = gen_sources(3, 100_000, family, seed=2)
            np.testing.assert_allclose(S.var(axis=1), 1.0, atol=0.05)
            np.testing.assert_allclose(S.mean(axis=1), 0.0, atol=0.02)

    def test_deterministic(self):
        a = gen_sources(2, 1000, "laplacian", seed=3)
        b = gen_sources(2, 1000, "laplacian", seed=3)
        assert a.tobytes() == b.tobytes()

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            gen_sources(2, 100, "cauchy", seed=0)


class TestGenMixture:
    def test_noiseless_lies_in_column_space(self):
        S = gen_sources(3, 500, "uniform", seed=4)
        Y, A, mu = gen_mixture(S, p=8, sigma=0.0, seed=5)
        Yc = Y - mu[:, None]
        resid = Yc - A @ (A.T @ Yc)  # A has orthonormal columns
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)

    def test_covariance_matches_model(self):
        # oracle: cov(Y) = A A^T + sigma^2 I for unit-variance sources
        S = gen_sources(3, 100_000, "laplacian", seed=6)
        Y, A, mu = gen_mixture(S, p=6, sigma=0.5, seed=7)
        Yc = Y - Y.mean(axis=1, keepdims=True)
        C = Yc @ Yc.T / Y.shape[1]
        np.testing.assert_allclose(C, A @ A.T + 0.25 * np.eye(6), atol=0.05)

    def test_deterministic(self):
        S = gen_sources(2, 500, "uniform", seed=8)
        Y1, A1, mu1 = gen_mixture(S, p=5, sigma=0.1, seed=9)
        Y2, A2, mu2 = gen_mixture(S, p=5, sigma=0.1, seed=9)
        assert Y1.tobytes() == Y2.tobytes()
        assert A1.tobytes() == A2.tobytes()

    def test_needs_p_above_q(self):
        with pytest.raises(DomainError):
            gen_mixture(np.ones((3, 10)), p=3, sigma=0.1, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
    def test_equals_the_one_expression_it_replaced(self, sigma):
        # built in place, Y has the bits and draws of the one expression
        S = gen_sources(3, 1001, "laplacian", seed=10)
        Y, A, mu = gen_mixture(S, p=7, sigma=sigma, seed=11)
        rng = np.random.default_rng(11)
        A_ref, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        mu_ref = rng.standard_normal(7)
        Y_ref = mu_ref[:, None] + A_ref @ S + sigma * rng.standard_normal((7, 1001))
        assert Y.tobytes() == Y_ref.tobytes()
        assert A.tobytes() == A_ref.tobytes() and mu.tobytes() == mu_ref.tobytes()


class TestPlantedRunset:
    def test_perfect_overlap_is_exact_copies(self):
        rc, labels = planted_runset(PlantSpec(n=200, n_C=3, K=4, n_planted=2, overlap=1.0, seed=10))
        for per_run in labels:
            maps = [rc.maps[r, c] for r, c in enumerate(per_run)]
            for m in maps[1:]:
                np.testing.assert_array_equal(m, maps[0])
        matched = match_and_score(compute_crcm(rc))
        reps = sorted((mc.reproducibility for mc in matched), reverse=True)
        assert reps[0] == pytest.approx(1.0, abs=1e-12)
        assert reps[1] == pytest.approx(1.0, abs=1e-12)

    def test_no_planted_is_pure_noise(self):
        rc, labels = planted_runset(PlantSpec(n=300, n_C=3, K=4, n_planted=0, seed=11))
        assert labels == []
        runs = np.repeat(np.arange(4), 3)
        cross = np.abs(compute_crcm(rc).signed)[runs[:, None] != runs]
        assert cross.max() < 0.5  # nothing reproducible among fillers

    def test_pairwise_overlap_calibration(self):
        # oracle: copies share only the sqrt(rho)-weighted base, so their
        # expected |corr| is rho = overlap^2 = 0.81
        spec = PlantSpec(n=2000, n_C=4, K=20, n_planted=1, overlap=0.9, seed=12)
        rc, labels = planted_runset(spec)
        copies = np.stack([rc.maps[r, c] for r, c in enumerate(labels[0])])
        corrs = []
        C = np.corrcoef(copies)
        for a, b in itertools.combinations(range(20), 2):
            corrs.append(abs(C[a, b]))
        assert np.mean(corrs) == pytest.approx(0.81, abs=0.03)

    def test_labels_are_bijective_per_run(self):
        spec = PlantSpec(n=100, n_C=5, K=6, n_planted=3, seed=13)
        rc, labels = planted_runset(spec)
        for r in range(6):
            slots = [labels[b][r] for b in range(3)]
            assert len(set(slots)) == 3
            assert all(0 <= s < 5 for s in slots)

    def test_fillers_uncorrelated_with_base(self):
        spec = PlantSpec(n=2000, n_C=4, K=5, n_planted=1, overlap=0.9, seed=14)
        rc, labels = planted_runset(spec)
        planted = {(r, labels[0][r]) for r in range(5)}
        copy0 = rc.maps[0, labels[0][0]]
        for r in range(5):
            for c in range(4):
                if (r, c) in planted:
                    continue
                assert abs(np.corrcoef(copy0, rc.maps[r, c])[0, 1]) < 0.1

    @pytest.mark.parametrize("family", SOURCE_FAMILIES)
    def test_streamed_runs_are_the_runset(self, family):
        spec = PlantSpec(n=150, n_C=5, K=4, n_planted=2, overlap=0.8, noise_kind=family, seed=16)
        rc, labels = planted_runset(spec)
        runs = list(planted_runs(spec))
        assert len(runs) == spec.K
        for r, (maps, slots) in enumerate(runs):
            assert maps.shape == (spec.n_C, spec.n) and maps.tobytes() == rc.maps[r].tobytes()
            assert slots == [labels[b][r] for b in range(spec.n_planted)]

    def test_deterministic(self):
        spec = PlantSpec(n=200, n_C=3, K=4, n_planted=2, seed=15)
        a, la = planted_runset(spec)
        b, lb = planted_runset(spec)
        assert a.maps.tobytes() == b.maps.tobytes()
        assert la == lb

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PlantSpec(n=100, n_C=3, K=4, n_planted=4)
        with pytest.raises(DomainError):
            PlantSpec(n=100, n_C=3, K=4, n_planted=1, overlap=0.0)
