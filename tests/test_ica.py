import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from raicarn.errors import RaggedRunsError, RankDeficientError, ShapeMismatchError, ZeroVarianceError
from raicarn.ica import (
    IcaConfig,
    center,
    fastica,
    pca_reduce,
    run_group_ica,
    run_single_ica,
    z_scale,
)
from raicarn.synth import gen_mixture, gen_sources
from raicarn.types import IcaModel


def _aligned_corrs(S_true, S_hat):
    """Best one-to-one alignment of estimated to true sources; returns the
    per-source |corr| under the assignment maximizing their sum."""
    q = S_true.shape[0]
    C = np.abs(np.corrcoef(S_true, S_hat)[:q, q:])
    rows, cols = linear_sum_assignment(-C)
    return C[rows, cols]


class TestCenter:
    def test_hand_example(self):
        mu, Yc = center(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(mu, [2.0, 2.0])
        np.testing.assert_array_equal(Yc, [[-1.0, 1.0], [0.0, 0.0]])

    def test_idempotent_on_centered(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((3, 50))
        Y -= Y.mean(axis=1, keepdims=True)
        mu, Yc = center(Y)
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(Yc, Y, atol=1e-12)

    def test_constant_row_zeroed(self):
        Y = np.vstack([np.full(10, 7.0), np.arange(10.0)])
        _, Yc = center(Y)
        np.testing.assert_array_equal(Yc[0], 0.0)


class TestPcaReduce:
    def test_exact_subspace_zero_noise(self):
        rng = np.random.default_rng(1)
        B = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        Yc = B @ rng.standard_normal((2, 200))
        Yc -= Yc.mean(axis=1, keepdims=True)
        red = pca_reduce(Yc, 2)
        assert red.sigma2 == pytest.approx(0.0, abs=1e-10)

    def test_isotropic_noise_variance(self):
        # oracle: population covariance is I, so every eigenvalue is 1
        rng = np.random.default_rng(2)
        Yc = center(rng.standard_normal((10, 20000)))[1]
        red = pca_reduce(Yc, 3)
        assert red.sigma2 == pytest.approx(1.0, abs=0.05)

    def test_q_pm1_gives_smallest_eigenvalue(self):
        rng = np.random.default_rng(3)
        Yc = center(rng.standard_normal((4, 500)))[1]
        red = pca_reduce(Yc, 3)
        assert red.sigma2 == pytest.approx(red.eigenvalues[-1], abs=1e-12)

    def test_whitener_unit_covariance(self):
        rng = np.random.default_rng(4)
        Yc = center(rng.standard_normal((5, 300)))[1]
        red = pca_reduce(Yc, 2)
        Yw = red.whitener @ Yc
        np.testing.assert_allclose(Yw @ Yw.T / Yc.shape[1], np.eye(2), atol=1e-10)

    def test_rank_deficient(self):
        Yc = np.zeros((3, 10))
        with pytest.raises(RankDeficientError):
            pca_reduce(Yc, 2)


class TestFastica:
    def _whitened_mixture(self, q, n, seed):
        S = gen_sources(q, n, "uniform", seed)
        rng = np.random.default_rng(seed + 1)
        R = np.linalg.qr(rng.standard_normal((q, q)))[0]
        Yw = R @ center(S)[1]
        # sources have unit variance only in expectation; whiten exactly
        C = Yw @ Yw.T / n
        evals, evecs = np.linalg.eigh(C)
        W = (evecs / np.sqrt(evals)) @ evecs.T
        return W @ Yw, S

    def test_q1_is_sign_flip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 400))
        x = x / x.std()
        res = fastica(x, IcaConfig(q=1, seed=0))
        assert abs(abs(res.O[0, 0]) - 1.0) < 1e-8

    def test_two_uniform_sources_recovered(self):
        Yw, S = self._whitened_mixture(2, 5000, seed=6)
        res = fastica(Yw, IcaConfig(q=2, seed=0))
        assert res.converged
        assert _aligned_corrs(S, res.S).min() > 0.99

    def test_gaussian_input_returns_orthogonal_rotation(self):
        # Gaussian sources are not identifiable; the search must still
        # terminate and hand back a valid rotation, converged or not.
        rng = np.random.default_rng(7)
        Yw = rng.standard_normal((3, 2000))
        C = Yw @ Yw.T / 2000
        evals, evecs = np.linalg.eigh(C)
        Yw = (evecs / np.sqrt(evals)) @ evecs.T @ Yw
        res = fastica(Yw, IcaConfig(q=3, seed=0, max_iters=50))
        np.testing.assert_allclose(res.O @ res.O.T, np.eye(3), atol=1e-8)

    def test_cubic_nonlinearity_recovers(self):
        Yw, S = self._whitened_mixture(2, 5000, seed=8)
        res = fastica(Yw, IcaConfig(q=2, nonlinearity="cubic", seed=0))
        assert _aligned_corrs(S, res.S).min() > 0.99


class TestZScale:
    def test_unit_sd_identity(self):
        S = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(z_scale(S, np.ones(3)), S)

    def test_halving(self):
        S = np.ones((2, 3))
        sd = np.array([1.0, 2.0, 1.0])
        np.testing.assert_array_equal(z_scale(S, sd)[:, 1], 0.5)

    def test_zero_sd_rejected(self):
        with pytest.raises(ZeroVarianceError) as ei:
            z_scale(np.ones((2, 3)), np.array([1.0, 0.0, 1.0]))
        assert ei.value.indices == [1]


class TestRunSingleIca:
    def test_planted_recovery(self):
        S = gen_sources(3, 5000, "laplacian", seed=12)
        Y, _, _ = gen_mixture(S, p=20, sigma=0.1, seed=13)
        model = run_single_ica(Y, IcaConfig(q=3, seed=0))
        assert _aligned_corrs(S, model.S).min() > 0.95

    def test_q1_noiseless_sign_recovery(self):
        S = gen_sources(1, 3000, "uniform", seed=14)
        rng = np.random.default_rng(15)
        a = rng.standard_normal(4)
        Y = a[:, None] * S
        model = run_single_ica(Y, IcaConfig(q=1, seed=0))
        assert abs(np.corrcoef(S[0], model.S[0])[0, 1]) > 0.999

    def test_sources_are_the_least_squares_estimate(self):
        # A = basis sqrt(lambda) O^T makes (A^T A)^-1 A^T = O whitener, so
        # the rotated whitened data already is the least-squares recovery
        S = gen_sources(3, 2000, "laplacian", seed=18)
        Y, _, _ = gen_mixture(S, p=9, sigma=0.3, seed=19)
        model = run_single_ica(Y, IcaConfig(q=3, seed=0))
        A = model.A
        expected = np.linalg.solve(A.T @ A, A.T @ (Y - model.mu[:, None]))
        np.testing.assert_allclose(model.S, expected, atol=1e-10)

    def test_determinism(self):
        S = gen_sources(2, 2000, "uniform", seed=16)
        Y, _, _ = gen_mixture(S, p=8, sigma=0.2, seed=17)
        m1 = run_single_ica(Y, IcaConfig(q=2, seed=3))
        m2 = run_single_ica(Y, IcaConfig(q=2, seed=3))
        assert m1.S.tobytes() == m2.S.tobytes()
        assert m1.A.tobytes() == m2.A.tobytes()

    def test_model_reconstructs_data(self):
        S = gen_sources(2, 4000, "laplacian", seed=18)
        Y, _, _ = gen_mixture(S, p=10, sigma=0.05, seed=19)
        model = run_single_ica(Y, IcaConfig(q=2, seed=0))
        resid = Y - model.mu[:, None] - model.A @ model.S
        assert resid.std() < 3 * 0.05

    def test_sigma2_tracks_noise_level(self):
        S = gen_sources(2, 5000, "uniform", seed=20)
        Y, _, _ = gen_mixture(S, p=10, sigma=0.1, seed=21)
        model = run_single_ica(Y, IcaConfig(q=2, seed=0))
        assert model.sigma2 == pytest.approx(0.01, rel=0.2)


class TestIcaModel:
    def test_order_is_read_off_the_mixing_matrix(self):
        S = gen_sources(2, 2000, "laplacian", seed=22)
        Y, _, _ = gen_mixture(S, p=6, sigma=0.1, seed=23)
        model = run_single_ica(Y, IcaConfig(q=2, seed=0))
        assert model.q == model.A.shape[1] == model.S.shape[0] == 2
        with pytest.raises(TypeError):
            IcaModel(mu=model.mu, A=model.A, S=model.S, sigma2=model.sigma2, q=2)

    def test_rejects_sources_that_do_not_match_the_mixing_matrix(self):
        rng = np.random.default_rng(24)
        S = rng.standard_normal((3, 50))
        S -= S.mean(axis=1, keepdims=True)
        with pytest.raises(RaggedRunsError):
            IcaModel(mu=np.zeros(5), A=rng.standard_normal((5, 2)), S=S, sigma2=0.0)


class TestRunGroupIca:
    def test_single_dataset_matches_single_run(self):
        S = gen_sources(2, 2000, "uniform", seed=22)
        Y, _, _ = gen_mixture(S, p=8, sigma=0.1, seed=23)
        g = run_group_ica([Y], IcaConfig(q=2, seed=0))
        s = run_single_ica(Y, IcaConfig(q=2, seed=0))
        np.testing.assert_allclose(g.S, s.S, atol=1e-8)
        np.testing.assert_allclose(g.mu, 0.0, atol=1e-10)

    def test_duplicated_dataset_agrees_with_single(self):
        S = gen_sources(2, 3000, "laplacian", seed=24)
        Y, _, _ = gen_mixture(S, p=8, sigma=0.1, seed=25)
        g = run_group_ica([Y, Y], IcaConfig(q=2, seed=0))
        s = run_single_ica(Y, IcaConfig(q=2, seed=0))
        assert _aligned_corrs(s.S, g.S).min() > 0.99

    def test_mismatched_n_rejected(self):
        with pytest.raises(ShapeMismatchError):
            run_group_ica([np.zeros((3, 10)), np.zeros((3, 11))], IcaConfig(q=1, seed=0))


class TestIcaConfig:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            IcaConfig(q=0)

    def test_bad_nonlinearity(self):
        with pytest.raises(ValueError):
            IcaConfig(q=2, nonlinearity="exp")

    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1.0}])
    def test_bad_stopping_rule(self, bad):
        with pytest.raises(ValueError):
            IcaConfig(q=2, **bad)
