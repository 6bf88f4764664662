import hashlib

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from raicarn import ica as ica_module
from raicarn.errors import (
    DegenerateDataError,
    NonFiniteError,
    RaggedRunsError,
    RankDeficientError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from raicarn.ica import (
    IcaConfig,
    center,
    fastica,
    pca_reduce,
    residual_sd,
    run_group_ica,
    run_single_ica,
    stack_group,
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
        # no row is non-Gaussian, so the contrast has nothing to climb to
        assert res.stopped == "plateau" and res.n_iters < 50

    def test_cubic_nonlinearity_recovers(self):
        Yw, S = self._whitened_mixture(2, 5000, seed=8)
        res = fastica(Yw, IcaConfig(q=2, nonlinearity="cubic", seed=0))
        assert _aligned_corrs(S, res.S).min() > 0.99

    @pytest.mark.parametrize("nonlinearity, seed, n_iters, digest", [
        ("tanh", 6, 3, "5cf384a06ded02d59adae30662deb8d068aaa484c3521a0da77c2643f88cc3ab"),
        ("cubic", 8, 6, "be9d2f3aa9c9d9a972401f9972522725f1cf3421f721f271f9cb2ac1e686ad56"),
    ])
    def test_tolerance_fit_keeps_its_bits(self, nonlinearity, seed, n_iters, digest):
        # pinned before the plateau rule was added: a fit that meets tol
        # takes the same steps and returns the same rotation with it
        Yw, _ = self._whitened_mixture(2, 5000, seed=seed)
        res = fastica(Yw, IcaConfig(q=2, nonlinearity=nonlinearity, seed=0))
        assert (res.stopped, res.n_iters) == ("tolerance", n_iters)
        assert hashlib.sha256(res.O.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("nonlinearity, n_iters", [("tanh", 61), ("cubic", 39)])
    def test_over_specified_order_stops_on_plateau(self, nonlinearity, n_iters):
        # q=8 for 4 sources: the 4 near-Gaussian rows never settle, and with
        # the tolerance test alone both fits ran all 500 iterations. The
        # pinned counts are _PLATEAU iterations past the best contrast.
        # Noise of sd 1 on every sensor caps |r| near 1/sqrt(2); the bound
        # 0.6 asks for every source to be found at close to that cap.
        S = gen_sources(4, 3000, "laplacian", seed=30)
        Y, _, _ = gen_mixture(S, p=30, sigma=1.0, seed=31)
        model = run_single_ica(Y, IcaConfig(q=8, nonlinearity=nonlinearity, seed=0))
        assert (model.stopped, model.converged) == ("plateau", False)
        assert model.n_iters == n_iters
        assert _aligned_corrs(S, model.S).min() > 0.6


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


class TestResidualSd:
    """residual_sd takes the data centred, as the ica command's fit leaves
    the array it read; the reference is numpy's std of Y - mu - A S."""

    @staticmethod
    def _model_and_data(p, n, q, seed):
        """A model, its data Y, and Y centred by the model's mean."""
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((q, n))
        S -= S.mean(axis=1, keepdims=True)
        model = IcaModel(mu=rng.standard_normal(p), A=rng.standard_normal((p, q)), S=S, sigma2=0.0)
        Y = model.mu[:, None] + model.A @ S + 0.3 * rng.standard_normal((p, n))
        return model, Y, Y - model.mu[:, None]

    @staticmethod
    def _reference(model, Y):
        return (Y - model.mu[:, None] - model.A @ model.S).std(axis=0, ddof=1)

    @pytest.mark.parametrize("p, n, q", [(2, 7, 1), (3, 1001, 2), (9, 1500, 3), (30, 2001, 4), (100, 10000, 16)])
    def test_equals_the_std_of_the_residual(self, p, n, q):
        model, Y, Yc = self._model_and_data(p, n, q, seed=p + n)
        assert residual_sd(Yc, model).tobytes() == self._reference(model, Y).tobytes()

    @pytest.mark.parametrize("p, n, q", [(2, 7, 1), (30, 2001, 4)])
    def test_memory_order_of_the_data_does_not_change_the_bits(self, p, n, q):
        # numpy's std of a Fortran-ordered residual sums each column
        # pairwise, so its last bits differ; the C-ordered residual is the
        # reference for Fortran-ordered and strided data alike
        model, Y, Yc = self._model_and_data(p, n, q, seed=p + n)
        reference = self._reference(model, Y)
        assert residual_sd(np.asfortranarray(Yc), model).tobytes() == reference.tobytes()
        assert residual_sd(np.repeat(Yc, 2, axis=1)[:, ::2], model).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p, n, q", [
        (64, 3 * 2048 + 1001, 16),  # blocks of 2048 columns, the last 3049
        (200, 2 * 2048 + 1, 40),  # a last block of 2049: one column past the 16-column tiles
        (100, 10000, 16),  # the benchmark's restarts shape: 3 blocks of 2048, then 3856
        (9, 2 * 38912 + 4103, 3),  # 27 multiply-adds a column: blocks of 19 x 2048
        (2, 2 * 2**19 + 7, 1),  # 2 multiply-adds a column: blocks of 2^19 columns
    ])
    def test_blocks_of_columns_give_the_bits_of_the_whole_residual(self, order, p, n, q):
        model, Y, Yc = self._model_and_data(p, n, q, seed=n)
        width = ica_module._RESIDUAL_COLUMNS * -(-(2**20) // (ica_module._RESIDUAL_COLUMNS * p * q))
        assert 2 * width <= n and n % width  # several blocks and a remainder
        got = residual_sd(np.asarray(Yc, order=order), model)
        assert got.tobytes() == self._reference(model, Y).tobytes()

    @pytest.mark.parametrize("reshape", ["a row more", "a row less", "a location less"])
    def test_rejects_data_of_another_shape(self, reshape):
        model, _, Yc = self._model_and_data(5, 300, 2, seed=27)
        Yc = {"a row more": np.vstack([Yc, Yc[:1]]), "a row less": Yc[:-1], "a location less": Yc[:, :-1]}[reshape]
        with pytest.raises(ShapeMismatchError):
            residual_sd(Yc, model)


class TestStackGroup:
    def test_equals_the_stack_of_centred_datasets(self):
        rng = np.random.default_rng(26)
        mats = [rng.standard_normal((p, 1001)) + rng.standard_normal((p, 1)) for p in (2, 5, 3)]
        mats[1] = np.asfortranarray(mats[1])
        reference = np.vstack([center(m)[1] for m in mats])
        stack = stack_group(mats)
        assert stack.shape == (10, 1001)
        assert stack.tobytes() == reference.tobytes()

    def test_integer_datasets_are_read_as_float64(self):
        mats = [np.arange(12).reshape(3, 4), np.arange(8).reshape(2, 4) ** 2]
        reference = np.vstack([center(m)[1] for m in mats])
        assert stack_group(mats).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((3, 11)), ShapeMismatchError),
        (np.full((3, 10), np.nan), NonFiniteError),
    ])
    def test_rejects(self, bad, error):
        with pytest.raises(error):
            stack_group([np.ones((2, 10)), bad])

    @pytest.mark.parametrize("bad", [np.ones(5), np.ones((2, 2, 5)), np.float64(1.0)])
    def test_rejects_a_dataset_that_is_not_a_matrix(self, bad):
        # checked before any dataset's location count is read
        with pytest.raises(DegenerateDataError):
            stack_group([bad])
        with pytest.raises(DegenerateDataError):
            stack_group([np.ones((2, 5)), bad])


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

    def test_rejects_an_unknown_stop_reason(self):
        S = gen_sources(2, 2000, "laplacian", seed=22)
        Y, _, _ = gen_mixture(S, p=6, sigma=0.1, seed=23)
        model = run_single_ica(Y, IcaConfig(q=2, seed=0))
        assert (model.stopped, model.converged) == ("tolerance", True)
        with pytest.raises(ValueError):
            IcaModel(mu=model.mu, A=model.A, S=model.S, sigma2=model.sigma2, stopped="converged")


class TestCallersArraysAreLeftAsTheyAre:
    """The fit centres a copy: library callers reuse their data after a fit."""

    @staticmethod
    def _data(order="C"):
        S = gen_sources(2, 2000, "laplacian", seed=22)
        Y, _, _ = gen_mixture(S, p=6, sigma=0.1, seed=23)
        return np.asarray(Y, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_run_single_ica(self, order):
        Y = self._data(order)
        before = Y.copy(order="K")
        model = run_single_ica(Y, IcaConfig(q=2, seed=0))
        assert Y.tobytes(order="A") == before.tobytes(order="A")
        # the model is the one fitted on a fresh copy of the same data
        again = run_single_ica(before, IcaConfig(q=2, seed=0))
        assert model.S.tobytes() == again.S.tobytes() and model.mu.tobytes() == again.mu.tobytes()

    def test_center_and_the_group_functions(self):
        Y = self._data()
        before = Y.copy()
        center(Y)
        stack_group([Y, Y])
        run_group_ica([Y, Y], IcaConfig(q=2, seed=0))
        assert Y.tobytes() == before.tobytes()


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

    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1.0},
                                     {"tol": float("nan")}, {"tol": float("inf")}])
    def test_bad_stopping_rule(self, bad):
        with pytest.raises(ValueError):
            IcaConfig(q=2, **bad)
