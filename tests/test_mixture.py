import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from raicarn.errors import DegenerateDataError, NonFiniteError
from raicarn.mixture import (
    LABEL_NEGATIVE,
    LABEL_NULL,
    LABEL_POSITIVE,
    _DOF_GRID,
    _NORMALIZE_CELLS,
    _SHAPE_CAP,
    MixtureConfig,
    MixtureFit,
    _digamma,
    _quantile_table,
    _trigamma,
    _weighted_gamma_mle,
    classify_voxels,
    fit_mixture,
    group_tstat,
    histogram_data,
    normalize_maps,
    responsibilities,
)
from raicarn.synth import PlantSpec, planted_runset


class TestNormalizeEmpirical:
    def test_two_values(self):
        # oracle: normal quantiles at 0.25 and 0.75
        out = normalize_maps([3.0, 1.0])
        np.testing.assert_allclose(out, [0.6744897501960817, -0.6744897501960817], atol=1e-12)

    def test_all_equal_maps_to_zero(self):
        np.testing.assert_array_equal(normalize_maps([2.0, 2.0, 2.0]), 0.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        out = normalize_maps(v)
        assert (np.diff(out[np.argsort(v)]) >= 0).all()

    def test_rowwise_on_stack(self):
        rng = np.random.default_rng(1)
        maps = rng.standard_normal((5, 30))
        out = normalize_maps(maps)
        for k in range(5):
            np.testing.assert_allclose(out[k], normalize_maps(maps[k]), atol=1e-12)

    def test_rowwise_preserves_cross_map_agreement(self):
        # two maps with the same ordering normalize to identical rows
        rng = np.random.default_rng(2)
        base = rng.standard_normal(40)
        out = normalize_maps(np.vstack([base, 2.0 * base + 1.0]))
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(DegenerateDataError):
            normalize_maps([1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 10_000))
    def test_quantile_targets(self, m, seed):
        # distinct values land exactly on the (r - 0.5)/m normal quantiles
        rng = np.random.default_rng(seed)
        v = rng.permutation(np.arange(m, dtype=np.float64))
        expected = stats.norm.ppf((np.argsort(np.argsort(v)) + 0.5) / m)
        np.testing.assert_allclose(normalize_maps(v), expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 120),
        st.integers(0, 10),
        st.sampled_from(["small integers", "constant rows", "signed zeros", "continuous"]),
        st.booleans(),
        st.integers(0, 10_000),
    )
    def test_bitwise_equal_to_average_rankdata(self, K, m, high, kind, flat, seed):
        # ties take the average rank, exactly as rankdata gives it
        rng = np.random.default_rng(seed)
        if kind == "small integers":
            v = rng.integers(-high, high + 1, (K, m)).astype(np.float64)
        elif kind == "constant rows":
            v = np.repeat(rng.integers(-high, high + 1, (K, 1)).astype(np.float64), m, axis=1)
        elif kind == "signed zeros":
            v = rng.choice([-0.0, 0.0, 1.0, -1.0], (K, m))
            v[:, :2] = (-0.0, 0.0)
        else:
            v = rng.standard_normal((K, m))
        if flat:
            v = v[0]
        p = (stats.rankdata(v, method="average", axis=-1) - 0.5) / m
        expected = np.vectorize(NormalDist().inv_cdf, otypes=[np.float64])(p)
        out = normalize_maps(v)
        assert out.shape == v.shape and out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()

    def test_nan_is_rejected(self):
        with pytest.raises(NonFiniteError):
            normalize_maps([[1.0, 2.0, 3.0], [0.0, np.nan, 1.0]])

    def test_stack_of_several_blocks_equals_its_rows_alone(self):
        # _NORMALIZE_CELLS cells make a block, so 300 rows of 2000 span
        # several blocks: rows with ties, a constant row at a block edge, one
        # continuous row, and a NaN that only the last block holds
        edge = _NORMALIZE_CELLS // 2000  # first row of the second block
        assert 8 < edge < 150
        rng = np.random.default_rng(5)
        v = rng.integers(-40, 41, (300, 2000)).astype(np.float64)
        v[edge] = 2.5
        v[7] = rng.standard_normal(2000)
        v[-1, ::3] = np.nan
        with pytest.raises(NonFiniteError):
            normalize_maps(v)
        v[-1] = -v[0]
        out = normalize_maps(v)
        assert out.shape == v.shape
        assert (out[edge] == 0.0).all()
        for k in range(len(v)):
            assert out[k].tobytes() == normalize_maps(v[k]).tobytes()


_FRESH_NORMALIZE = """\
import hashlib, sys
pure = sys.argv[1] == "pure"
if pure:
    sys.modules["_statistics"] = None  # statistics falls back to its Python inv_cdf
import numpy as np
import statistics
from raicarn.mixture import normalize_maps
assert hasattr(statistics._normal_dist_inv_cdf, "__code__") or not pure
k = np.arange(20000)
v = np.vstack([np.random.default_rng(0).permutation(k), k // 2, (k + 1) // 2]).astype(np.float64)
print(hashlib.sha256(normalize_maps(v).tobytes()).hexdigest())
"""


def test_normalize_maps_bytes_do_not_follow_simd_or_the_statistics_accelerator():
    # Rows of distinct values, of tie pairs and of tie pairs shifted by one
    # read every entry of the 2m - 1 table. Through numpy's log, whose
    # AVX-512 form rounds differently, two of its entries at m = 20000
    # would follow numpy's SIMD dispatch. On a numpy build or CPU without
    # AVX-512, disabling it changes nothing, and that run passes trivially.
    src = str(Path(__file__).resolve().parents[1] / "src")

    def digest(mode, **extra_env):
        env = {**os.environ, **extra_env, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", _FRESH_NORMALIZE, mode], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.split()[-1]

    default = digest("default")
    assert digest("default", NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") == default
    assert digest("pure") == default


class TestSpecialFunctions:
    """The numpy and standard-library stand-ins for scipy.special against scipy.special."""

    # NormalDist's AS241 and scipy's cephes ndtri each err by a few ulps,
    # so their difference is bounded by the sum. 1e-15, set first, failed at
    # 1 of the 39999 points for m = 20000 (1.02e-15 at x = 1.086, where a
    # 40-digit reference puts cephes 4 ulps off and AS241 1 ulp off).
    NDTRI_RTOL = 2e-15
    # log-gamma and digamma cross zero (at 1 and 2, and near 1.4616), where
    # only an absolute error means anything; the fit adds them to log
    # densities of order 1.
    LOG_TOL = 1e-14
    # trigamma is a sum of positive terms, so a relative bound holds.
    TRIGAMMA_RTOL = 1e-14

    @pytest.mark.parametrize("m", [2, 3, 600, 2000, 20_000])
    def test_ndtri_on_the_normalize_maps_table(self, m):
        p = (np.arange(2 * m - 1) / 2 + 0.5) / m
        np.testing.assert_allclose(_quantile_table(m), special.ndtri(p), rtol=self.NDTRI_RTOL, atol=0)

    def test_ndtri_in_the_tails(self):
        # a map of 200000 locations reaches p = 1 / 400000 = 2.5e-6 at both
        # ends, the deepest tail of any map here; the table also crosses
        # AS241's switch from its central to its tail branch at |p - 0.5| = 0.425
        m = 200_000
        p = (np.arange(2 * m - 1) / 2 + 0.5) / m
        x = _quantile_table(m)
        np.testing.assert_allclose(x, special.ndtri(p), rtol=self.NDTRI_RTOL, atol=0)
        assert p[0] == 2.5e-6 and x[0] == pytest.approx(-4.5648, abs=1e-4)

    @staticmethod
    def _points():
        dof = np.array([d for d in _DOF_GRID if np.isfinite(d)])
        return np.concatenate([np.geomspace(1e-3, 1e4, 2001), (dof + 1) / 2, dof / 2, [1.0, 2.0, 10.0]])

    def test_lgamma_and_digamma_match(self):
        a = self._points()
        for ours, ref in ((math.lgamma, special.gammaln), (_digamma, special.digamma)):
            got = np.array([ours(float(v)) for v in a])
            want = ref(a)
            assert (np.abs(got - want) <= self.LOG_TOL * np.maximum(1.0, np.abs(want))).all(), ours

    def test_trigamma_matches(self):
        a = self._points()
        got = np.array([_trigamma(float(v)) for v in a])
        np.testing.assert_allclose(got, special.polygamma(1, a), rtol=self.TRIGAMMA_RTOL, atol=0)

    def test_digamma_and_trigamma_hold_far_out(self):
        # every a > 0: the recurrence takes at most ten steps, and the series
        # alone serves large a
        a = np.geomspace(1e-150, 1e300, 451)
        psi = np.array([_digamma(float(v)) for v in a])
        psi1 = np.array([_trigamma(float(v)) for v in a])
        assert np.isfinite(psi).all() and np.isfinite(psi1).all()
        assert (np.abs(psi - special.digamma(a)) <= self.LOG_TOL * np.maximum(1.0, np.abs(psi))).all()
        np.testing.assert_allclose(psi1, special.polygamma(1, a), rtol=self.TRIGAMMA_RTOL, atol=0)


class TestGroupTstat:
    def test_identical_maps_degenerate(self):
        # six copies of ndtri(0.5 / 600) average to one ulp off, which leaves
        # an sd of 4.9e-16 rather than 0
        X = np.tile(np.array([1.0, -2.0, 0.0, special.ndtri(0.5 / 600)]), (6, 1))
        t, deg = group_tstat(X)
        assert deg.all()
        np.testing.assert_array_equal(t, 0.0)

    def test_zero_mean_pair(self):
        t, deg = group_tstat(np.array([[1.0], [-1.0]]))
        assert t[0] == 0.0 and not deg[0]

    def test_hand_value(self):
        # oracle: mean 2.5, sd 1.2910, t = 2.5 / (1.2910 / 2) = sqrt(15)
        t, _ = group_tstat(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert t[0] == pytest.approx(np.sqrt(15.0), abs=1e-10)

    def test_needs_two_maps(self):
        with pytest.raises(DegenerateDataError):
            group_tstat(np.ones((1, 5)))


class TestMixtureFitType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureFit((0.5, 0.4, 0.0), (0, 1, 10), (2, 1, 1), (2, 1, 1), np.zeros(2), True)

    def test_trace_must_be_monotone(self):
        with pytest.raises(ValueError):
            MixtureFit(
                (0.8, 0.1, 0.1), (0, 1, 10), (2, 1, 1), (2, 1, 1),
                np.array([0.0, -1.0]), True,
            )


class TestFitMixture:
    def _pure_t(self, n=20_000, dof=20.0, seed=0):
        return stats.t.rvs(dof, size=n, random_state=np.random.default_rng(seed))

    def _with_gamma(self, n=20_000, frac=0.1, seed=0):
        rng = np.random.default_rng(seed)
        n_g = int(n * frac)
        x = np.concatenate([
            stats.t.rvs(20.0, size=n - n_g, random_state=rng),
            2.0 + stats.gamma.rvs(4.0, scale=1.0, size=n_g, random_state=rng),
        ])
        rng.shuffle(x)
        return x

    def test_pure_background_kills_tail_weights(self):
        fit = fit_mixture(self._pure_t(seed=1))
        assert fit.weights[1] + fit.weights[2] < 0.03

    def test_planted_positive_weight_recovered(self):
        fit = fit_mixture(self._with_gamma(seed=2))
        assert fit.weights[1] == pytest.approx(0.10, abs=0.03)

    def test_symmetric_tails_balanced(self):
        rng = np.random.default_rng(3)
        n_g = 2000
        x = np.concatenate([
            stats.t.rvs(20.0, size=16_000, random_state=rng),
            2.0 + stats.gamma.rvs(4.0, scale=1.0, size=n_g, random_state=rng),
            -(2.0 + stats.gamma.rvs(4.0, scale=1.0, size=n_g, random_state=rng)),
        ])
        fit = fit_mixture(x)
        assert abs(fit.weights[1] - fit.weights[2]) < 0.02

    def test_trace_monotone(self):
        fit = fit_mixture(self._with_gamma(seed=4))
        assert (np.diff(fit.loglik_trace) >= -1e-8).all()

    def test_deterministic(self):
        x = self._with_gamma(seed=5)
        a = fit_mixture(x)
        b = fit_mixture(x)
        assert a.weights == b.weights and a.t_params == b.t_params

    def test_planted_set_trace_stays_monotone(self):
        # paper-scale planted set whose negative tail shape ran away without
        # the shape cap (19 -> 1.4e14 at w_neg ~ 6e-4) and whose trace then
        # dropped by 4
        rc, labels = planted_runset(PlantSpec(n=2000, n_C=8, K=20, n_planted=3, overlap=0.9, seed=35))
        t, _ = group_tstat(normalize_maps(rc.maps[np.arange(20), labels[2]]))
        fit = fit_mixture(t)
        assert (np.diff(fit.loglik_trace) >= -1e-8).all()

    def _tight_tail(self, seed=8):
        # a positive tail clustered so tightly that its moment-matched Gamma
        # shape on y = x - shift is about 2e4, far above the cap
        rng = np.random.default_rng(seed)
        return np.concatenate([
            stats.t.rvs(20.0, size=18_000, random_state=rng),
            8.0 + 0.02 * rng.standard_normal(2000),
        ])

    def test_moment_matched_shape_above_cap_keeps_trace_monotone(self):
        x = self._tight_tail()
        y = x[x > np.quantile(x, 0.9)] - np.quantile(x, 0.9)
        assert y.mean() ** 2 / y.var() > 10 * _SHAPE_CAP
        fit = fit_mixture(x)
        assert (np.diff(fit.loglik_trace) >= -1e-8).all()
        assert fit.weights[1] == pytest.approx(0.10, abs=0.01)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_gamma_shape_never_exceeds_cap(self, seed):
        x = self._tight_tail(seed)
        for t in (x, -x):
            fit = fit_mixture(t)
            assert max(fit.gamma_pos[0], fit.gamma_neg[0]) == _SHAPE_CAP

    def test_tolerance_is_per_location(self):
        # the last (plain) step moved the log-likelihood by less than tol per
        # location, though by far more than tol in total
        x = self._with_gamma(seed=2)
        fit = fit_mixture(x, MixtureConfig(tol=1e-6))
        step = fit.loglik_trace[-1] - fit.loglik_trace[-2]
        assert fit.converged and 1e-3 < step < 1e-6 * x.size

    def test_config_caps_iterations(self):
        fit = fit_mixture(self._with_gamma(seed=7), MixtureConfig(max_iters=3, tol=1e-300))
        assert len(fit.loglik_trace) == 3 and not fit.converged

    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1.0},
                                     {"tol": float("nan")}, {"tol": float("inf")}])
    def test_bad_config(self, bad):
        with pytest.raises(ValueError):
            MixtureConfig(**bad)

    def test_too_few_values(self):
        with pytest.raises(DegenerateDataError):
            fit_mixture(np.zeros(50))

    def test_zero_spread(self):
        with pytest.raises(DegenerateDataError):
            fit_mixture(np.zeros(500))


class TestWeightedGammaMle:
    """The M-step's Gamma-shape solve against a tight bracketing root of
    log a - digamma(a) = s, with s the weighted log-mean gap of the sample."""

    @staticmethod
    def _sample(shape, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.gamma(shape, 0.5, size=500)
        return y, np.log(y), rng.uniform(0.01, 1.0, size=500)

    @staticmethod
    def _ybar_and_gap(y, logy, w):
        ybar = float(np.dot(w, y) / w.sum())
        return ybar, np.log(ybar) - float(np.dot(w, logy) / w.sum())

    def _root(self, s):
        def f(a):
            return np.log(a) - special.digamma(a) - s

        return optimize.brentq(f, 1e-3, _SHAPE_CAP, xtol=1e-300, rtol=4 * np.finfo(float).eps)

    def _near_cap(self):
        # a sample whose MLE shape is 99.9: raise a Gamma sample to the power
        # that sets its log-mean gap to that of shape 99.9
        y0, logy0, w = self._sample(50.0, seed=1)
        target = np.log(99.9) - special.digamma(99.9)
        p = optimize.brentq(
            lambda p: self._ybar_and_gap(y0**p, p * logy0, w)[1] - target, 0.1, 10.0, xtol=1e-15
        )
        return y0**p, p * logy0, w

    @pytest.mark.parametrize("shape", [0.05, 0.3, 1.0, 4.0, 20.0, 90.0, "near cap"])
    def test_shape_and_rate_match_a_tight_root(self, shape):
        y, logy, w = self._near_cap() if shape == "near cap" else self._sample(shape)
        ybar, s = self._ybar_and_gap(y, logy, w)
        root = self._root(s)
        a, rate = _weighted_gamma_mle(y, logy, w)
        assert abs(a - root) <= 1e-12 * root
        assert rate == a / ybar
        if shape == "near cap":
            assert 99.8 < a < _SHAPE_CAP

    def test_root_above_the_cap_returns_the_cap(self):
        y, logy, w = self._sample(2e4)
        ybar, s = self._ybar_and_gap(y, logy, w)
        assert np.log(_SHAPE_CAP) - special.digamma(_SHAPE_CAP) > s
        assert _weighted_gamma_mle(y, logy, w) == (_SHAPE_CAP, _SHAPE_CAP / ybar)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(6)
    x = np.concatenate([
        stats.t.rvs(20.0, size=18_000, random_state=rng),
        2.0 + stats.gamma.rvs(4.0, scale=1.0, size=2000, random_state=rng),
    ])
    return fit_mixture(x), x


class TestClassification:
    def test_far_tail_is_positive(self, fitted):
        fit, _ = fitted
        assert classify_voxels(fit, np.array([15.0]))[0] == LABEL_POSITIVE

    def test_mode_is_null(self, fitted):
        fit, _ = fitted
        assert classify_voxels(fit, np.array([fit.t_params[0]]))[0] == LABEL_NULL

    def test_labels_follow_strict_majority(self, fitted):
        fit, x = fitted
        resp = responsibilities(fit, x)
        labels = classify_voxels(fit, x)
        expected = np.where(resp[:, 1] > 0.5, LABEL_POSITIVE, LABEL_NULL)
        expected = np.where(resp[:, 2] > 0.5, LABEL_NEGATIVE, expected)
        np.testing.assert_array_equal(labels, expected)

    def test_responsibilities_rows_sum_to_one(self, fitted):
        fit, x = fitted
        resp = responsibilities(fit, x)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_histogram_layout(self, fitted):
        fit, x = fitted
        H = histogram_data(fit, x, bins=40)
        assert H.shape == (6, 40)
        assert H[2].sum() == pytest.approx(x.size)
        assert (H[1] > H[0]).all()  # right edges exceed left edges

    def test_tail_responsibilities_vanish_off_support(self, fitted):
        fit, x = fitted
        resp = responsibilities(fit, x)
        off_pos, off_neg = x <= fit.gamma_pos[2], -x <= fit.gamma_neg[2]
        assert off_pos.any() and off_neg.any()
        assert (resp[off_pos, 1] == 0.0).all()
        assert (resp[off_neg, 2] == 0.0).all()

    def test_histogram_tail_densities_follow_support(self, fitted):
        fit, x = fitted
        H = histogram_data(fit, x, bins=40)
        centers = 0.5 * (H[0] + H[1])
        for row, on in ((H[4], centers > fit.gamma_pos[2]), (H[5], -centers > fit.gamma_neg[2])):
            assert on.any() and not on.all()
            assert (row[~on] == 0.0).all()
            assert (row[on] > 0.0).all()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    # one planted component at the acceptance-test shape, through the same
    # normalize -> t-map -> fit -> classify/histogram path as `mixture`; any
    # change to the E-step's arithmetic order changes these bytes
    @pytest.fixture(scope="class")
    def planted(self):
        rc, labels = planted_runset(PlantSpec(n=2000, n_C=8, K=20, n_planted=3, seed=1))
        normalized = normalize_maps(rc.maps[np.arange(20), labels[0]])
        t, _ = group_tstat(normalized)
        return normalized, t, fit_mixture(t)

    def test_normalize_maps_digest_is_pinned(self, planted):
        assert _digest(planted[0]) == (
            "28e408cc1045273e8b8f82d68c45b53fa1aae91bdbec2c20bde01f1fed6365ae"
        )

    def test_fit_digest_is_pinned(self, planted):
        _, _, fit = planted
        params = np.array([*fit.weights, *fit.t_params, *fit.gamma_pos, *fit.gamma_neg])
        assert (len(fit.loglik_trace), fit.converged) == (71, True)
        assert _digest(params, fit.loglik_trace) == (
            "dd9aff2cbc26e613142360967ba9600cd86d55fba8b19a09c42893233aca1a0f"
        )

    @pytest.mark.parametrize("m", range(1, 10))
    def test_fit_stops_at_every_point_of_a_cycle(self, planted, m):
        # the first three cycles each extrapolate, so m = 1..9 stop after the
        # first step, after the second step and after the extrapolation,
        # three times over, and the capped fit is a prefix of the full one
        _, t, fit = planted
        capped = fit_mixture(t, MixtureConfig(max_iters=m))
        assert len(capped.loglik_trace) == m and not capped.converged
        np.testing.assert_array_equal(capped.loglik_trace, fit.loglik_trace[:m])

    def test_fit_converges_in_fewer_evaluations_than_plain_em(self, planted):
        # plain EM with an absolute tolerance stopped this fit after 412
        fit = planted[2]
        assert fit.converged and len(fit.loglik_trace) < 412

    def test_labels_responsibilities_and_histogram_digests_are_pinned(self, planted):
        _, t, fit = planted
        assert _digest(classify_voxels(fit, t)) == (
            "3eb36906f3b84ba86f4e5440656287cc4abc3c6a2e000a3e26300d2aad40d48c"
        )
        assert _digest(responsibilities(fit, t)) == (
            "df173266c85e188fb51d3ae98a5580ef5d0544ac4c5b2de5cd08bf2e170cb0de"
        )
        assert _digest(histogram_data(fit, t)) == (
            "a5271591023ac1e9034655810298f610745c1aae89d8faa4e9c4f7dab06dcdce"
        )

    def test_squarem_branch_fit_is_pinned(self):
        # The planted fit above rejects 6 extrapolations, skips one whose
        # step length comes out short of -1 and grows the step bound twice,
        # but never shrinks the bound. This fit takes each of those branches
        # and also shrinks the bound after a rejected clamped step, 16 -> 4.
        fit = fit_mixture(np.random.default_rng(19).standard_normal(100))
        params = np.array([*fit.weights, *fit.t_params, *fit.gamma_pos, *fit.gamma_neg])
        assert (len(fit.loglik_trace), fit.converged) == (37, True)
        assert _digest(params, fit.loglik_trace) == (
            "84de1f7b0cd251794f0cfbffc0bb0fd126cb38ad553940ad21a10d58f1296d27"
        )
