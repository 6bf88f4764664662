"""Non-Gaussian structure display: empirical-CDF normalization, group
t-statistics over sign-aligned maps, and a three-class mixture of a
Student-t background with positive- and negative-tail shifted Gammas.

The EM loop is a generalized EM: every M-step conditionally maximizes the
complete-data objective, so the recorded log-likelihood trace is
non-decreasing (asserted to 1e-8 by the tests).
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from .errors import DegenerateDataError

LABEL_NULL = 0
LABEL_POSITIVE = 1
LABEL_NEGATIVE = -1

_DOF_GRID = (3.0, 5.0, 10.0, 20.0, 30.0, np.inf)
_WEIGHT_FREEZE = 1e-6
_SHIFT_QUANTILE = 0.90
_DOF_CADENCE = 10


def normalize_empirical(values) -> np.ndarray:
    """Map the m values along the last axis to standard normal quantiles at
    (rank - 0.5) / m, with average ranks on ties; a constant vector maps to
    zeros."""
    v = np.asarray(values, dtype=np.float64)
    m = v.shape[-1]
    if m < 2:
        raise DegenerateDataError("need at least 2 values per location")
    ranks = stats.rankdata(v, method="average", axis=-1)
    return stats.norm.ppf((ranks - 0.5) / m)


def normalize_maps(maps) -> np.ndarray:
    """Row-wise empirical normalization of a K x n stack: each map's values
    are rank-transformed to standard normal quantiles over its n locations,
    so cross-map agreement at a location survives the transform.

    (Normalizing per location across only K maps would send every column to
    a permutation of the same quantile multiset, making group means
    identically zero.)
    """
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 2:
        raise DegenerateDataError("expected a K x n matrix")
    return normalize_empirical(maps)


def group_tstat(aligned_maps):
    """One-sample t-statistic per location over K aligned maps.

    Returns (t, degenerate) where degenerate flags zero-variance locations
    (their t is set to 0 rather than +-inf).
    """
    X = np.asarray(aligned_maps, dtype=np.float64)
    K = X.shape[0]
    if K < 2:
        raise DegenerateDataError("need at least 2 maps")
    mean = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    degenerate = sd == 0.0
    t = np.zeros_like(mean)
    ok = ~degenerate
    t[ok] = mean[ok] / (sd[ok] / np.sqrt(K))
    return t, degenerate


@dataclass(frozen=True)
class MixtureFit:
    """Three-class fit: (background t, positive Gamma tail, negative Gamma
    tail). The negative class is a shifted Gamma on -x."""

    weights: tuple  # (w_t, w_pos, w_neg)
    t_params: tuple  # (location, scale, dof)
    gamma_pos: tuple  # (shape, rate, shift)
    gamma_neg: tuple  # (shape, rate, shift), on negated values
    loglik_trace: np.ndarray
    converged: bool

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")
        trace = np.asarray(self.loglik_trace, dtype=np.float64)
        if (np.diff(trace) < -1e-8).any():
            raise ValueError("log-likelihood trace must be non-decreasing")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "loglik_trace", trace)


def _t_logpdf(x, loc, scale, dof):
    z = (x - loc) / scale
    if np.isinf(dof):
        return -0.5 * z**2 - 0.5 * np.log(2.0 * np.pi) - np.log(scale)
    const = (
        special.gammaln((dof + 1.0) / 2.0)
        - special.gammaln(dof / 2.0)
        - 0.5 * np.log(dof * np.pi)
        - np.log(scale)
    )
    return const - 0.5 * (dof + 1.0) * np.log1p(z**2 / dof)


def _tail_supports(x, shift_pos, shift_neg):
    """(mask, y, log y) on the support y > 0 of each Gamma tail, with
    y = x - shift_pos and y = -x - shift_neg; the shifts are fixed, so
    these are constants of a fit."""
    supports = []
    for y in (x - shift_pos, -x - shift_neg):
        pos = y > 0
        supports.append((pos, y[pos], np.log(y[pos])))
    return supports


def _class_logpdfs(x, t_params, gammas, supports):
    """Class log densities, columns (t, Gamma+, Gamma-); -inf off a Gamma's support."""
    lp = np.full((x.shape[0], 3), -np.inf)
    lp[:, 0] = _t_logpdf(x, *t_params)
    for k, ((shape, rate, _), (pos, y, logy)) in enumerate(zip(gammas, supports), start=1):
        lp[pos, k] = shape * np.log(rate) - special.gammaln(shape) + (shape - 1) * logy - rate * y
    return lp


def _posterior(lp, weights):
    """E-step: (log-likelihood, class posteriors) of class log densities."""
    with np.errstate(divide="ignore"):
        joint = lp + np.log(weights)[None, :]
    mx = joint.max(axis=1)
    resp = np.exp(joint - mx[:, None])
    dens = resp.sum(axis=1)
    resp /= dens[:, None]
    return float((mx + np.log(dens)).sum()), resp


def _weighted_gamma_mle(y, logy, w):
    """Weighted maximum-likelihood (shape, rate) of a Gamma on y > 0."""
    wsum = w.sum()
    ybar = float(np.dot(w, y) / wsum)
    logbar = float(np.dot(w, logy) / wsum)
    s = np.log(ybar) - logbar
    if s <= 0:  # numerically degenerate (all y nearly equal)
        s = 1e-12
    a0 = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)

    def f(a):
        return np.log(a) - special.digamma(a) - s

    lo, hi = a0 / 10.0, a0 * 10.0
    while f(lo) < 0:
        lo /= 10.0
    while f(hi) > 0:
        hi *= 10.0
    shape = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)
    return float(shape), float(shape / ybar)


def _select_dof(x, loc, scale, weights=None):
    """Pick the background dof from a fixed grid by (weighted) likelihood."""
    best, best_ll = _DOF_GRID[0], -np.inf
    for dof in _DOF_GRID:
        lp = _t_logpdf(x, loc, scale, dof)
        ll = float(lp.sum() if weights is None else np.dot(weights, lp))
        if ll > best_ll:
            best, best_ll = dof, ll
    return best


def fit_mixture(t_map, max_iters: int = 500, tol: float = 1e-9) -> MixtureFit:
    """EM fit of the t / Gamma+ / Gamma- mixture to a statistic map.

    The background dof is picked from a small grid (re-selected every few
    iterations as a conditional-maximization step, so the trace stays
    monotone); Gamma shifts are fixed at the upper decile of the data
    (respectively negated data), far enough out that a pure background
    drives both tail weights toward zero. Classes whose weight falls
    below 1e-6 have their shape parameters frozen.
    """
    x = np.asarray(t_map, dtype=np.float64).ravel()
    n = x.shape[0]
    if n < 100:
        raise DegenerateDataError(f"need at least 100 values, got {n}")

    loc = float(np.median(x))
    scale = float(np.median(np.abs(x - loc)) * 1.4826)
    # a spread that is pure floating-point noise destabilizes the EM just
    # like an exactly-zero one
    if scale <= 1e-12 * max(1.0, float(np.abs(x).max())):
        raise DegenerateDataError("statistic map has (numerically) zero spread")
    dof = _select_dof(x, loc, scale)
    t_params = (loc, scale, dof)

    shifts = (float(np.quantile(x, _SHIFT_QUANTILE)), float(np.quantile(-x, _SHIFT_QUANTILE)))
    supports = _tail_supports(x, *shifts)
    gammas = [(*_init_gamma(y), shift) for (_, y, _), shift in zip(supports, shifts)]
    weights = np.array([0.9, 0.05, 0.05])

    trace = []
    converged = False
    for it in range(max_iters):
        ll, resp = _posterior(_class_logpdfs(x, t_params, gammas, supports), weights)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break

        weights = resp.mean(axis=0)
        if weights[0] > _WEIGHT_FREEZE:
            t_params = _update_t(x, resp[:, 0], t_params, refit_dof=it % _DOF_CADENCE == 0)
        for k in (1, 2):
            if weights[k] > _WEIGHT_FREEZE:
                gammas[k - 1] = _update_gamma(supports[k - 1], resp[:, k], gammas[k - 1])

    return MixtureFit(
        weights=tuple(weights),
        t_params=t_params,
        gamma_pos=gammas[0],
        gamma_neg=gammas[1],
        loglik_trace=np.array(trace),
        converged=converged,
    )


def _init_gamma(y):
    """Moment-matched (shape, rate) for the values y > 0 of a tail."""
    if y.size < 2:
        return 2.0, 2.0
    m, v = float(y.mean()), float(y.var())
    v = max(v, 1e-12)
    return max(m * m / v, 1e-3), max(m / v, 1e-6)


def _update_t(x, r, t_params, refit_dof=False):
    """One conditional-maximization step for the t location and scale
    (latent-scale EM update); optionally re-selects the dof from the grid,
    which is itself a conditional maximization and keeps the EM monotone."""
    loc, scale, dof = t_params
    rsum = r.sum()
    if rsum <= 0:
        return t_params
    z2 = ((x - loc) / scale) ** 2
    u = np.ones_like(x) if np.isinf(dof) else (dof + 1.0) / (dof + z2)
    ru = r * u
    loc_new = float(np.dot(ru, x) / ru.sum())
    scale_new = float(np.sqrt(max(np.dot(ru, (x - loc_new) ** 2) / rsum, 1e-300)))
    dof_new = _select_dof(x, loc_new, scale_new, weights=r) if refit_dof else dof
    return (loc_new, scale_new, dof_new)


def _update_gamma(support, r, params):
    """Weighted Gamma shape/rate update with the shift held fixed."""
    pos, y, logy = support
    w = r[pos]
    if w.sum() <= 1e-12:
        return params
    return (*_weighted_gamma_mle(y, logy, w), params[2])


def _fit_logpdfs(fit: MixtureFit, x):
    supports = _tail_supports(x, fit.gamma_pos[2], fit.gamma_neg[2])
    return _class_logpdfs(x, fit.t_params, (fit.gamma_pos, fit.gamma_neg), supports)


def responsibilities(fit: MixtureFit, t_map) -> np.ndarray:
    """Posterior class probabilities, one row per location, columns
    (t, positive, negative); rows sum to 1."""
    x = np.asarray(t_map, dtype=np.float64).ravel()
    return _posterior(_fit_logpdfs(fit, x), np.asarray(fit.weights))[1]


def classify_voxels(fit: MixtureFit, t_map) -> np.ndarray:
    """Label each location positive/negative when the matching Gamma class
    holds strictly more than half of the posterior, else null."""
    resp = responsibilities(fit, t_map)
    labels = np.zeros(resp.shape[0], dtype=np.int8)
    labels[resp[:, 1] > 0.5] = LABEL_POSITIVE
    labels[resp[:, 2] > 0.5] = LABEL_NEGATIVE
    return labels


def histogram_data(fit: MixtureFit, t_map, bins: int = 100) -> np.ndarray:
    """Plot-ready summary: rows are (left edges, right edges, counts,
    t density, Gamma+ density, Gamma- density) at the bin centers,
    densities scaled by their class weights."""
    x = np.asarray(t_map, dtype=np.float64).ravel()
    counts, edges = np.histogram(x, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = np.exp(_fit_logpdfs(fit, centers)) * np.asarray(fit.weights)[None, :]
    return np.vstack([edges[:-1], edges[1:], counts.astype(np.float64), dens.T])
