"""Non-Gaussian structure display: empirical-CDF normalization, group
t-statistics over sign-aligned maps, and a three-class mixture of a
Student-t background with positive- and negative-tail shifted Gammas.

The EM loop is a generalized EM: every M-step conditionally maximizes the
complete-data objective, so each plain step cannot lower the
log-likelihood. Each pass is one SQUAREM cycle (Varadhan & Roland, 2008):
two plain steps, then one extrapolation, kept only when it is at least as
likely as the second step, so the recorded log-likelihood trace is
non-decreasing (asserted to 1e-8 by the tests).

The module needs numpy and the standard library. Normal quantiles come
from statistics.NormalDist, which evaluates Wichura's AS241 (1988, Appl.
Statist. 37:477); log-gammas from math.lgamma; digamma and trigamma from
the recurrence up to an argument of at least 10, then their asymptotic
(Bernoulli) series.
"""

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .config import MixtureConfig
from .errors import DegenerateDataError, NonFiniteError

LABEL_NULL = 0
LABEL_POSITIVE = 1
LABEL_NEGATIVE = -1

_DOF_GRID = (3.0, 5.0, 10.0, 20.0, 30.0, np.inf)
_WEIGHT_FREEZE = 1e-6
_SHIFT_QUANTILE = 0.90
_DOF_CADENCE = 3  # SQUAREM cycles between dof re-selections
# Gamma shape cap: without it a tail of vanishing weight can run its shape
# to 1e11-1e14, where shape*log(rate) and lgamma(shape) cancel to a loss of
# about one unit of log density per location and the trace drops.
_SHAPE_CAP = 100.0
_NEWTON_STEPS = 3  # Gamma-shape solve: a third step reaches rounding
# SQUAREM's bound on the step length |alpha| starts at this factor, grows by
# it after each accepted extrapolation that it clamped and shrinks by it (to
# no less than the start) after each rejected one. Unbounded, a slow drift
# (EM rate near 1) asks for |alpha| near 1e3, and every such point is rejected.
_STEP_FACTOR = 4.0

def _digamma(a: float) -> float:
    """psi(a) for a > 0: psi(a) = psi(a + 1) - 1/a up to a >= 10, then
    log a - 1/(2a) - sum_k B_2k / (2k a^2k) to k = 7."""
    shift = 0.0
    while a < 10.0:
        shift += 1.0 / a
        a += 1.0
    h = 1.0 / (a * a)
    series = h * (1 / 12 - h * (1 / 120 - h * (1 / 252 - h * (1 / 240 - h * (
        1 / 132 - h * (691 / 32760 - h / 12))))))
    return math.log(a) - 0.5 / a - series - shift


def _trigamma(a: float) -> float:
    """psi'(a) for a > 0: psi'(a) = psi'(a + 1) + 1/a^2 up to a >= 10, then
    1/a + 1/(2a^2) + sum_k B_2k / a^(2k+1) to k = 7."""
    shift = 0.0
    while a < 10.0:
        shift += 1.0 / (a * a)
        a += 1.0
    h = 1.0 / (a * a)
    series = (1.0 + h * (1 / 6 - h * (1 / 30 - h * (1 / 42 - h * (1 / 30 - h * (
        5 / 66 - h * (691 / 2730 - h * 7 / 6))))))) / a
    return series + 0.5 * h + shift


# Fixed cap on one block of normalize_maps: about this many cells.
_NORMALIZE_CELLS = 2**16


def _quantile_table(m) -> np.ndarray:
    """Standard normal quantiles at the 2m - 1 probabilities (k/2 + 0.5)/m,
    k = 0 .. 2m - 2, those of the half-integer ranks k/2 + 1 of m values.
    (k/2 + 0.5)/m and (k + 1)/2m are the same double: each is one rounded
    division of the same exact value. Filled one value at a time, so no
    Python list of them is held."""
    inv_cdf = NormalDist().inv_cdf
    n = 2 * m
    return np.fromiter((inv_cdf(j / n) for j in range(1, n)), np.float64, n - 1)


def normalize_maps(maps) -> np.ndarray:
    """Row-wise empirical normalization of a K x n stack: each map's m
    values are mapped to standard normal quantiles at (rank - 0.5) / m over
    its own locations, with average ranks on ties (a constant map maps to
    zeros), so cross-map agreement at a location survives the transform.

    (Normalizing per location across only K maps would send every column to
    a permutation of the same quantile multiset, making group means
    identically zero.)

    Each row is sorted once. A tie run at sorted positions first..last has
    the average rank (first + last) / 2 + 1, a half-integer and so exact,
    and its quantile is looked up by first + last in a table of 2m - 1.
    Rows go through in blocks of about _NORMALIZE_CELLS cells, so each
    temporary stays near 512 kB whatever the stack's height.
    """
    v = np.asarray(maps, dtype=np.float64)
    m = v.shape[-1]
    if m < 2:
        raise DegenerateDataError("need at least 2 values per map")
    rows = v.reshape(-1, m)
    table = _quantile_table(m)
    out = np.empty_like(rows)
    step = max(1, _NORMALIZE_CELLS // m)
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        if np.isnan(block).any():
            raise NonFiniteError("cannot rank NaN values")
        order = np.argsort(block, axis=-1)
        ordered = np.take_along_axis(block, order, axis=-1)
        starts = np.ones(block.shape, dtype=bool)  # where each tie run begins
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        last = np.append(first[1:], starts.size) - 1
        run_quantile = table[first % m + last % m]
        run_of = np.cumsum(starts).reshape(block.shape) - 1  # tie run of each sorted cell
        np.put_along_axis(out[s : s + step], order, run_quantile[run_of], axis=-1)
    return out.reshape(v.shape)


def group_tstat(aligned_maps):
    """One-sample t-statistic per location over K aligned maps.

    Returns (t, degenerate) where degenerate flags zero-variance locations
    (their t is set to 0 rather than +-inf). A standard deviation within
    rounding of |mean| counts as zero: K equal values can average to a mean
    one ulp off, which leaves an sd near 1e-16 |mean| and |t| near 1e16.
    """
    X = np.asarray(aligned_maps, dtype=np.float64)
    K = X.shape[0]
    if K < 2:
        raise DegenerateDataError("need at least 2 maps")
    mean = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    degenerate = sd <= 1e-12 * np.abs(mean)
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
    loglik_trace: np.ndarray  # after each E-step evaluation, see fit_mixture
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


def _t_logpdf(z2, scale, dof):
    """Log density of the location-scale t at the squared standardized
    values z2 = ((x - loc) / scale) ** 2; an infinite dof is the normal."""
    if np.isinf(dof):
        return -0.5 * z2 - 0.5 * np.log(2.0 * np.pi) - np.log(scale)
    const = (
        math.lgamma((dof + 1.0) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * np.log(dof * np.pi)
        - np.log(scale)
    )
    return const - 0.5 * (dof + 1.0) * np.log1p(z2 / dof)


def _tail_supports(x, shift_pos, shift_neg):
    """(indices, y, log y) on the support y > 0 of each Gamma tail, with
    y = x - shift_pos and y = -x - shift_neg; the shifts are fixed, so
    these are constants of a fit."""
    supports = []
    for y in (x - shift_pos, -x - shift_neg):
        idx = np.flatnonzero(y > 0)
        supports.append((idx, y[idx], np.log(y[idx])))
    return supports


def _class_logpdfs(x, t_params, gammas, supports):
    """Class log densities, rows (t, Gamma+, Gamma-); -inf off a Gamma's support."""
    lp = np.full((3, x.shape[0]), -np.inf)
    loc, scale, dof = t_params
    lp[0] = _t_logpdf(((x - loc) / scale) ** 2, scale, dof)
    for k, ((shape, rate), (idx, y, logy)) in enumerate(zip(gammas, supports), start=1):
        lp[k, idx] = shape * np.log(rate) - math.lgamma(shape) + (shape - 1) * logy - rate * y
    return lp


def _posterior(lp, weights, supports):
    """E-step: (log-likelihood, class posteriors) of class log densities,
    class-major; works in place on lp."""
    with np.errstate(divide="ignore"):
        lp += np.log(weights)[:, None]
    mx = np.maximum(np.maximum(lp[0], lp[1]), lp[2])
    lp -= mx
    r = lp
    np.exp(r[0], out=r[0])
    # a Gamma row is -inf off its support (about 90% of it), where exp is
    # both slow and known to give 0
    for k, (idx, _, _) in enumerate(supports, start=1):
        on = np.exp(r[k, idx])
        r[k] = 0.0
        r[k, idx] = on
    dens = (r[0] + r[1]) + r[2]
    r /= dens
    return float((mx + np.log(dens)).sum()), r


def _weighted_gamma_mle(y, logy, w):
    """Weighted maximum-likelihood (shape, rate) of a Gamma on y > 0."""
    wsum = w.sum()
    ybar = float(np.dot(w, y) / wsum)
    logbar = float(np.dot(w, logy) / wsum)
    s = np.log(ybar) - logbar
    if s <= 0:  # numerically degenerate (all y nearly equal)
        s = 1e-12

    def f(a):
        return np.log(a) - _digamma(a) - s

    # log a - digamma(a) falls in a, so the root exceeds the cap exactly when
    # f(cap) > 0; the profile log-likelihood is concave in the shape, so the
    # cap is then the constrained maximiser. Below it, Newton steps in 1/a
    # from a closed-form start (Minka, 2002) reach the root to within
    # rounding.
    if f(_SHAPE_CAP) >= 0:
        return _SHAPE_CAP, _SHAPE_CAP / ybar
    a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_NEWTON_STEPS):
        a = 1.0 / (1.0 / a + f(a) / (a - a * a * _trigamma(a)))
    return float(a), float(a / ybar)


def _select_dof(x, loc, scale, weights=None):
    """Pick the background dof from a fixed grid by (weighted) likelihood."""
    best, best_ll = _DOF_GRID[0], -np.inf
    z2 = ((x - loc) / scale) ** 2  # the same at every grid value
    for dof in _DOF_GRID:
        lp = _t_logpdf(z2, scale, dof)
        ll = float(lp.sum() if weights is None else np.dot(weights, lp))
        if ll > best_ll:
            best, best_ll = dof, ll
    return best


def _m_step(x, resp, params, supports, refit_dof):
    """One generalized-EM M-step from the posteriors of an evaluated point."""
    _, t_params, gammas = params
    weights = resp.sum(axis=1) / x.shape[0]
    # a class above _WEIGHT_FREEZE holds over 1e-4 of posterior mass (n >= 100),
    # and a Gamma's mass lies on its support, so no update divides by zero
    if weights[0] > _WEIGHT_FREEZE:
        t_params = _update_t(x, resp[0], t_params, refit_dof)
    gammas = tuple(
        _weighted_gamma_mle(y, logy, resp[k][idx]) if weights[k] > _WEIGHT_FREEZE else g
        for k, (g, (idx, y, logy)) in enumerate(zip(gammas, supports), start=1)
    )
    return weights, t_params, gammas


def _unconstrained(params):
    """SQUAREM coordinates of a point: log weights, location, log scale and
    the log shape and rate of each Gamma."""
    weights, (loc, scale, _), ((a1, b1), (a2, b2)) = params
    with np.errstate(divide="ignore"):
        return np.array([*np.log(weights), loc, *np.log([scale, a1, b1, a2, b2])])


def _squarem_point(p0, p1, p2, step_max):
    """The S3 extrapolation of two EM steps p0 -> p1 -> p2, its step length
    clamped to [-step_max, -1], with p2's dof and the shapes capped. Returns
    (point, clamped); the point is None when the step length is -1, which
    gives back p2, or when it is not finite (e.g. from a weight of 0)."""
    th0, th1, th2 = _unconstrained(p0), _unconstrained(p1), _unconstrained(p2)
    r = th1 - th0
    v = (th2 - th1) - r
    with np.errstate(all="ignore"):
        alpha = -np.sqrt(np.dot(r, r) / np.dot(v, v))
        clamped = alpha < -step_max
        alpha = max(alpha, -step_max)
        if not alpha < -1.0:
            return None, clamped
        th = th0 - 2.0 * alpha * r + alpha * alpha * v
        th[[5, 7]] = np.minimum(th[[5, 7]], np.log(_SHAPE_CAP))
        w = np.exp(th[:3] - th[:3].max())
        scale, a1, b1, a2, b2 = np.exp(th[4:])
    if not np.isfinite([*th, scale, b1, b2]).all():
        return None, clamped
    return (w / w.sum(), (th[3], scale, p2[1][2]), ((a1, b1), (a2, b2))), clamped


def fit_mixture(t_map, cfg: MixtureConfig = MixtureConfig()) -> MixtureFit:
    """EM fit of the t / Gamma+ / Gamma- mixture to a statistic map of at
    least 100 values with some spread (else DegenerateDataError); stops
    when a plain EM step moves the log-likelihood by less than cfg.tol per
    location (|dL| / n < cfg.tol), or after cfg.max_iters evaluations.

    Each pass is one SQUAREM cycle: two plain EM steps, then one
    extrapolation from them with an adaptively bounded step length, kept
    only if its log-likelihood is at least the second step's. An evaluation
    is one E-step, and loglik_trace holds the log-likelihood of the current
    point after each one (a rejected extrapolation repeats the last value).

    The background dof is picked from a small grid (re-selected in the
    first step of every third cycle as a conditional-maximization step, so
    the trace stays monotone, and held through the rest of the cycle);
    Gamma shifts are fixed at the upper decile of the data (respectively
    negated data), far enough out that a pure background drives both tail
    weights toward zero. Gamma shapes are capped at _SHAPE_CAP. Classes
    whose weight falls below 1e-6 have their shape parameters frozen.
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

    shifts = (float(np.quantile(x, _SHIFT_QUANTILE)), float(np.quantile(-x, _SHIFT_QUANTILE)))
    supports = _tail_supports(x, *shifts)

    def e_step(weights, t_params, gammas):
        return _posterior(_class_logpdfs(x, t_params, gammas, supports), weights, supports)

    gammas = tuple(_init_gamma(y) for _, y, _ in supports)
    params = (np.array([0.9, 0.05, 0.05]), (loc, scale, dof), gammas)
    ll, resp = e_step(*params)
    trace = [ll]
    step_max = _STEP_FACTOR
    converged = False
    for cycle in itertools.count():
        points = [params]
        for refit_dof in (cycle % _DOF_CADENCE == 0, False):
            if converged or len(trace) >= cfg.max_iters:
                break
            params = _m_step(x, resp, params, supports, refit_dof)
            points.append(params)
            new_ll, resp = e_step(*params)
            # only a plain step measures convergence: an extrapolation that
            # lands near the second step's point gains little even far from
            # the optimum
            converged = abs(new_ll - ll) < cfg.tol * n
            ll = new_ll
            trace.append(ll)
        if converged or len(trace) >= cfg.max_iters:
            break
        candidate, clamped = _squarem_point(*points, step_max)
        if candidate is None:
            continue
        # a far extrapolation may overflow; a non-finite log-likelihood then
        # fails the guard
        with np.errstate(all="ignore"):
            cand_ll, cand_resp = e_step(*candidate)
        if cand_ll >= ll:
            params, ll, resp = candidate, cand_ll, cand_resp
            if clamped:
                step_max *= _STEP_FACTOR
        elif clamped:
            step_max = max(step_max / _STEP_FACTOR, _STEP_FACTOR)
        trace.append(ll)

    weights, t_params, (gamma_pos, gamma_neg) = params
    return MixtureFit(
        weights=tuple(weights),
        t_params=tuple(map(float, t_params)),
        gamma_pos=(*map(float, gamma_pos), shifts[0]),
        gamma_neg=(*map(float, gamma_neg), shifts[1]),
        loglik_trace=np.array(trace),
        converged=converged,
    )


def _init_gamma(y):
    """Moment-matched (shape, rate) for the values y > 0 of a tail, with the
    shape clamped to [1e-3, _SHAPE_CAP] and the rate matching the mean: an
    initial shape above the cap would let the first capped M-step lower the
    log-likelihood."""
    if y.size < 2:
        return 2.0, 2.0
    m, v = float(y.mean()), float(y.var())
    v = max(v, 1e-12)
    shape = min(max(m * m / v, 1e-3), _SHAPE_CAP)
    return shape, max(shape / m, 1e-6)


def _update_t(x, r, t_params, refit_dof):
    """One conditional-maximization step for the t location and scale
    (latent-scale EM update); optionally re-selects the dof from the grid,
    which is itself a conditional maximization and keeps the EM monotone."""
    loc, scale, dof = t_params
    rsum = r.sum()
    z2 = ((x - loc) / scale) ** 2
    u = np.ones_like(x) if np.isinf(dof) else (dof + 1.0) / (dof + z2)
    ru = r * u
    loc_new = float(np.dot(ru, x) / ru.sum())
    scale_new = float(np.sqrt(max(np.dot(ru, (x - loc_new) ** 2) / rsum, 1e-300)))
    dof_new = _select_dof(x, loc_new, scale_new, weights=r) if refit_dof else dof
    return (loc_new, scale_new, dof_new)


def _fit_logpdfs(fit: MixtureFit, x):
    """(class log densities, tail supports) of a fitted mixture at x."""
    supports = _tail_supports(x, fit.gamma_pos[2], fit.gamma_neg[2])
    return _class_logpdfs(x, fit.t_params, (fit.gamma_pos[:2], fit.gamma_neg[:2]), supports), supports


def responsibilities(fit: MixtureFit, t_map) -> np.ndarray:
    """Posterior class probabilities, one row per location, columns
    (t, positive, negative); rows sum to 1. A transposed view of the
    class-major posteriors, so each column is contiguous."""
    x = np.asarray(t_map, dtype=np.float64).ravel()
    lp, supports = _fit_logpdfs(fit, x)
    return _posterior(lp, np.asarray(fit.weights), supports)[1].T


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
    dens = np.exp(_fit_logpdfs(fit, centers)[0]) * np.asarray(fit.weights)[:, None]
    return np.vstack([edges[:-1], edges[1:], counts.astype(np.float64), dens])
