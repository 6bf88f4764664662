"""Permutation null model for reproducibility and p-value assignment.

Null replicates re-partition the K*n_C component labels into K pseudo-runs
by a random permutation, re-run the greedy matching on the stored signed
correlation matrix under that relabelling, score the sets with the same
helper as the observed sets, and pool the resulting reproducibility
values. The relabelled matrix is never built: the matcher reads each row's
partners from one descending sort of that row, shared by the observed call
and every replicate, and advances per-row pointers in batches of
replicates, through windows that grow from 2 entries, keeping each row's
maximum and used-row mask in pseudo order. A step's per-run pick is one
first-index argmax over the anchor column and row side by side, and no
reduction repeats an argmax to read its maximum. Each replicate draws its
RNG from (seed, replicate_index), so a replicate's values do not depend
on R, on the batching, or on which replicates ran before.
"""

import numpy as np

from .config import NullConfig
# match_components is not called here; it stays bound because the
# benchmark's tracer wraps null.match_components.
from .raicar import (
    _STATE_CELLS,
    _check_permutation,
    _greedy,
    _set_scores,
    compute_crcm,
    match_and_score,
    match_components,  # noqa: F401
)
# p_values is not called here; it stays bound because the benchmark's
# tracer wraps null.p_values, and callers import it from this module.
from .types import Crcm, ReproducibilityReport, RunCollection, p_values  # noqa: F401


def permute_crcm(G: Crcm, g) -> Crcm:
    """Relabel components by permutation g, applied to rows and columns of
    the signed correlation matrix; the new partition into runs follows
    from the flat indices. The null matches on the relabelling instead
    (``match_components(G, g)``); this is its reference."""
    g = _check_permutation(g, G.K * G.n_C)
    return Crcm(G.K, G.n_C, G.signed[np.ix_(g, g)])


def null_distribution(rc: RunCollection, G: Crcm, cfg: NullConfig) -> np.ndarray:
    """Pooled vector of R * n_C reproducibility values under the
    no-reproducibility null; deterministic given cfg.seed and cfg.R.

    Replicate r is the observed matching on the relabelling
    ``default_rng([seed, r]).permutation(N)`` of G, scored by the same
    helper as the observed sets. Replicates are matched in batches of
    about _STATE_CELLS / N, through the matcher's growing pointer windows
    and pseudo-order state, and each batch's sets are scored together.
    ``rc`` is not read (pass None); it stays in first position because
    the benchmark's tracer reads ``(G, cfg)`` by position."""
    N = G.K * G.n_C
    batch = max(1, _STATE_CELLS // N)
    pool = []
    for r0 in range(0, cfg.R, batch):
        perms = np.array([
            np.random.default_rng([cfg.seed, r]).permutation(N)
            for r in range(r0, min(r0 + batch, cfg.R))
        ])
        pool.append(_set_scores(G, _greedy(G, perms)[0].reshape(-1, G.K)))
    return np.concatenate(pool)


def run_raicar_n(runs, cfg: NullConfig) -> ReproducibilityReport:
    """Full pipeline: correlation matrix, greedy matching, reproducibility,
    permutation null; the report derives p-values and significance. Sorted
    by descending reproducibility. ``runs`` is a RunCollection or the
    ``io.RunFiles`` of a manifest (``io.open_runs``), which compute_crcm
    reads in two passes, holding one run, or one block of locations of
    every run, at a time."""
    G = compute_crcm(runs)
    del runs  # only the CRCM is read from here on: let the maps go before the null
    matched = sorted(match_and_score(G), key=lambda mc: -mc.reproducibility)
    return ReproducibilityReport(tuple(matched), null_distribution(None, G, cfg), cfg.p_crit)
