"""Permutation null model for reproducibility and p-value assignment.

Null replicates re-partition the K*n_C component labels into K pseudo-runs
by permuting the stored signed correlation matrix, re-run the greedy
matching, score the sets with the same functions as the observed sets,
and pool the resulting reproducibility values. Each replicate
draws its RNG from (seed, replicate_index) so replicates can run
concurrently without changing any output bit.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPermutationError
from .raicar import (
    compute_crcm,
    match_and_score,
    match_components,
    normalized_reproducibility,
    similarity_matrix,
)
from .types import Crcm, ReproducibilityReport, RunCollection


@dataclass(frozen=True)
class NullConfig:
    R: int = 100
    seed: int = 0
    p_crit: float = 0.05

    def __post_init__(self):
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if not 0.0 < self.p_crit < 1.0:
            raise ValueError(f"p_crit must lie in (0, 1), got {self.p_crit}")


def permute_crcm(G: Crcm, g) -> Crcm:
    """Relabel components by permutation g, applied to rows and columns of
    the signed correlation matrix; the new partition into runs follows
    from the flat indices."""
    g = np.asarray(g)
    N = G.K * G.n_C
    if g.shape != (N,) or not np.array_equal(np.sort(g), np.arange(N)):
        raise InvalidPermutationError(f"not a permutation of 0..{N - 1}")
    return Crcm(G.K, G.n_C, G.signed[np.ix_(g, g)])


def _replicate_values(G: Crcm, seed, r) -> np.ndarray:
    """Reproducibility values of one null replicate, scored exactly as the
    observed sets are."""
    rng = np.random.default_rng([seed, r])
    Gp = permute_crcm(G, rng.permutation(G.K * G.n_C))
    matched = match_components(Gp)
    return normalized_reproducibility(similarity_matrix(Gp, [m for m, _ in matched]))


def null_distribution(rc: RunCollection, G: Crcm, cfg: NullConfig, threads: int = 1) -> np.ndarray:
    """Pooled vector of R * n_C reproducibility values under the
    no-reproducibility null; deterministic given cfg.seed and cfg.R."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(lambda r: _replicate_values(G, cfg.seed, r), range(cfg.R)))
    else:
        chunks = [_replicate_values(G, cfg.seed, r) for r in range(cfg.R)]
    return np.concatenate(chunks)


def p_values(observed, null_pool) -> np.ndarray:
    """p_i = (#{null >= observed_i} + 1) / (len(null_pool) + 1)."""
    null_sorted = np.sort(np.asarray(null_pool, dtype=np.float64))
    obs = np.asarray(observed, dtype=np.float64)
    n = null_sorted.shape[0]
    if n == 0:
        raise ValueError("null pool must be non-empty")
    count_ge = n - np.searchsorted(null_sorted, obs, side="left")
    return (count_ge + 1.0) / (n + 1.0)


def select_significant(p, p_crit: float) -> np.ndarray:
    """Strict cutoff: significant iff p < p_crit."""
    return np.asarray(p, dtype=np.float64) < p_crit


def run_raicar_n(rc: RunCollection, cfg: NullConfig, threads: int = 1) -> ReproducibilityReport:
    """Full pipeline: correlation matrix, greedy matching, reproducibility,
    permutation null, p-values, significance; sorted by descending
    reproducibility."""
    G = compute_crcm(rc)
    matched = sorted(match_and_score(rc, G), key=lambda mc: -mc.reproducibility)
    pool = null_distribution(rc, G, cfg, threads=threads)
    obs = np.array([mc.reproducibility for mc in matched])
    p = p_values(obs, pool)
    sig = select_significant(p, cfg.p_crit)
    return ReproducibilityReport(tuple(matched), pool, p, cfg.p_crit, sig)
