"""Synthetic ground truth: non-Gaussian sources, noisy linear mixtures,
and run collections with a known set of reproducible components."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .types import RunCollection

SOURCE_FAMILIES = ("laplacian", "bernoulli_gaussian", "uniform")


def gen_sources(q: int, n: int, family: str, seed: int) -> np.ndarray:
    """q independent rows drawn iid from a zero-mean, unit-variance
    non-Gaussian family."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return _draw(np.random.default_rng(seed), family, (q, n))


def _draw(rng, family: str, size) -> np.ndarray:
    """iid zero-mean, unit-variance draws of the given size from one
    source family."""
    if family == "laplacian":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=size)
    if family == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    if family == "bernoulli_gaussian":
        # Spike-and-slab with activation probability 0.1, scaled to unit
        # variance.
        active = rng.random(size=size) < 0.1
        return active * rng.standard_normal(size) / np.sqrt(0.1)
    raise DomainError(f"unknown source family {family!r}")


def gen_mixture(S, p: int, sigma: float, seed: int):
    """Noisy linear mixture of the given sources: Y = mu + A S + noise,
    with A's columns orthonormalized and isotropic Gaussian noise."""
    S = np.asarray(S, dtype=np.float64)
    q, n = S.shape
    if p <= q:
        raise DomainError(f"need p > q, got p={p}, q={q}")
    rng = np.random.default_rng(seed)
    A, _ = np.linalg.qr(rng.standard_normal((p, q)))
    mu = rng.standard_normal(p)
    # built in place: Y and the noise are the only p x n arrays held
    Y = mu[:, None] + A @ S
    noise = rng.standard_normal((p, n))
    noise *= sigma
    Y += noise
    return Y, A, mu


@dataclass(frozen=True)
class PlantSpec:
    n: int
    n_C: int
    K: int
    n_planted: int
    overlap: float = 0.9
    noise_kind: str = "laplacian"
    seed: int = 0

    def __post_init__(self):
        if self.K < 2 or self.n_C < 1 or self.n < 2:
            raise DomainError(f"need K >= 2, n_C >= 1, n >= 2; got {self.K}, {self.n_C}, {self.n}")
        if not 0 <= self.n_planted <= self.n_C:
            raise DomainError(f"need 0 <= n_planted <= n_C, got {self.n_planted}")
        if not 0.0 < self.overlap <= 1.0:
            raise DomainError(f"overlap must lie in (0, 1], got {self.overlap}")
        if self.noise_kind not in SOURCE_FAMILIES:
            raise DomainError(f"unknown source family {self.noise_kind!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def planted_runs(spec: PlantSpec):
    """Yield the K runs of a planted run set one at a time, so that a caller
    that writes each run out holds one run, not K.

    Each run gets a perturbed copy of each base map, built as
    sqrt(rho) * base + sqrt(1 - rho) * fresh with rho = overlap**2, so
    copies correlate ~overlap with the base and ~overlap**2 with each
    other. Remaining slots are independent filler maps; component order is
    shuffled per run. Yields (maps, slots) per run: maps is (n_C, n), and
    slots[base] is the component index of that base's copy in the run.
    """
    rng = np.random.default_rng(spec.seed)
    rho = spec.overlap**2
    base = rng.standard_normal((spec.n_planted, spec.n))
    for _ in range(spec.K):
        drawn = np.empty((spec.n_C, spec.n))
        for b in range(spec.n_planted):
            fresh = rng.standard_normal(spec.n)
            drawn[b] = np.sqrt(rho) * base[b] + np.sqrt(1.0 - rho) * fresh
        for c in range(spec.n_planted, spec.n_C):
            drawn[c] = _draw(rng, spec.noise_kind, spec.n)
        order = rng.permutation(spec.n_C)  # slot s holds drawn map order[s]
        yield drawn[order], np.argsort(order)[: spec.n_planted].tolist()


def planted_runset(spec: PlantSpec):
    """The runs of ``planted_runs`` as one RunCollection: returns
    (RunCollection, labels) with labels[base][run] = component index of
    that base's copy in that run."""
    maps = np.empty((spec.K, spec.n_C, spec.n))
    labels = [[None] * spec.K for _ in range(spec.n_planted)]
    for r, (run, slots) in enumerate(planted_runs(spec)):
        maps[r] = run
        for b, slot in enumerate(slots):
            labels[b][r] = slot
    return RunCollection(maps), labels
