"""Shared data model: runs, cross-correlation matrices, matches, reports.

All containers are immutable after construction (arrays are marked
read-only), store only independent facts, and validate their invariants
in ``__post_init__``, so a value that exists is a valid value.
"""

import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    NonFiniteError,
    RaggedRunsError,
    RankDeficientError,
    TooFewRunsError,
)


def _mapped_zeros(shape, dtype) -> np.ndarray:
    """A zero-filled array in its own anonymous memory map, for large
    buffers: freeing it returns its pages to the OS at once, where malloc
    would keep them in its heap and add them to the next run's peak."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buf, dtype, count=count).reshape(shape)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RunCollection:
    """K decomposition runs, each holding n_C component maps of length n.

    ``maps`` is a (K, n_C, n) array; map (run r, component c) is
    ``maps[r, c]``. Indices are zero-based internally; one-based in all
    human-facing output.
    """

    maps: np.ndarray

    def __post_init__(self):
        try:
            maps = np.asarray(self.maps, dtype=np.float64)
        except ValueError as e:
            raise RaggedRunsError(f"all runs must share n_C and map length n: {e}") from e
        if maps.ndim != 3:
            raise RaggedRunsError(f"expected a (K, n_C, n) array, got ndim={maps.ndim}")
        check_run_shape(*maps.shape)
        if not np.isfinite(maps).all():
            raise NonFiniteError("component maps contain non-finite values")
        object.__setattr__(self, "maps", _freeze(maps))

    @property
    def K(self) -> int:
        return self.maps.shape[0]

    @property
    def n_C(self) -> int:
        return self.maps.shape[1]

    @property
    def n(self) -> int:
        return self.maps.shape[2]

    def run(self, r, lo=0, hi=None) -> np.ndarray:
        """The maps of run r at locations lo .. hi - 1 (all n by default),
        an (n_C, hi - lo) view, as ``io.RunFiles.run`` reads them."""
        return self.maps[r, :, lo:hi]


def check_run_shape(K, n_C, n) -> None:
    """Raise TooFewRunsError or RaggedRunsError unless K runs of n_C maps
    of length n can form a RunCollection."""
    if K < 2:
        raise TooFewRunsError(f"need at least 2 runs, got {K}")
    if n_C < 1:
        raise RaggedRunsError("need at least 1 component per run")
    if n <= 1:
        raise RaggedRunsError(f"map length must exceed 1, got {n}")


def validate_run_collection(runs) -> RunCollection:
    """Build a RunCollection from nested lists or an array, checking shape
    and finiteness; a float64 (K, n_C, n) array is frozen in place, not
    copied. Raises RaggedRunsError / NonFiniteError / TooFewRunsError."""
    return RunCollection(runs)


# Rows per strip of the CRCM's symmetry check.
_SYMMETRY_STRIP = 64


@dataclass(frozen=True)
class Crcm:
    """Cross-run correlation matrix over K runs of n_C components.

    ``signed`` is the (K*n_C, K*n_C) matrix of signed Pearson correlations
    between all component maps, clipped to [-1, 1]; flat index = run * n_C
    + component. It is the only correlation the pipeline stores: matching,
    sign alignment and scoring (observed and null alike) all read it.
    """

    K: int
    n_C: int
    signed: np.ndarray

    def __post_init__(self):
        N = self.K * self.n_C
        signed = np.asarray(self.signed, dtype=np.float64)
        if signed.shape != (N, N):
            raise RaggedRunsError(f"expected a {(N, N)} matrix")
        if not np.isfinite(signed).all():
            raise NonFiniteError("correlation matrix contains non-finite values")
        if signed.min() < -1.0 or signed.max() > 1.0:
            raise ValueError("correlation entries must lie in [-1, 1]")
        # each strip of rows against the matching strip of columns, so the
        # transposed reads stay in cache
        b = _SYMMETRY_STRIP
        strips = range(0, N, b)
        if not all(np.array_equal(signed[i : i + b, i:], signed[i:, i : i + b].T) for i in strips):
            raise ValueError("correlation matrix must be symmetric")
        object.__setattr__(self, "signed", _freeze(signed))

    @cached_property
    def row_order(self) -> np.ndarray:
        """Column indices of each row of |signed| in descending order of
        value (ties in any order), sorted once per matrix in row chunks of
        a few MB; int16 while N fits, else int32. Read-only."""
        N = self.K * self.n_C
        out = _mapped_zeros((N, N), np.int16 if N <= np.iinfo(np.int16).max else np.int32)
        step = max(1, 2**18 // N)
        for s in range(0, N, step):
            neg = np.abs(self.signed[s : s + step])
            np.negative(neg, out=neg)
            out[s : s + step] = np.argsort(neg, axis=1)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class MatchedComponent:
    """One aligned component per run plus its normalized reproducibility.

    ``members[r] = (run_index, component_index, sign)`` with one member per
    run; the anchor member carries sign +1.
    """

    members: tuple
    anchor: tuple  # (run_index, component_index) of the anchor member
    reproducibility: float

    def __post_init__(self):
        K = len(self.members)
        runs = sorted(m[0] for m in self.members)
        if runs != list(range(K)):
            raise ValueError("members must contain exactly one entry per run")
        if any(m[2] not in (1, -1) for m in self.members):
            raise ValueError("signs must be +1 or -1")
        if (*self.anchor, 1) not in [tuple(m) for m in self.members]:
            raise ValueError("anchor must be a member with sign +1")
        if not 0.0 <= self.reproducibility <= 1.0 + 1e-12:
            raise ValueError("reproducibility must lie in [0, 1]")
        object.__setattr__(self, "members", tuple(tuple(m) for m in self.members))
        object.__setattr__(self, "reproducibility", float(self.reproducibility))


def p_values(observed, null_pool) -> np.ndarray:
    """p_i = (#{null >= observed_i} + 1) / (len(null_pool) + 1)."""
    null_sorted = np.sort(np.asarray(null_pool, dtype=np.float64))
    if null_sorted.size == 0:
        raise ValueError("null pool must be non-empty")
    count_ge = null_sorted.size - np.searchsorted(null_sorted, np.asarray(observed, np.float64))
    return (count_ge + 1.0) / (null_sorted.size + 1.0)


@dataclass(frozen=True)
class ReproducibilityReport:
    """Matched components sorted by descending reproducibility and the
    pooled null sample they are tested against; ``p_values`` derive from
    the two once, and a component is significant iff its p < ``p_crit``."""

    matched: tuple
    null_sample: np.ndarray
    p_crit: float
    p_values: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.matched:
            raise ValueError("a report needs at least one matched component")
        if not 0.0 < self.p_crit < 1.0:
            raise ValueError(f"p_crit must lie in (0, 1), got {self.p_crit}")
        reps = [mc.reproducibility for mc in self.matched]
        if any(b > a + 1e-12 for a, b in zip(reps, reps[1:])):
            raise ValueError("matched components must be sorted by descending reproducibility")
        null_sample = _freeze(self.null_sample)
        if not np.isfinite(null_sample).all():
            raise ValueError("null sample contains non-finite values")
        object.__setattr__(self, "matched", tuple(self.matched))
        object.__setattr__(self, "null_sample", null_sample)
        object.__setattr__(self, "p_crit", float(self.p_crit))
        object.__setattr__(self, "p_values", _freeze(p_values(reps, self.null_sample)))

    @property
    def significant(self) -> np.ndarray:
        return self.p_values < self.p_crit

    @property
    def n_C(self) -> int:
        return len(self.matched)


# why a fixed-point ICA search ended: its tolerance test passed, its
# contrast stopped rising, or it ran out of iterations
STOP_REASONS = ("tolerance", "plateau", "max_iters")


@dataclass(frozen=True)
class IcaModel:
    """Estimated noisy linear-mixture model: Y ~ mu + A S + noise.

    The source covariance is fixed to the identity, so all scale lives in
    the mixing matrix A.
    """

    mu: np.ndarray
    A: np.ndarray
    S: np.ndarray
    sigma2: float
    stopped: str = "tolerance"  # which rule ended the fixed-point search
    n_iters: int = 0  # fixed-point iterations run

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        S = np.asarray(self.S, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        p = mu.shape[0]
        if A.ndim != 2 or A.shape[0] != p or S.shape[0] != A.shape[1]:
            raise RaggedRunsError("inconsistent model shapes")
        q = A.shape[1]
        if not q < p:
            raise RankDeficientError(f"model order q={q} must be < p={p}")
        if np.linalg.matrix_rank(A) < q:
            raise RankDeficientError("mixing matrix is rank deficient")
        if self.sigma2 < 0:
            raise ValueError("noise variance must be non-negative")
        if self.stopped not in STOP_REASONS:
            raise ValueError(f"stopped must be one of {STOP_REASONS}, got {self.stopped!r}")
        if np.abs(S.mean(axis=1)).max() > 1e-6 * max(1.0, np.abs(S).max()):
            raise ValueError("source rows must have zero mean")
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "S", _freeze(S))

    @property
    def q(self) -> int:
        return self.A.shape[1]

    @property
    def converged(self) -> bool:
        return self.stopped == "tolerance"
