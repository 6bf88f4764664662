"""Noisy linear-mixture estimation: centering, PCA reduction with noise
variance, whitening, symmetric fixed-point rotation search, least-squares
source recovery, and temporal-concatenation group decomposition.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    RankDeficientError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from .types import IcaModel

NONLINEARITIES = ("tanh", "cubic")


@dataclass(frozen=True)
class IcaConfig:
    q: int
    nonlinearity: str = "tanh"
    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"model order must be >= 1, got {self.q}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class PcaReduction:
    """Principal subspace of the sample covariance plus the whitening map.

    sigma2 is the mean of the trailing p - q eigenvalues; the whitener
    sends centered data to exactly unit sample covariance (1/n convention).
    """

    basis: np.ndarray  # p x q, orthonormal columns
    eigenvalues: np.ndarray  # length p, descending
    sigma2: float
    whitener: np.ndarray  # q x p

    @property
    def q(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class FastIcaResult:
    O: np.ndarray  # q x q orthogonal rotation
    S: np.ndarray  # q x n sources, unit variance rows
    converged: bool
    n_iters: int


def center(Y):
    """Split off row means: returns (mu, Y - mu)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] < 2:
        raise DegenerateDataError("need a p x n matrix with n >= 2")
    mu = Y.mean(axis=1)
    return mu, Y - mu[:, None]


def pca_reduce(Yc, q: int) -> PcaReduction:
    """Eigendecomposition of the sample covariance (1/n); keeps the top-q
    subspace and estimates the noise variance from the rest.

    Ties in eigenvalues are broken by lowest original coordinate index via
    the symmetric eigensolver's deterministic ordering.
    """
    Yc = np.asarray(Yc, dtype=np.float64)
    p, n = Yc.shape
    if not 1 <= q < p:
        raise RankDeficientError(f"need 1 <= q < p, got q={q}, p={p}")
    C = (Yc @ Yc.T) / n
    evals, evecs = np.linalg.eigh(C)
    evals = np.clip(evals[::-1], 0.0, None)  # descending, clipped at 0
    evecs = evecs[:, ::-1]
    if evals[q - 1] <= 0.0:
        raise RankDeficientError(f"covariance has fewer than q={q} positive eigenvalues")
    sigma2 = float(evals[q:].mean()) if q < p else 0.0
    basis = evecs[:, :q]
    whitener = (basis / np.sqrt(evals[:q])).T
    return PcaReduction(basis=basis, eigenvalues=evals, sigma2=sigma2, whitener=whitener)


def _sym_decorrelate(W: np.ndarray) -> np.ndarray:
    """W -> (W W^T)^(-1/2) W, the symmetric orthonormalization."""
    evals, evecs = np.linalg.eigh(W @ W.T)
    return (evecs / np.sqrt(evals)) @ evecs.T @ W


def fastica(Yw, cfg: IcaConfig) -> FastIcaResult:
    """Symmetric fixed-point search for the orthogonal rotation making the
    rows of O @ Yw maximally non-Gaussian.

    Convergence is declared when 1 - min diag(|O_new O_old^T|) < cfg.tol;
    a non-converged result is still returned with the flag cleared.
    """
    Yw = np.asarray(Yw, dtype=np.float64)
    q, n = Yw.shape
    rng = np.random.default_rng(cfg.seed)
    W = _sym_decorrelate(rng.standard_normal((q, q)))
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        U = W @ Yw
        if cfg.nonlinearity == "tanh":
            g = np.tanh(U)
            g_prime_mean = (1.0 - g**2).mean(axis=1)
        else:
            g = U**3
            g_prime_mean = 3.0 * (U**2).mean(axis=1)
        W_new = _sym_decorrelate((g @ Yw.T) / n - g_prime_mean[:, None] * W)
        delta = 1.0 - np.abs(np.diag(W_new @ W.T)).min()
        W = W_new
        if delta < cfg.tol:
            converged = True
            break
    return FastIcaResult(O=W, S=W @ Yw, converged=converged, n_iters=it)


def z_scale(S, residual_sd) -> np.ndarray:
    """Divide each location (column) by its residual noise standard
    deviation."""
    sd = np.asarray(residual_sd, dtype=np.float64)
    bad = np.flatnonzero(sd <= 0.0)
    if bad.size:
        raise ZeroVarianceError(bad.tolist())
    return np.asarray(S, dtype=np.float64) / sd[None, :]


def residual_sd(Y, model: IcaModel) -> np.ndarray:
    """Per-location standard deviation of Y - mu - A S (unbiased)."""
    resid = np.asarray(Y, dtype=np.float64) - model.mu[:, None] - model.A @ model.S
    return resid.std(axis=0, ddof=1)


def run_single_ica(Y, cfg: IcaConfig) -> IcaModel:
    """Center, reduce, whiten, rotate; maps the mixing matrix back to
    sensor coordinates so that Y ~ mu + A S + noise. S is the least-squares
    estimate (A^T A)^-1 A^T (Y - mu): A = basis sqrt(lambda) O^T makes
    (A^T A)^-1 A^T = O whitener."""
    Y = np.asarray(Y, dtype=np.float64)
    p, n = Y.shape
    if not cfg.q < min(p, n):
        raise RankDeficientError(f"need q < min(p, n) = {min(p, n)}, got q={cfg.q}")
    mu, Yc = center(Y)
    red = pca_reduce(Yc, cfg.q)
    Yw = red.whitener @ Yc
    res = fastica(Yw, cfg)
    A = red.basis * np.sqrt(red.eigenvalues[: cfg.q]) @ res.O.T
    return IcaModel(mu=mu, A=A, S=res.S, sigma2=red.sigma2,
                    converged=res.converged, n_iters=res.n_iters)


def run_group_ica(datasets, cfg: IcaConfig) -> IcaModel:
    """Center each dataset's rows, stack them time-wise, and decompose the
    stacked matrix; the returned S holds the group component maps."""
    mats = [np.asarray(d, dtype=np.float64) for d in datasets]
    if len({m.shape[1] for m in mats}) != 1:
        raise ShapeMismatchError("all datasets must share the location count n")
    Z = np.vstack([center(m)[1] for m in mats])
    return run_single_ica(Z, cfg)
