"""Noisy linear-mixture estimation: centering, PCA reduction with noise
variance, whitening, symmetric fixed-point rotation search, least-squares
source recovery, and temporal-concatenation group decomposition.
"""

from dataclasses import dataclass

import numpy as np

from .config import IcaConfig
from .errors import (
    DegenerateDataError,
    NonFiniteError,
    RankDeficientError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from .types import IcaModel

# iterations the contrast may go without beating its best before the
# fixed-point search stops on a plateau
_PLATEAU = 20


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


@dataclass(frozen=True)
class FastIcaResult:
    O: np.ndarray  # q x q orthogonal rotation
    S: np.ndarray  # q x n sources, unit variance rows
    stopped: str  # one of types.STOP_REASONS
    n_iters: int

    @property
    def converged(self) -> bool:
        return self.stopped == "tolerance"


def _as_matrix(Y) -> np.ndarray:
    """Y as a float64 p x n matrix, if it is one with n >= 2."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] < 2:
        raise DegenerateDataError("need a p x n matrix with n >= 2")
    return Y


def center(Y):
    """Split off row means: returns (mu, Y - mu)."""
    Y = _as_matrix(Y)
    if not np.isfinite(Y).all():
        raise NonFiniteError("data matrix contains non-finite values")
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

    Two rules end the search, tested in this order after each step:

    - tolerance: 1 - min diag(|O_new O_old^T|) < cfg.tol; the new rotation
      is returned with stopped="tolerance".
    - plateau: the contrast F = sum_i gamma_i^2 has gone _PLATEAU
      iterations without beating its best value; the rotation with the
      best F is returned with stopped="plateau". gamma_i = E{y_i g(y_i)}
      - E{g'(y_i)} is row i's Stein gap, zero in expectation for a
      Gaussian row (E y^4 - 3 for the cubic g), and the denominator of
      the Newton step the fixed-point update is derived from.

    An over-specified order leaves near-Gaussian rows that never settle,
    so only the plateau rule stops such a fit. After cfg.max_iters
    iterations the last rotation is returned with stopped="max_iters".
    """
    Yw = np.asarray(Yw, dtype=np.float64)
    q, n = Yw.shape
    rng = np.random.default_rng(cfg.seed)
    W = _sym_decorrelate(rng.standard_normal((q, q)))
    stopped = "max_iters"
    best, W_best, stale = -np.inf, W, 0
    it = 0
    # two q x n buffers reused by every iteration, one for U = W Yw and one
    # for g(U); the tanh path then writes 1 - g^2 over U
    U = np.empty_like(Yw)
    g = np.empty_like(Yw)
    for it in range(1, cfg.max_iters + 1):
        np.matmul(W, Yw, out=U)
        if cfg.nonlinearity == "tanh":
            np.tanh(U, out=g)
            yg_mean = np.einsum("ij,ij->i", U, g) / n
            np.multiply(g, g, out=U)
            g_prime_mean = np.subtract(1.0, U, out=U).mean(axis=1)
        else:
            # U * U * U, not U**3, which goes through pow at 38x the cost
            np.multiply(U, U, out=g)
            g_prime_mean = 3.0 * g.mean(axis=1)
            g *= U
            yg_mean = np.einsum("ij,ij->i", U, g) / n
        # the contrast of the current rotation W, before the step moves it
        gamma = yg_mean - g_prime_mean
        F = gamma @ gamma
        if F > best:
            best, W_best, stale = F, W, 0
        else:
            stale += 1
        W_new = _sym_decorrelate((g @ Yw.T) / n - g_prime_mean[:, None] * W)
        delta = 1.0 - np.abs(np.diag(W_new @ W.T)).min()
        W = W_new
        if delta < cfg.tol:
            stopped = "tolerance"
            break
        if stale == _PLATEAU:
            stopped = "plateau"
            W = W_best
            break
    return FastIcaResult(O=W, S=W @ Yw, stopped=stopped, n_iters=it)


def z_scale(S, residual_sd) -> np.ndarray:
    """Divide each location (column) by its residual noise standard
    deviation."""
    sd = np.asarray(residual_sd, dtype=np.float64)
    bad = np.flatnonzero(sd <= 0.0)
    if bad.size:
        raise ZeroVarianceError(bad.tolist())
    return np.asarray(S, dtype=np.float64) / sd[None, :]


def residual_sd(Y, model: IcaModel) -> np.ndarray:
    """Per-location standard deviation of Y - mu - A S (unbiased).

    Holds one p x n array beside Y: the product A S, overwritten row by
    row with the residual and then with its squared deviations. The sums
    run in the order numpy's std(axis=0, ddof=1) takes on a C-ordered
    residual, so the result has those bits for every memory order of Y."""
    Y = np.asarray(Y, dtype=np.float64)
    p, n = model.A.shape[0], model.S.shape[1]
    if Y.shape != (p, n):
        raise ShapeMismatchError(f"data of shape {Y.shape} for a model of {p} x {n}")
    R = model.A @ model.S
    buf = np.empty(n)
    for y, m, row in zip(Y, model.mu, R):
        np.subtract(y, m, out=buf)
        np.subtract(buf, row, out=row)
    mean = np.add.reduce(R, axis=0, keepdims=True)
    mean /= p
    R -= mean
    R *= R
    var = np.add.reduce(R, axis=0) / (p - 1)
    return np.sqrt(var, out=var)


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
                    stopped=res.stopped, n_iters=res.n_iters)


def stack_group(datasets) -> np.ndarray:
    """Center each dataset's rows and stack them time-wise: the matrix that
    a group decomposition runs on and is scored against.

    The stack is allocated once and each dataset's centred rows are written
    into it in turn, so beside the datasets only the stack and one centred
    dataset are held."""
    mats = [_as_matrix(d) for d in datasets]  # shapes checked before n is read
    counts = [m.shape[1] for m in mats]
    if len(set(counts)) != 1:
        raise ShapeMismatchError(f"all datasets must share the location count n, got {counts}")
    stack = np.empty((sum(m.shape[0] for m in mats), counts[0]))
    top = 0
    for m in mats:
        stack[top : top + m.shape[0]] = center(m)[1]
        top += m.shape[0]
    return stack


def run_group_ica(datasets, cfg: IcaConfig) -> IcaModel:
    """Decompose the stack of the datasets (see stack_group); the returned
    S holds the group component maps."""
    return run_single_ica(stack_group(datasets), cfg)
