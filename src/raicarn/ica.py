"""Noisy linear-mixture estimation: centering, PCA reduction with noise
variance, whitening, symmetric fixed-point rotation search, least-squares
source recovery, and temporal-concatenation group decomposition.

Every fit runs on one path, _fit, which takes a C-ordered float64 stack of
datasets and centres its rows once, in place, so one p x n copy of the
data is held beside arrays of q x n. run_group_ica hands it the datasets
stacked into an array of its own, and run_single_ica a group of one, so
the callers' arrays are left as they are; the ica command hands it the
files it read, stacked by io.read_stack. A matrix thus fits to the same
bits whether it comes whole or in row blocks, in C or Fortran order.
residual_sd reads the centred data and forms the residual a block of
columns at a time.
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

# cells of the boolean mask that the finiteness check forms at a time
_CHECK_CELLS = 2**16

# residual_sd forms the product A S over blocks of columns. A block has the
# bits of the same columns of the whole product only if BLAS computes them
# alike, and OpenBLAS rounds a product's last (n mod 16) columns otherwise in
# a product of at most 10^6 multiply-adds (its small-matrix kernel, on
# AVX-512 CPUs) or of at most one cache block of columns (192 there). So a
# block spans a multiple of _RESIDUAL_COLUMNS columns and at least 2^20
# multiply-adds, and the last block takes the remainder with it. 1024
# columns keep the bits too; 2048 was chosen by the peak RSS of a process
# that runs ica repeatedly at the benchmark's restarts shape, where glibc
# trimmed the freed heap after each ica with blocks of 2048 and 4096 columns
# but not with 1024 or 3072.
_RESIDUAL_COLUMNS = 2048


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


def _center(Y, out) -> np.ndarray:
    """Write Y - mu into out, which may be Y itself, and return mu, the row
    means of Y. Y is checked to be a finite matrix first, over blocks of
    rows of at most _CHECK_CELLS cells, so no p x n mask is formed."""
    Y = _as_matrix(Y)
    step = max(1, _CHECK_CELLS // Y.shape[1])
    for lo in range(0, Y.shape[0], step):
        if not np.isfinite(Y[lo : lo + step]).all():
            raise NonFiniteError("data matrix contains non-finite values")
    mu = Y.mean(axis=1)
    np.subtract(Y, mu[:, None], out=out)
    return mu


def center(Y):
    """Split off row means: returns (mu, Y - mu); Y is left as it is."""
    Y = _as_matrix(Y)
    Yc = np.empty_like(Y)
    return _center(Y, Yc), Yc


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


def residual_sd(Yc, model: IcaModel) -> np.ndarray:
    """Per-location standard deviation (unbiased) of Yc - A S, where Yc is
    the data with model.mu taken off its rows: the array that the ica
    command's fit centred in place, or center(Y)[1].

    The residual is formed over blocks of columns (see _RESIDUAL_COLUMNS):
    each block A @ S[:, lo:hi] is overwritten with the residual and then
    with its squared deviations, so no p x n array is held beside Yc. The
    sums run in the order numpy's std(axis=0, ddof=1) takes on a C-ordered
    residual, so the result has those bits for every memory order of Yc."""
    Yc = np.asarray(Yc, dtype=np.float64)
    p, q = model.A.shape
    n = model.S.shape[1]
    if Yc.shape != (p, n):
        raise ShapeMismatchError(f"data of shape {Yc.shape} for a model of {p} x {n}")
    # the fewest whole _RESIDUAL_COLUMNS that hold 2^20 multiply-adds
    width = _RESIDUAL_COLUMNS * -(-(2**20) // (_RESIDUAL_COLUMNS * p * q))
    var = np.empty(n)
    lo = 0
    for hi in [*range(width, n - width + 1, width), n]:
        R = model.A @ model.S[:, lo:hi]
        np.subtract(Yc[:, lo:hi], R, out=R)
        mean = np.add.reduce(R, axis=0, keepdims=True)
        mean /= p
        R -= mean
        R *= R
        np.add.reduce(R, axis=0, out=var[lo:hi])
        lo = hi
    var /= p - 1
    return np.sqrt(var, out=var)


def run_single_ica(Y, cfg: IcaConfig) -> IcaModel:
    """Center, reduce, whiten, rotate; maps the mixing matrix back to
    sensor coordinates so that Y ~ mu + A S + noise. S is the least-squares
    estimate (A^T A)^-1 A^T (Y - mu): A = basis sqrt(lambda) O^T makes
    (A^T A)^-1 A^T = O whitener. The fit is run_group_ica's on the group of
    one, [Y], which it centres a C-ordered copy of."""
    return run_group_ica([Y], cfg)


def run_group_ica(datasets, cfg: IcaConfig) -> IcaModel:
    """Decompose the datasets stacked time-wise (one under another); the
    returned S holds the group component maps and mu the stack's row
    means, so the stack ~ mu + A S. The stack is a C-ordered float64 array
    of its own, which the fit centres in place."""
    mats = [_as_matrix(d) for d in datasets]  # shapes checked before n is read
    counts = [m.shape[1] for m in mats]
    if len(set(counts)) != 1:
        raise ShapeMismatchError(f"all datasets must share the location count n, got {counts}")
    stack = np.empty((sum(m.shape[0] for m in mats), counts[0]))
    return _fit(np.concatenate(mats, out=stack), cfg)


def _fit(Y, cfg: IcaConfig) -> IcaModel:
    """The fit of a C-ordered float64 stack Y, which it centres in place,
    so one p x n copy of the data is held: the ica command hands over the
    array it read and takes the residual from it centred."""
    p, n = Y.shape
    if not cfg.q < min(p, n):
        raise RankDeficientError(f"need q < min(p, n) = {min(p, n)}, got q={cfg.q}")
    mu = _center(Y, Y)
    red = pca_reduce(Y, cfg.q)
    Yw = red.whitener @ Y
    res = fastica(Yw, cfg)
    A = red.basis * np.sqrt(red.eigenvalues[: cfg.q]) @ res.O.T
    return IcaModel(mu=mu, A=A, S=res.S, sigma2=red.sigma2,
                    stopped=res.stopped, n_iters=res.n_iters)
