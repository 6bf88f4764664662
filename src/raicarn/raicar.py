"""Cross-run component matching and normalized reproducibility.

Builds the block matrix of signed spatial correlations between all
components of all runs once, greedily matches one component per run into
aligned sets on its absolute values, and scores each set by the mean of
its pairwise absolute correlations read from that same matrix. Observed
sets and permutation-null sets go through the same scoring functions.
"""

import numpy as np

from .types import Crcm, MatchedComponent, RunCollection


def compute_crcm(rc: RunCollection) -> Crcm:
    """Signed Pearson correlations between every pair of component maps
    across all runs; zero-variance maps correlate 0 with everything
    (including themselves)."""
    X = rc.flat_maps()
    Z = X - X.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(Z, axis=1)
    # a zero-norm row is already all zeros, so it is left as it is
    np.divide(Z, norms[:, None], out=Z, where=norms[:, None] > 0)
    C = Z @ Z.T
    np.clip(C, -1.0, 1.0, out=C)
    return Crcm(rc.K, rc.n_C, C)


def match_components(G: Crcm):
    """Greedy across-run matching on the zeroed correlation matrix.

    Each component slot seeds a matched set at the global maximum (the
    anchor pair), then takes from every other run the unused component
    best correlated with either anchor member, the second member winning
    ties, and zeroes the rows and columns of all members. A run with no
    positive correlation to either takes its lowest-index unused
    component. Returns one (members, anchor) pair per slot, members being
    (run, component) pairs in run order; across all sets every
    (run, component) pair is used exactly once.
    """
    K, n_C = G.K, G.n_C
    N = K * n_C
    W = G.matrix
    free = np.ones((K, n_C), dtype=bool)
    runs = np.arange(K)
    matched = []
    for _ in range(n_C):
        # W is symmetric, so the first maximum in row-major order has
        # fi < fj: the anchor pair comes out lexicographic.
        fi, fj = divmod(int(np.argmax(W)), N)
        if W[fi, fj] <= 0.0:
            # Fully degenerate matrix: seed from the lowest-index unused
            # components of runs 0 and 1.
            fi, fj = int(np.argmax(free[0])), n_C + int(np.argmax(free[1]))
        # row fj equals column fj by symmetry
        col = W[fj].reshape(K, n_C)
        row = W[fi].reshape(K, n_C)
        a, b = col.argmax(axis=1), row.argmax(axis=1)
        a_val, b_val = col[runs, a], row[runs, b]
        pick = np.where(a_val >= b_val, a, b)
        pick = np.where((a_val == 0.0) & (b_val == 0.0), free.argmax(axis=1), pick)
        (l, i), (m, j) = divmod(fi, n_C), divmod(fj, n_C)
        pick[l], pick[m] = i, j
        flat = runs * n_C + pick
        W[flat, :] = 0.0
        W[:, flat] = 0.0
        free[runs, pick] = False
        matched.append((list(enumerate(pick.tolist())), (l, i)))
    return matched


def similarity_matrix(G: Crcm, members) -> np.ndarray:
    """Absolute correlations among the members of one or more sets, read
    from the CRCM, with unit diagonal. ``members`` holds (run, component)
    pairs: shape (K, 2) for one set gives a K x K matrix, shape (S, K, 2)
    for S sets gives (S, K, K)."""
    m = np.asarray(members)
    flat = m[..., 0] * G.n_C + m[..., 1]
    H = np.abs(G.signed[flat[..., :, None], flat[..., None, :]])
    K = flat.shape[-1]
    H[..., np.arange(K), np.arange(K)] = 1.0
    return H


def normalized_reproducibility(H: np.ndarray) -> np.ndarray:
    """Mean of the strict upper triangle of each K x K similarity matrix
    in H, shape (..., K, K); returns an array of shape H.shape[:-2]."""
    K = H.shape[-1]
    iu = np.triu_indices(K, k=1)
    upper = H[..., iu[0], iu[1]]
    # each set's sum is its own 1-D reduction, as when sets were scored one
    # at a time, so a value does not depend on how many sets are stacked
    sums = np.array([u.sum() for u in upper.reshape(-1, upper.shape[-1])])
    return (2.0 * sums / ((K - 1) * K)).reshape(H.shape[:-2])


def align_signs(G: Crcm, members, anchor):
    """Attach alignment signs: each member gets the sign of its correlation
    with the anchor, 0 mapping to +1. The anchor's correlation with itself
    is a sum of squares, so it always gets +1."""
    a = G.signed[anchor[0] * G.n_C + anchor[1]]
    return [(r, c, -1 if a[r * G.n_C + c] < 0 else 1) for r, c, *_ in members]


def match_and_score(rc: RunCollection, G: Crcm = None):
    """Full original-RAICAR pass: match, sign-align, and score every
    component slot from the CRCM. Returns MatchedComponents in matching
    order."""
    if G is None:
        G = compute_crcm(rc)
    matched = match_components(G)
    reps = normalized_reproducibility(similarity_matrix(G, [m for m, _ in matched]))
    return [
        MatchedComponent(tuple(align_signs(G, members, anchor)), anchor, rep)
        for (members, anchor), rep in zip(matched, reps)
    ]
