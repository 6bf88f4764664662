"""Cross-run component matching and normalized reproducibility.

Builds the block matrix of signed spatial correlations between all
components of all runs once, greedily matches one component per run into
aligned sets on its absolute values, and scores each set by the mean of
its pairwise absolute correlations read from that same matrix. Observed
sets and permutation-null sets go through the same scoring functions.
"""

from dataclasses import dataclass, field

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


@dataclass
class MatchStep:
    """Audit record for one matched component."""

    anchor: tuple  # (l, i, m, j) of the seeding pair
    anchor_value: float
    selections: list = field(default_factory=list)  # (s, e_s, side, a_val, b_val)


@dataclass
class MatchTrace:
    """Full audit trail of the greedy matching; replays deterministically."""

    steps: list = field(default_factory=list)

    def member_lists(self):
        out = []
        for step in self.steps:
            l, i, m, j = step.anchor
            members = {l: i, m: j}
            for s, e_s, _side, _a, _b in step.selections:
                members[s] = e_s
            out.append([(r, members[r]) for r in sorted(members)])
        return out


def _argmax_2d(W: np.ndarray):
    """Index of the maximal entry; exact ties broken by smallest flat
    (row-major) index, i.e. lexicographically smallest position."""
    idx = int(np.argmax(W))
    return divmod(idx, W.shape[1])


def match_components(G: Crcm):
    """Greedy across-run matching on the zeroed correlation matrix.

    Repeatedly seeds a matched set at the global maximum, then pulls the
    best-correlated unused component from every other run, zeroing used
    rows and columns as it goes. Returns one matched set per component
    slot plus an audit trace; across all sets every (run, component) pair
    is used exactly once.
    """
    K, n_C = G.K, G.n_C
    W = G.matrix
    used = [set() for _ in range(K)]
    trace = MatchTrace()

    def flat(r, c):
        return r * n_C + c

    def zero_out(r, c):
        W[flat(r, c), :] = 0.0
        W[:, flat(r, c)] = 0.0
        used[r].add(c)

    def lowest_unused(r):
        return min(set(range(n_C)) - used[r])

    for _ in range(n_C):
        fi, fj = _argmax_2d(W)
        peak = W[fi, fj]
        if peak > 0.0:
            l, i = divmod(fi, n_C)
            m, j = divmod(fj, n_C)
            if (l, i) > (m, j):  # keep the anchor pair lexicographic
                l, i, m, j = m, j, l, i
        else:
            # Fully degenerate matrix: seed from the lowest-index unused
            # components of the two lowest-index runs.
            l, m = sorted(r for r in range(K) if len(used[r]) < n_C)[:2]
            i, j = lowest_unused(l), lowest_unused(m)
        step = MatchStep(anchor=(l, i, m, j), anchor_value=float(peak))
        row_i = W[flat(l, i), :].copy()
        col_j = W[:, flat(m, j)].copy()
        for s in range(K):
            if s in (l, m):
                continue
            block = slice(s * n_C, (s + 1) * n_C)
            a_s = int(np.argmax(col_j[block]))
            b_s = int(np.argmax(row_i[block]))
            a_val = float(col_j[block][a_s])
            b_val = float(row_i[block][b_s])
            if a_val == 0.0 and b_val == 0.0:
                e_s, side = lowest_unused(s), "fallback"
            elif a_val >= b_val:
                e_s, side = a_s, "column"
            else:
                e_s, side = b_s, "row"
            step.selections.append((s, e_s, side, a_val, b_val))
            zero_out(s, e_s)
        zero_out(l, i)
        zero_out(m, j)
        trace.steps.append(step)

    matched = []
    for step, members in zip(trace.steps, trace.member_lists()):
        anchor = (step.anchor[0], step.anchor[1])
        matched.append((members, anchor))
    return matched, trace


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
    matched, trace = match_components(G)
    reps = normalized_reproducibility(similarity_matrix(G, [m for m, _ in matched]))
    out = [
        MatchedComponent(tuple(align_signs(G, members, anchor)), anchor, rep)
        for (members, anchor), rep in zip(matched, reps)
    ]
    return out, trace
