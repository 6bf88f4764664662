"""Cross-run component matching and normalized reproducibility.

Builds the block matrix of signed spatial correlations between all
components of all runs once, greedily matches one component per run into
aligned sets on its absolute values, and scores each set by the mean of
its pairwise absolute correlations read from that same matrix. The
matcher never builds a working matrix: it sorts each row of |G| once per
matrix and keeps one pointer per row at that row's best partner still
free and in another run, advancing only the pointers a step made stale,
through windows that start at 2 entries and grow for the few long walks.
Each row's current maximum and a free mask are kept in the order of the
(pseudo-)labels, written in place as pointers move and rows are used.
Observed sets and permutation-null sets (relabellings of that matrix,
matched in batches) go through the same matcher and the same scoring
helper, which reads only each set's strict upper triangle of |G|.
"""

import numpy as np

from .errors import InvalidPermutationError
from .types import Crcm, MatchedComponent, _mapped_zeros


# Fixed cap on the CRCM's map buffer: about this many cells (32 MB), so
# the memory that compute_crcm holds does not grow with the map length.
_CRCM_CELLS = 2**22


def compute_crcm(runs) -> Crcm:
    """Signed Pearson correlations between every pair of component maps
    across all runs; zero-variance maps correlate 0 with everything
    (including themselves). ``runs`` is a RunCollection or the
    ``io.RunFiles`` of a manifest, read by ``runs.run`` in two passes
    through one buffer of every map's slice of a block of locations, at
    most _CRCM_CELLS cells. The first pass reads one whole run at a time,
    for each map's mean and centred norm, centring it in the array that
    ``runs.run`` returns (in a copy, if that is a RunCollection's read-only
    view), and keeps the first block; the second reads every run's slice
    of each further block. Each block, centred and scaled, adds its Z @ Z.T
    to the matrix. Where n fits in one block this is one product over the
    whole maps."""
    K, n_C, n = runs.K, runs.n_C, runs.n
    N = K * n_C
    width = min(n, max(1, _CRCM_CELLS // N))
    buf = _mapped_zeros((N * width,), np.float64)
    means, norms = np.empty((N, 1)), np.empty((N, 1))
    Z = buf.reshape(N, width)
    for r in range(K):
        rows = slice(r * n_C, (r + 1) * n_C)
        X = runs.run(r)  # centred and squared in place
        if not X.flags.writeable:
            X = X.copy()
        means[rows] = X.mean(axis=1, keepdims=True)
        X -= means[rows]
        Z[rows] = X[:, :width]
        np.multiply(X, X, out=X)
        norms[rows, 0] = np.sqrt(np.add.reduce(X, axis=1))
        del X  # freed before the next run is read
    # a zero-norm row is already all zeros, so it is left as it is
    np.divide(Z, norms, out=Z, where=norms > 0)
    C = Z @ Z.T
    for lo in range(width, n, width):
        hi = min(lo + width, n)
        Z = buf[: N * (hi - lo)].reshape(N, hi - lo)
        for r in range(K):
            rows = slice(r * n_C, (r + 1) * n_C)
            np.subtract(runs.run(r, lo, hi), means[rows], out=Z[rows])
        np.divide(Z, norms, out=Z, where=norms > 0)
        C += Z @ Z.T  # each addend is exactly symmetric, so C stays so
    del buf, Z  # unmapped now, not after the Crcm is built and checked
    np.clip(C, -1.0, 1.0, out=C)
    return Crcm(K, n_C, C)


def _check_permutation(g, N: int) -> np.ndarray:
    """g as an integer array, if it is a permutation of 0..N-1."""
    g = np.asarray(g)
    if g.shape != (N,) or g.dtype.kind not in "iu" or (np.sort(g) != np.arange(N)).any():
        raise InvalidPermutationError(f"not a permutation of 0..{N - 1}")
    return g


# Fixed cap on the batched matcher's state: about this many (replicate,
# row) cells per batch, so every per-step temporary stays near 128 kB.
_STATE_CELLS = 2**14


def _greedy(G: Crcm, perms: np.ndarray):
    """Greedy matching of B relabellings of G at once.

    ``perms`` is (B, N): in replicate b, flat (pseudo-)label f holds G's
    component ``perms[b, f]``, and pseudo-run f // n_C. The working matrix
    of a replicate is |G| relabelled, with its within-pseudo-run blocks and
    the rows and columns of used components zeroed; it is never built.
    Instead each (replicate, row) keeps a pointer into ``G.row_order`` at
    the row's best partner that is unused and in another pseudo-run, so
    the pointer's value is the row's maximum. That maximum (-1 once the
    row is used) and a 1.0 / 0.0 free mask are kept in pseudo order, and
    a move of a pointer or a use of a row writes them in place. A step
    reads those two B x N arrays, two O(N) rows, and the pointers its
    members made stale.

    Returns ``(members, anchor_run)``: members (B, n_C, K) are G's flat
    labels of each slot's members in pseudo-run order, anchor_run (B, n_C)
    is the pseudo-run of each slot's anchor member.
    """
    K, n_C = G.K, G.n_C
    N = K * n_C
    B = perms.shape[0]
    order = G.row_order.reshape(-1)
    signed = G.signed.reshape(-1)
    reps = np.arange(B)
    runs = np.arange(K)
    # state cell b * N + u belongs to replicate b and G's row u
    offset = (reps * N)[:, None]
    cell = perms + offset  # state cell of each pseudo label
    base_of = np.repeat(reps * N, N)  # first state cell of its replicate
    row_start = np.tile(np.arange(0, N * N, N), B)  # its row's start in the flat arrays
    block = np.empty(B * N, dtype=np.int64)  # its pseudo-run
    block[cell] = np.arange(N) // n_C
    at = np.empty(B * N, dtype=np.int64)  # its flat position in pseudo order
    at[cell] = np.arange(B * N).reshape(B, N)
    used = np.zeros(B * N, dtype=bool)
    ptr = row_start - 1  # position of its pointer in the flat row_order
    tgt = np.empty(B * N, dtype=np.int64)  # G column under the pointer
    # in pseudo order: each row's maximum (-1 once used), and 1.0 while free
    top = np.empty((B, N))
    free = np.ones((B, K, n_C))

    def advance(cells):
        """Move each cell's pointer to its row's next partner that is
        unused and in another pseudo-run. Nearly every such partner lies
        within an entry or two, so each pass scans a window that starts
        at 2 entries and grows 4x for the rows still unresolved, capped at
        N per row and about _STATE_CELLS per pass."""
        todo, grow = cells, 2
        while todo.size:
            width = min(grow, N, max(1, _STATE_CELLS // todo.size))
            # a free row always has such a partner before its row's end
            pos = np.minimum(ptr[todo, None] + np.arange(1, width + 1), row_start[todo, None] + N - 1)
            t = base_of[todo, None] + order[pos]
            ok = ~used[t] & (block[t] != block[todo, None])
            hit = ok.argmax(axis=1)
            found = ok[np.arange(todo.size), hit]
            ptr[todo] = np.where(found, pos[np.arange(todo.size), hit], pos[:, -1])
            todo, grow = todo[~found], grow * 4
        tgt[cells] = order[ptr[cells]]
        top.reshape(-1)[at[cells]] = np.abs(signed[row_start[cells] + tgt[cells]])

    def working_row(f):
        """Row f of each replicate's working matrix, in pseudo order."""
        w = np.abs(signed[(perms[reps, f] * N)[:, None] + perms]).reshape(B, K, n_C)
        w *= free
        w[reps, f // n_C] = 0.0
        return w

    advance(np.arange(B * N))
    members = np.empty((B, n_C, K), dtype=np.int64)
    anchor_run = np.empty((B, n_C), dtype=np.int64)
    for s in range(n_C):
        # the first row, in pseudo order, holding the replicate's maximum,
        # and that row's first maximum: the working matrix is symmetric, so
        # this is its first maximum in row-major order and fi < fj
        fi = top.argmax(axis=1)
        # fully degenerate replicate: seed from the lowest-index unused
        # components of pseudo-runs 0 and 1
        degenerate = top[reps, fi] <= 0.0
        if degenerate.any():
            fi[degenerate] = free[degenerate, 0].argmax(axis=1)
        row = working_row(fi)
        fj = row.reshape(B, N).argmax(axis=1)
        if degenerate.any():
            fj[degenerate] = n_C + free[degenerate, 1].argmax(axis=1)
        col = working_row(fj)  # row fj equals column fj by symmetry
        # per run: the member best correlated with either anchor member,
        # the column side winning ties; the lowest free one if both are 0
        a, b = col.argmax(axis=2), row.argmax(axis=2)
        a_val, b_val = col.max(axis=2), row.max(axis=2)
        pick = np.where(a_val >= b_val, a, b)
        both_zero = (a_val == 0.0) & (b_val == 0.0)
        if both_zero.any():
            pick[both_zero] = free.argmax(axis=2)[both_zero]
        (l, i), (m, j) = divmod(fi, n_C), divmod(fj, n_C)
        pick[reps, l], pick[reps, m] = i, j
        slots = runs * n_C + pick  # pseudo labels of the members
        taken = np.take_along_axis(perms, slots, 1)
        members[:, s], anchor_run[:, s] = taken, l
        used[(taken + offset).reshape(-1)] = True
        top[reps[:, None], slots] = -1.0
        free[reps[:, None], runs, pick] = 0.0
        if s + 1 < n_C:
            advance(np.flatnonzero(used[base_of + tgt] & ~used))
    return members, anchor_run


def match_components(G: Crcm, order=None):
    """Greedy across-run matching on |G| with the within-run blocks zeroed,
    after relabelling: flat index f holds G's component ``order[f]``
    (identity if None), so a null replicate is this call on a permutation.

    Each component slot seeds a matched set at the global maximum (the
    anchor pair), then takes from every other run the unused component
    best correlated with either anchor member, the second member winning
    ties, and retires all members. A run with no positive correlation to
    either takes its lowest-index unused component. Returns one (members,
    anchor) pair per slot, members being G's (run, component) pairs in
    (pseudo-)run order; across all sets every (run, component) pair is
    used exactly once.
    """
    N = G.K * G.n_C
    g = np.arange(N) if order is None else _check_permutation(order, N)
    members, anchor_run = _greedy(G, g[None, :].astype(np.int64))
    matched = []
    for labels, l in zip(members[0].tolist(), anchor_run[0].tolist()):
        pairs = [divmod(f, G.n_C) for f in labels]
        matched.append((pairs, pairs[l]))
    return matched


def similarity_matrix(G: Crcm, members) -> np.ndarray:
    """Absolute correlations among the members of one or more sets, read
    from the CRCM, with unit diagonal. ``members`` holds (run, component)
    pairs: shape (K, 2) for one set gives a K x K matrix, shape (S, K, 2)
    for S sets gives (S, K, K)."""
    m = np.asarray(members)
    flat = m[..., 0] * G.n_C + m[..., 1]
    N = G.K * G.n_C
    H = np.abs(G.signed.reshape(-1)[flat[..., :, None] * N + flat[..., None, :]])
    K = flat.shape[-1]
    H[..., np.arange(K), np.arange(K)] = 1.0
    return H


def normalized_reproducibility(H: np.ndarray) -> np.ndarray:
    """Mean of the strict upper triangle of each K x K similarity matrix
    in H, shape (..., K, K); returns an array of shape H.shape[:-2]."""
    K = H.shape[-1]
    iu = np.triu_indices(K, k=1)
    # the gather lays the set axis innermost in memory; made contiguous, each
    # set's sum is its own contiguous 1-D reduction, as when sets were scored
    # one at a time, so a value does not depend on how many sets are stacked
    upper = np.ascontiguousarray(H[..., iu[0], iu[1]])
    return 2.0 * upper.sum(axis=-1) / ((K - 1) * K)


# Fixed cap on one scoring gather: about this many similarity cells.
_SCORE_CELLS = 2**16


def _set_scores(G: Crcm, sets) -> np.ndarray:
    """Normalized reproducibility of each set of G's flat labels, (S, K),
    observed and null alike: the mean of the |G| entries between its
    members, gathered for the strict upper triangle only, in chunks of
    about _SCORE_CELLS cells. Bit for bit
    ``normalized_reproducibility(similarity_matrix(G, pairs))``: each set's
    sum is the same contiguous 1-D reduction over the same entries."""
    sets = np.asarray(sets)
    K, N = sets.shape[-1], G.K * G.n_C
    iu, ju = np.triu_indices(K, k=1)
    signed = G.signed.reshape(-1)
    per_call = max(1, _SCORE_CELLS // iu.size)
    out = np.empty(len(sets))
    for s0 in range(0, len(sets), per_call):
        chunk = sets[s0 : s0 + per_call]
        idx = chunk[:, iu]
        idx *= N
        idx += chunk[:, ju]
        # the gather lays the set axis innermost in memory; made contiguous,
        # each set's sum is its own contiguous 1-D reduction
        upper = np.ascontiguousarray(signed[idx])
        np.abs(upper, out=upper)
        out[s0 : s0 + per_call] = 2.0 * upper.sum(axis=-1) / ((K - 1) * K)
    return out


def align_signs(G: Crcm, members, anchor):
    """Attach alignment signs: each member gets the sign of its correlation
    with the anchor, 0 mapping to +1. The anchor's correlation with itself
    is a sum of squares, so it always gets +1."""
    a = G.signed[anchor[0] * G.n_C + anchor[1]]
    return [(r, c, -1 if a[r * G.n_C + c] < 0 else 1) for r, c, *_ in members]


def match_and_score(G: Crcm):
    """Full original-RAICAR pass: match, sign-align, and score every
    component slot from the CRCM. Returns MatchedComponents in matching
    order."""
    matched = match_components(G)
    reps = _set_scores(G, [[r * G.n_C + c for r, c in m] for m, _ in matched])
    return [
        MatchedComponent(tuple(align_signs(G, members, anchor)), anchor, rep)
        for (members, anchor), rep in zip(matched, reps)
    ]
