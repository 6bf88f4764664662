"""Cross-run component matching and normalized reproducibility.

Builds the block matrix of signed spatial correlations between all
components of all runs once, greedily matches one component per run into
aligned sets on its absolute values, and scores each set by the mean of
its pairwise absolute correlations read from that same matrix. The
matcher never builds a working matrix: it sorts each row of |G| once per
matrix and keeps one pointer per row at that row's best partner still
free and in another run, advancing only the pointers a step made stale,
through windows that start at 2 entries and grow for the few long walks.
Each row's current maximum is kept in the order of the (pseudo-)labels,
written in place as pointers move; a used row's maximum reads -inf and
its pseudo-run -1. Every per-row reduction over a run's members or a
window's entries is one first-index argmax, or none where the window is
1 or 2 entries wide; no reduction repeats an argmax to read its maximum.
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
    across all runs; a map of equal values is centred on its own value,
    which its mean can miss by an ulp, so it correlates 0 with every map,
    itself included. ``runs`` is a RunCollection or the ``io.RunFiles`` of
    a manifest, read by ``runs.run`` in two passes through one buffer of
    every map's slice of a block of locations, at most _CRCM_CELLS cells.
    The first pass reads one whole run at a time, for each map's mean and
    centred norm, centring it in the writable array that ``runs.run``
    returns, and keeps the first block; the second reads every run's slice
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
        flat = (X == X[:, :1]).all(axis=1, keepdims=True)
        means[rows] = np.where(flat, X[:, :1], X.mean(axis=1, keepdims=True))
        X -= means[rows]
        Z[rows] = X[:, :width]
        np.multiply(X, X, out=X)
        norms[rows, 0] = np.sqrt(np.add.reduce(X, axis=1))
        del X  # freed before the next run is read
    # a zero-norm row is divided by 1.0, which leaves it as it is: all zeros
    # for a map of equal values, but not for a map of values near 1e-170,
    # whose squares underflow, so that its norm is 0 and its row is not
    norms[norms == 0.0] = 1.0
    np.divide(Z, norms, out=Z)
    C = Z @ Z.T
    for lo in range(width, n, width):
        hi = min(lo + width, n)
        Z = buf[: N * (hi - lo)].reshape(N, hi - lo)
        for r in range(K):
            rows = slice(r * n_C, (r + 1) * n_C)
            np.subtract(runs.run(r, lo, hi), means[rows], out=Z[rows])
        np.divide(Z, norms, out=Z)
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
# row) cells per batch, so every per-step temporary stays near 128 kB, and
# the first window of a pointer walk, 2 entries of each row, near 256 kB.
_STATE_CELLS = 2**14


def _greedy(G: Crcm, perms: np.ndarray):
    """Greedy matching of B relabellings of G at once.

    ``perms`` is (B, N): in replicate b, flat (pseudo-)label f holds G's
    component ``perms[b, f]``, and pseudo-run f // n_C. The working matrix
    of a replicate is |G| relabelled, with its within-pseudo-run blocks and
    the rows and columns of used components at -inf; it is never built.
    Instead each (replicate, row) keeps a pointer into ``G.row_order`` at
    the row's best partner that is unused and in another pseudo-run, so
    the pointer's value is the row's maximum, kept in pseudo order. A use
    of a row writes only its pseudo-run, to -1, and its maximum, to -inf.
    A step reads the maxima, two O(N) rows capped by them, and the pointers
    its members made stale. G is exactly symmetric, so a free row outside
    the capped row's pseudo-run keeps its entry and a used row reads -inf.

    The two rows are laid side by side per pseudo-run, column fj's entries
    then row fi's, so that one first-index argmax over the pair picks each
    run's member, the column side winning ties, with no second reduction
    for the maxima. The pointer walks lay a window's entries along the
    first axis, so every elementwise pass runs along the rows being
    walked, not along windows of 1 or 2 entries.

    Every pick is a first-index argmax, and the -inf cells make that the
    matching's whole rule: free cells read >= 0 and every pseudo-run keeps
    a free member, so a maximum of 0 seeds at the lowest free members of
    pseudo-runs 0 and 1, a run reading 0 against both anchor members gives
    its lowest free member, and each anchor member is its run's first
    maximum (an earlier free cell of that value would be the anchor).

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
    # state cell c = b * N + u belongs to replicate b, whose cells start at
    # c - c % N, and to G's row u, which starts at u * N in the flat arrays
    offset = (reps * N)[:, None]
    cell = perms + offset  # state cell of each pseudo label
    block = np.empty(B * N, dtype=np.int32)  # its pseudo-run; -1 once used
    block[cell] = np.arange(N) // n_C
    at = np.empty(B * N, dtype=np.int64)  # its flat position in pseudo order
    at[cell] = np.arange(B * N).reshape(B, N)
    ptr = np.arange(B * N) % N * N - 1  # position of its pointer in the flat row_order
    steps = np.arange(1, N + 1)[:, None]  # a window's offsets from the pointer
    tgt = np.empty(B * N, dtype=np.int64)  # state cell under the pointer
    top = np.empty((B, N))  # in pseudo order: each row's maximum; -inf once used
    # per pseudo-run: the working entries of column fj, then of row fi
    pair = np.empty((B, K, 2, n_C))

    def advance(cells):
        """Move each cell's pointer to its row's next partner that is
        unused and in another pseudo-run. Nearly every such partner lies
        within an entry or two, so each pass scans a window of entries for
        the rows still unresolved. The first pass of a call reads 2
        entries of each row, whatever the cap: in the first call a row's
        first entry is mostly its own diagonal, in its own run, so a window
        of 1 would resolve almost no row and the pass would be spent. Each
        later window is 4x wider, capped at N per row and about
        _STATE_CELLS cells per pass. A window of 1 or 2 entries takes its
        first usable entry elementwise; a wider one by one argmax."""
        todo, grow = cells, 2
        while todo.size:
            width = 2 if grow == 2 else min(grow, N, max(1, _STATE_CELLS // todo.size))
            p = ptr[todo]
            # entry k of every window in row k, so each elementwise pass runs
            # along the rows still unresolved. A free row always has such a
            # partner before its row's end, so the entries a window reads
            # past that end are never taken; "clip" keeps the last row's
            # inside the array
            t = order.take(p + steps[:width], mode="clip") + (todo - todo % N)
            bt = block[t]
            ok = (bt >= 0) & (bt != block[todo])
            # each pointer moves to its window's first usable entry, or to
            # the window's last entry if none is usable
            if width <= 2:
                found = ok[0] | ok[-1]
                p += np.where(ok[0], 1, width)
            else:
                hit = ok.argmax(axis=0)
                found = ok[hit, np.arange(todo.size)]
                p += np.where(found, hit + 1, width)
            ptr[todo] = p
            todo, grow = todo[~found], grow * 4
        col = order[ptr[cells]]
        u = cells % N
        tgt[cells] = cells - u + col
        top.reshape(-1)[at[cells]] = np.abs(signed[u * N + col])

    def working_row(f, side):
        """Row f of each replicate's working matrix, in pseudo order,
        written into one side of ``pair``."""
        w = pair[:, :, side]
        entries = np.abs(signed[(perms[reps, f] * N)[:, None] + perms])
        np.minimum(entries.reshape(B, K, n_C), top.reshape(B, K, n_C), out=w)
        w[reps, f // n_C] = -np.inf
        return w

    advance(np.arange(B * N))
    members = np.empty((B, n_C, K), dtype=np.int64)
    anchor_run = np.empty((B, n_C), dtype=np.int64)
    for s in range(n_C):
        # the first row, in pseudo order, holding the replicate's maximum,
        # and that row's first maximum: the working matrix is symmetric, so
        # this is its first maximum in row-major order and fi < fj
        fi = top.argmax(axis=1)
        fj = working_row(fi, 1).reshape(B, N).argmax(axis=1)
        working_row(fj, 0)  # row fj equals column fj by symmetry
        # per run: the member best correlated with either anchor member, by
        # one first-index argmax over column then row, so the column side
        # wins ties
        pick = pair.reshape(B, K, 2 * n_C).argmax(axis=2) % n_C
        slots = offset + runs * n_C + pick  # the members' cells in a B x N array
        taken = perms.reshape(-1)[slots]
        members[:, s], anchor_run[:, s] = taken, fi // n_C
        block[taken + offset] = -1
        top.reshape(-1)[slots] = -np.inf
        if s + 1 < n_C:
            advance(np.flatnonzero((block >= 0) & (block[tgt] < 0)))
    return members, anchor_run


def match_components(G: Crcm, order=None):
    """Greedy across-run matching on |G| with the within-run blocks at
    -inf, after relabelling: flat index f holds G's component ``order[f]``
    (identity if None), so a null replicate is this call on a permutation.

    Each component slot seeds a matched set at the global maximum (the
    anchor pair), then takes from every other run the unused component
    best correlated with either anchor member, the second member winning
    ties, and retires all members, whose rows and columns then read -inf.
    Every argmax takes the first index of its maximum, so a run with no
    positive correlation to either takes its lowest-index unused
    component. Returns one (members, anchor) pair per slot, members being
    G's (run, component) pairs in (pseudo-)run order; across all sets
    every (run, component) pair is used exactly once.
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
