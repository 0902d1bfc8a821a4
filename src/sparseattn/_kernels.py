"""Hot numeric kernels, in numpy.

These are the loops that dominate run time: row-wise alpha-entmax on a
dense mask, score + alpha-entmax on the cells of a graph (scored per row of
a CSR graph, or per bucket and band offset through a predicted graph's
cover, and solved only where a cell can reach the threshold), pairwise
squared distances and nearest-centroid assignment.  The rest of the
package calls them through this module so that each has exactly one
implementation; ``solve_rows`` holds the package's only alpha dispatch and
``sqdist_into`` the only distance formula.

``sqdist_into`` and ``kmeans_assign`` take their operands' squared norms
and (n, m) output and scratch arrays from the caller, so a k-means fit
computes the points' norms once and reuses two arrays across all the Lloyd
steps of a restart; ``pairwise_sqdist`` computes its own norms and
allocates its own arrays.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel backend (recorded in benchmark run records)."""
    return "numpy"


# ---------------------------------------------------------------------------
# alpha-entmax
#
# One padded solver serves every entry point and every alpha: rows padded
# with -inf are shifted by their max and solved together.  alpha = 1 is
# softmax; alpha = 1.5 and 2 have exact sort-based solvers whose sorts and
# running sums run along axis 1, so each row is summed in the same order as
# a lone vector; any other alpha bisects on tau for all rows at once.

# Cap on the padded cells solved at once (about 512 KB per float64 temporary).
_BATCH_CELLS = 1 << 16

# Bisection stops for a row once its normalisation sum is within
# _BISECT_TOL of 1, and for every row after _BISECT_MAX_ITER halvings.
_BISECT_TOL = 1e-9
_BISECT_MAX_ITER = 100


def solve_rows(S, alpha):
    """Return (P, tau) for row-wise alpha-entmax of a 2-D float64 block.

    Cells equal to -inf are padding: they get probability exactly 0 and
    never join the support.  A row with no finite cell gets P = 0 and an
    undefined tau.  ``tau`` is in the unshifted score domain:
    P_ij = [(alpha - 1) S_ij - tau_i]_+ ** (1 / (alpha - 1)), and for
    alpha = 1 (softmax) P_ij = exp(S_ij - tau_i).
    """
    zmax = S.max(axis=1)
    zmax[zmax == -np.inf] = 0.0  # an all-padding row would shift to nan
    s = S - zmax[:, None]
    if alpha == 1.0:
        P, tau = _softmax_rows(s)
        return P, tau + zmax
    s *= alpha - 1.0
    if alpha == 1.5:
        P, tau = _entmax15_rows(s)
    elif alpha == 2.0:
        P, tau = _sparsemax_rows(s)
    else:
        P, tau = _bisect_rows(s, 1.0 / (alpha - 1.0))
    return P, tau + (alpha - 1.0) * zmax


def _softmax_rows(s):
    P = np.exp(s)
    total = P.sum(axis=1)
    total[total == 0.0] = 1.0  # an all-padding row
    P /= total[:, None]
    return P, np.log(total)


# Width of the sorted prefix that ``_entmax15_rows`` solves first; a 1.5-entmax
# support is about 14 cells wide on the benchmark's 16 attention heads, and at
# most 31, so none of their rows is solved twice.
_PREFIX = 32
# How far below the prefix's tau the largest cell left out of the prefix must
# lie for the prefix's tau to be final.  In the shifted domain tau lies in
# [-1, 0]; near the support size where delta reaches 0, tau_k carries rounding
# errors of up to about sqrt(eps) ~ 1.5e-8, and rows of integer scores tie many
# cells at tau exactly.
_TIE_MARGIN = 1e-6


def _entmax15_rows(s):
    """1.5-entmax of rows s = (z - max z) / 2: the threshold is
    tau = mean_k - sqrt((1 - k * var_k) / k) at the true support size k,
    and p_j = [s_j - tau]_+^2.

    Rows wider than _PREFIX cells are first solved from their _PREFIX
    largest cells.  The support test tau_k <= s_(k) is monotone in k, and
    the first k running sums are the same operations on the same values as
    in a whole-row solve, so a row's tau is final unless a cell outside the
    prefix could pass the test.  That needs the row's largest such cell to
    lie above the prefix's tau, or within _TIE_MARGIN below it (cells tied
    at the threshold pass or fail by rounding); a support that fills the
    prefix is one case, since the prefix's tau then lies below the cells
    it left out.  Only those rows are solved again over the whole row, so
    P and tau are bit-identical to a whole-row solve (but for the
    undefined tau of an all-padding row).
    """
    w = s.shape[1]
    if w <= _PREFIX + 1:
        tau = _entmax15_tau(np.sort(s, axis=1)[:, ::-1])
    else:
        top = np.partition(s, w - _PREFIX - 1, axis=1)[:, w - _PREFIX - 1:]
        top.sort(axis=1)
        tau = _entmax15_tau(top[:, :0:-1])
        full = np.flatnonzero(top[:, 0] > tau - _TIE_MARGIN)
        if full.size:
            tau[full] = _entmax15_tau(np.sort(s[full], axis=1)[:, ::-1])
    s -= tau[:, None]
    np.maximum(s, 0.0, out=s)
    s *= s
    return s, tau


def _entmax15_tau(srt):
    """tau of 1.5-entmax rows from their cells sorted in decreasing order."""
    real = np.where(srt > -np.inf, srt, 0.0)  # padding adds nothing
    k = np.arange(1, srt.shape[1] + 1, dtype=np.float64)
    csum = np.cumsum(real, axis=1)
    real *= real
    ss = np.cumsum(real, axis=1)
    mean = csum / k
    csum *= mean
    ss -= csum  # k * (mean of squares - squared mean)
    # delta = max((1 - ss) / k, 0); tau = mean - sqrt(delta), in place
    np.subtract(1.0, ss, out=ss)
    ss /= k
    np.maximum(ss, 0.0, out=ss)
    np.sqrt(ss, out=ss)
    tau = np.subtract(mean, ss, out=mean)
    support = np.count_nonzero(tau <= srt, axis=1)
    return tau[np.arange(srt.shape[0]), support - 1]


def _sparsemax_rows(s):
    """Sparsemax of rows s = z - max z: the support is the k with
    1 + k * s_(k) > sum of the k largest, and p_j = [s_j - tau]_+."""
    srt = np.sort(s, axis=1)[:, ::-1]
    k = np.arange(1, s.shape[1] + 1, dtype=np.float64)
    csum = np.cumsum(np.where(srt > -np.inf, srt, 0.0), axis=1)
    support = np.maximum(np.count_nonzero(1.0 + k * srt > csum, axis=1), 1)
    tau = (csum[np.arange(s.shape[0]), support - 1] - 1.0) / support
    s -= tau[:, None]
    np.maximum(s, 0.0, out=s)
    return s, tau


def _bisect_rows(s, power):
    """alpha-entmax of rows s = (alpha - 1)(z - max z) by bisection on tau
    over [-1, 0], where each row's normalisation sum crosses 1.  A row
    stops once its sum is within _BISECT_TOL of 1; the rest keep halving."""
    tau = np.zeros(s.shape[0])
    rows = np.flatnonzero(s.max(axis=1) == 0.0)  # all but all-padding rows
    live = s[rows]
    lo = np.full(rows.size, -1.0)
    hi = np.zeros(rows.size)
    for _ in range(_BISECT_MAX_ITER):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        t = live - mid[:, None]
        np.maximum(t, 0.0, out=t)
        t **= power
        f = t.sum(axis=1)
        f -= 1.0
        up = f > 0.0
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up)
        done = np.abs(f, out=f) <= _BISECT_TOL
        if np.count_nonzero(done):
            tau[rows[done]] = mid[done]
            keep = ~done
            rows, live, lo, hi = rows[keep], live[keep], lo[keep], hi[keep]
    tau[rows] = 0.5 * (lo + hi)
    s -= tau[:, None]
    np.maximum(s, 0.0, out=s)
    s **= power
    return s, tau


def entmax15_masked_rows(Z, valid, alpha):
    """Row-wise alpha-entmax of Z restricted to ``valid`` positions.

    Invalid positions get probability exactly 0, and so does every row
    without a valid entry.  Rows are solved by ``solve_rows`` in chunks of
    at most ``_BATCH_CELLS`` cells, each trimmed to its last valid column.
    The name predates the other alphas; the benchmark's trace binds it.
    """
    n, m = Z.shape
    P = np.zeros((n, m))
    if m == 0:
        return P
    # one past the last valid column of each row (0 for an empty row)
    ends = np.where(valid.any(axis=1), m - np.argmax(valid[:, ::-1], axis=1), 0)
    step = max(1, _BATCH_CELLS // m)
    for a in range(0, n, step):
        b = min(a + step, n)
        w = int(ends[a:b].max())
        if w:
            S = np.where(valid[a:b, :w], Z[a:b, :w], -np.inf)
            P[a:b, :w] = solve_rows(S, alpha)[0]
    return P


def sqdist_into(A, a2, B, D, G):
    """Write the unclamped squared distances a2_i + |B_j|^2 - 2 A_i . B_j
    into the caller's (n, m) array D, using the (n, m) array G as scratch,
    and return D.  ``a2`` is ``np.sum(A * A, axis=1)``, which a caller
    running many steps over the same A computes once.

    The sums are those of the one-shot expression
    ``a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)`` (addition commutes
    exactly), so D is bit-identical to it: the package's one distance
    formula.  Filling D with b2 and then adding a2 takes less time than
    one broadcast add.
    """
    D[:] = np.sum(B * B, axis=1)
    D += a2[:, None]
    np.matmul(A, B.T, out=G)
    G *= 2.0
    D -= G
    return D


def pairwise_sqdist(A, B):
    """Squared Euclidean distances between rows of A (n,r) and B (m,r),
    clamped at 0."""
    n, m = A.shape[0], B.shape[0]
    D = sqdist_into(A, np.sum(A * A, axis=1), B, np.empty((n, m)), np.empty((n, m)))
    return np.maximum(D, 0.0, out=D)


def kmeans_assign(X, C, x2, D, G):
    """Nearest-centroid labels (ties to the lower index) and total inertia
    of the rows of X, with ``x2``, D and G as for ``sqdist_into``.

    The distances are clamped at 0 only where it matters: a row whose
    smallest entry is <= 0 takes its first entry <= 0, as the argmin of
    the clamped row would, since each such entry clamps to 0.
    """
    sqdist_into(X, x2, C, D, G)
    labels = np.argmin(D, axis=1)
    rows = np.arange(X.shape[0])
    mins = D[rows, labels]
    low = np.flatnonzero(mins <= 0.0)
    if low.size:
        labels[low] = np.argmax(D[low] <= 0.0, axis=1)
        mins[low] = 0.0
    return labels, float(mins.sum())


def sparse_rows_entmax15(Q, K, indptr, cols, scale, alpha):
    """Score + alpha-entmax evaluated only on the CSR-selected (i, j) cells.

    Returns one probability per stored cell, aligned with ``cols``.  Rows
    with no stored cells contribute nothing.  Row i's scores are
    ``K[cols] @ Q[i] * scale``, solved by ``csr_entmax``.  The name predates
    the other alphas; the benchmark's trace binds it and counts ``cols``.
    """
    scores = np.empty(cols.size)
    bounds = indptr.tolist()
    for i, q in enumerate(Q):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            np.multiply(K.take(cols[lo:hi], axis=0) @ q, scale, out=scores[lo:hi])
    return csr_entmax(indptr, scores, alpha)


# ---------------------------------------------------------------------------
# The cells that can reach the threshold
#
# For alpha > 1 the threshold satisfies tau >= -1 in the solver's shifted
# domain s = (alpha - 1)(z - max z): the max cell has s = 0 and probability
# (0 - tau) ** (1 / (alpha - 1)) <= 1.  A cell with s < -1 therefore never
# gets probability, and both sparse paths hand ``solve_rows`` only the cells
# with s >= -1 (every cell at alpha = 1, softmax).


def _reaches_bound(S, zmax, alpha):
    """Mask of the cells of S whose shifted score, computed with
    ``solve_rows``' own arithmetic against the finite row maxima ``zmax``
    (broadcast against S), is >= -1; -inf cells never pass."""
    if alpha == 1.0:
        return S > -np.inf
    s = S - zmax
    s *= alpha - 1.0
    return s >= -1.0


def csr_entmax(indptr, S, alpha):
    """Row-wise alpha-entmax of CSR rows of scores S: one probability per
    cell, aligned with S.  Only the cells that reach the bound are solved;
    the others get exactly 0."""
    lens = np.diff(indptr)
    filled = lens > 0
    out = np.zeros(S.size)
    if not filled.any():
        return out
    zmax = np.repeat(np.maximum.reduceat(S, indptr[:-1][filled]), lens[filled])
    keep = _reaches_bound(S, zmax, alpha)
    kept = np.zeros(S.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    out[keep] = solve_cells(kept[indptr], S[keep], alpha)
    return out


def solve_cells(indptr, S, alpha):
    """``solve_rows`` on CSR rows of scores S (each row's cells in column
    order), returning one probability per cell.  Consecutive rows are
    solved together, each chunk padded with -inf to its widest row, and a
    chunk holds at most ``_BATCH_CELLS`` // (widest row overall) rows."""
    out = np.empty(S.size)
    lens = np.diff(indptr)
    rows = np.flatnonzero(lens)
    if not rows.size:
        return out
    step = max(1, _BATCH_CELLS // int(lens.max()))
    for a in range(0, rows.size, step):
        r = rows[a : a + step]
        rl = lens[r]
        pad = np.arange(rl.max()) < rl[:, None]
        # the rows between r[0] and r[-1] without cells hold none of S
        lo, hi = indptr[r[0]], indptr[r[-1] + 1]
        T = np.full(pad.shape, -np.inf)
        T[pad] = S[lo:hi]
        out[lo:hi] = solve_rows(T, alpha)[0][pad]
    return out


# ---------------------------------------------------------------------------
# Predicted graphs through their cover
#
# A cover is a tuple of pieces whose cells, cut to the admissible cells, are
# a graph's edges:
#   ("buckets", mq, mk)  for every bucket b, the rectangle of the queries i
#                        with mq[i, b] and the keys j with mk[j, b] (boolean
#                        (n, B) and (m, B) memberships);
#   ("band", half)       keys i - half .. i + half of each query i (.. i if
#                        causal).
# A cell in several pieces (or in two buckets) is scored by each of them;
# the last of them, in cover order and by bucket within a buckets piece,
# gives its value.


def _band_offsets(half, causal):
    return range(-half, 1 if causal else half + 1)


def cover_candidates(Q, K, cover, causal, scale, alpha):
    """The cells of ``cover`` that reach the bound, as (lin, S): their
    row-major linear indices i * m + j, sorted and unique, and their scores
    Q[i] . K[j] * scale.

    The pieces are scored whole by ``_cover_tiles``.  A row's maximum is
    taken over all of its cells, and only the cells that reach the bound
    against it are gathered, so no (n, m) array is made.  A stable sort
    keeps the copies of a cell in cover order, and each cell keeps its last
    copy: the last writer's value.  (A cell whose last copy misses the bound
    while an earlier one reaches it lies within rounding of s = -1, where
    its probability is 0.)
    """
    tiles = _cover_tiles(Q, K, cover, causal, scale)
    zmax = np.full(Q.shape[0], -np.inf)
    for rows, _, S, _ in tiles:
        np.maximum.at(zmax, rows, S.max(axis=1))
    zmax[zmax == -np.inf] = 0.0  # a row without cells
    lin, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for rows, cols, S, banded in tiles:
        cells = np.flatnonzero(_reaches_bound(S, zmax[rows, None], alpha))
        a = cells // cols.size
        i = rows[a]
        lin.append(i * K.shape[0] + cols[cells - a * cols.size] + (i if banded else 0))
        vals.append(S.ravel()[cells])
    lin, vals = np.concatenate(lin), np.concatenate(vals)
    order = np.argsort(lin, kind="stable")
    lin = lin[order]
    last = np.ones(lin.size, dtype=bool)
    np.not_equal(lin[1:], lin[:-1], out=last[:-1])
    return lin[last], vals[order[last]]


def _cover_tiles(Q, K, cover, causal, scale):
    """Score tiles (rows, cols, S, banded) of every piece of ``cover``, in
    cover order: S[a, c] scores query rows[a] against key cols[c] (key
    rows[a] + cols[c] if banded).  Each bucket is one GEMM,
    ``Q[qb] @ K[kb].T``, and each band offset one row-wise dot of two row
    slices; only the cells above a causal diagonal are -inf."""
    n, m = Q.shape[0], K.shape[0]
    tiles = []
    for kind, *args in cover:
        if kind == "buckets":
            mq, mk = args
            B = mq.shape[1]
            # tokens grouped by bucket: nonzero of the (B, tokens) view
            qb, qt = np.nonzero(mq.T)
            kb, kt = np.nonzero(mk.T)
            qs = np.searchsorted(qb, np.arange(B + 1)).tolist()
            ks = np.searchsorted(kb, np.arange(B + 1)).tolist()
            Qg, Kg = Q[qt], K[kt]
            for b in range(B):
                q0, q1, k0, k1 = qs[b], qs[b + 1], ks[b], ks[b + 1]
                if q1 > q0 and k1 > k0:
                    rows, cols = qt[q0:q1], kt[k0:k1]
                    S = Qg[q0:q1] @ Kg[k0:k1].T
                    S *= scale
                    if causal:
                        np.putmask(S, cols[None, :] > rows[:, None], -np.inf)
                    tiles.append((rows, cols, S, False))
        else:
            offsets = _band_offsets(args[0], causal)
            S = np.full((n, len(offsets)), -np.inf)
            for c, o in enumerate(offsets):
                i0, i1 = max(0, -o), min(n, m - o)
                if i1 > i0:
                    np.multiply(np.einsum("ij,ij->i", Q[i0:i1], K[i0 + o : i1 + o]),
                                scale, out=S[i0:i1, c])
            tiles.append((np.arange(n), np.array(offsets, dtype=np.int64), S, True))
    return tiles
