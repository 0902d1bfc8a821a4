"""Hot numeric kernels, in numpy.

These are the loops that dominate run time: row-wise alpha-entmax on a
dense mask, score + alpha-entmax on the cells of a CSR graph (scored per
row, or per bucket and band offset through a predicted graph's cover),
pairwise squared distances and nearest-centroid assignment.  The rest of the
package calls them through this module so that each has exactly one
implementation; ``solve_rows`` holds the package's only alpha dispatch.
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


def pairwise_sqdist(A, B):
    """Squared Euclidean distances between rows of A (n,r) and B (m,r)."""
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    D = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.maximum(D, 0.0)


def kmeans_assign(X, C):
    """Nearest-centroid labels (ties to the lower index) and total inertia."""
    D = pairwise_sqdist(X, C)
    labels = np.argmin(D, axis=1).astype(np.int64)
    inertia = float(D[np.arange(X.shape[0]), labels].sum())
    return labels, inertia


def sparse_rows_entmax15(Q, K, indptr, cols, scale, alpha, scores=None):
    """Score + alpha-entmax evaluated only on the CSR-selected (i, j) cells.

    Returns one probability per stored cell, aligned with ``cols``.  Rows
    with no stored cells contribute nothing.  The scores are ``scores`` if
    given (one per stored cell, already scaled), else each row's
    ``K[cols] @ Q[i] * scale``.  Rows are solved by ``solve_rows`` in groups
    of equal padded width (the next power of two of their length), in
    chunks of at most ``_BATCH_CELLS`` padded cells.  The name predates the
    other alphas; the benchmark's trace binds it and counts ``cols``.
    """
    if scores is None:
        scores = np.empty(cols.size)
        bounds = indptr.tolist()
        for i, q in enumerate(Q):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                np.multiply(K.take(cols[lo:hi], axis=0) @ q, scale, out=scores[lo:hi])
    vals = np.zeros(cols.size)
    lens = np.diff(indptr)
    # padded width 2**ceil(log2(len)) (frexp's exponent is the bit length
    # of len - 1), and 0 for an empty row
    widths = np.where(lens > 0, np.left_shift(1, np.frexp(np.maximum(lens - 1, 0))[1]), 0)
    for w in np.unique(widths[widths > 0]):
        rows = np.flatnonzero(widths == w)
        step = max(1, _BATCH_CELLS // int(w))
        for a in range(0, rows.size, step):
            r = rows[a : a + step]
            rl = lens[r]
            pad = np.arange(w) < rl[:, None]
            # the stored cells of rows r, row after row
            cells = np.arange(rl.sum()) + np.repeat(indptr[r] - (np.cumsum(rl) - rl), rl)
            S = np.full(pad.shape, -np.inf)
            S[pad] = scores[cells]
            vals[cells] = solve_rows(S, alpha)[0][pad]
    return vals


# ---------------------------------------------------------------------------
# Scoring a predicted graph through its cover
#
# A cover is a tuple of pieces whose cells, cut to the admissible cells, are
# a graph's edges:
#   ("buckets", mq, mk)  for every bucket b, the rectangle of the queries i
#                        with mq[i, b] and the keys j with mk[j, b] (boolean
#                        (n, B) and (m, B) memberships);
#   ("band", half)       keys i - half .. i + half of each query i (.. i if
#                        causal).
# A cell in several pieces (or in two buckets) is scored once for each.


def _band_offsets(half, causal):
    return range(-half, 1 if causal else half + 1)


def cover_cells(cover, n, m, causal) -> int:
    """Cells ``score_cover`` computes for ``cover`` on an n x m grid, a cell
    once per piece or bucket that holds it (a causal bucket rectangle
    counts its cells above the diagonal too)."""
    cells = 0
    for kind, *args in cover:
        if kind == "buckets":
            mq, mk = args
            cells += int(mq.sum(axis=0) @ mk.sum(axis=0))
        else:
            cells += sum(max(0, min(n, m - o) - max(0, -o))
                         for o in _band_offsets(args[0], causal))
    return cells


def score_cover(Q, K, cover, causal, out):
    """Write the dot product Q[i] . K[j] into out[i, j] for every cell of
    ``cover``, leaving the other cells of the C-contiguous (n, m) ``out``
    as they are.

    Each bucket is one GEMM, ``Q[qb] @ K[kb].T``, scattered into its
    rectangle; each band offset is one row-wise dot of two row slices,
    stored through a stride-(m + 1) view of that diagonal.
    """
    n, m = out.shape
    flat = out.reshape(-1)
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
                    cells = qt[q0:q1, None] * m + kt[k0:k1]
                    flat[cells.ravel()] = (Qg[q0:q1] @ Kg[k0:k1].T).ravel()
        else:
            for o in _band_offsets(args[0], causal):
                i0, i1 = max(0, -o), min(n, m - o)
                if i1 > i0:
                    start = i0 * (m + 1) + o
                    flat[start : start + (i1 - i0 - 1) * (m + 1) + 1 : m + 1] = np.einsum(
                        "ij,ij->i", Q[i0:i1], K[i0 + o : i1 + o])
