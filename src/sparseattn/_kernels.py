"""Hot numeric kernels, in numpy.

These are the loops that dominate run time: row-wise alpha-entmax on a
dense mask, score + alpha-entmax on the cells of a CSR graph, pairwise
squared distances and nearest-centroid assignment.  The rest of the
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


def _entmax15_rows(s):
    """1.5-entmax of rows s = (z - max z) / 2: the threshold is
    tau = mean_k - sqrt((1 - k * var_k) / k) at the true support size k,
    and p_j = [s_j - tau]_+^2."""
    srt = np.sort(s, axis=1)[:, ::-1]
    real = np.where(srt > -np.inf, srt, 0.0)  # padding adds nothing
    k = np.arange(1, s.shape[1] + 1, dtype=np.float64)
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
    tau_star = tau[np.arange(s.shape[0]), support - 1]
    s -= tau_star[:, None]
    np.maximum(s, 0.0, out=s)
    s *= s
    return s, tau_star


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


def sparse_rows_entmax15(Q, K, indptr, cols, scale, alpha):
    """Score + alpha-entmax evaluated only on the CSR-selected (i, j) cells.

    Returns one probability per stored cell, aligned with ``cols``.  Rows
    with no stored cells contribute nothing.  Rows are solved by
    ``solve_rows`` in groups of equal padded width (the next power of two
    of their length), in chunks of at most ``_BATCH_CELLS`` padded cells.
    The name predates the other alphas; the benchmark's trace binds it.
    """
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
