"""Hot numeric kernels, in numpy.

These are the loops that dominate run time: row-wise 1.5-entmax on a dense
mask, score + 1.5-entmax on the cells of a CSR graph, pairwise squared
distances and nearest-centroid assignment.  The rest of the package calls
them through this module so that each has exactly one implementation.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel backend (recorded in benchmark run records)."""
    return "numpy"


# ---------------------------------------------------------------------------
# 1.5-entmax
#
# Exact sort-based solver: with s = (z - max z) / 2, the threshold is
# tau = mean_k - sqrt((1 - k * var_k) / k) evaluated at the true support
# size k, and p_j = [s_j - tau]_+^2.  One padded solver serves every entry
# point: rows padded with -inf are sorted and cumulated along axis 1, so
# each row is summed in the same order as a lone vector and the bits match.

# Cap on the padded cells solved at once (about 512 KB per float64 temporary).
_BATCH_CELLS = 1 << 16


def _entmax15_padded(S):
    """Return (P, tau) for row-wise 1.5-entmax of a 2-D float64 block.

    Cells equal to -inf are padding: they get probability exactly 0 and
    never join the support.  A row with no finite cell gets P = 0 and an
    undefined tau.  ``tau`` is reported in the unshifted score domain, i.e.
    sum_j [S_ij / 2 - tau_i]_+^2 = 1.
    """
    zmax = S.max(axis=1)
    zmax[zmax == -np.inf] = 0.0  # an all-padding row would shift to nan
    s = S - zmax[:, None]
    s *= 0.5
    srt = np.sort(s, axis=1)[:, ::-1]
    real = np.where(srt > -np.inf, srt, 0.0)  # padding adds nothing
    k = np.arange(1, S.shape[1] + 1, dtype=np.float64)
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
    tau_star = tau[np.arange(S.shape[0]), support - 1]
    s -= tau_star[:, None]
    np.maximum(s, 0.0, out=s)
    s *= s
    return s, tau_star + 0.5 * zmax


def entmax15_core(z):
    """Return (p, tau) for 1.5-entmax of a 1-D float64 vector.

    ``tau`` is reported in the unshifted score domain, i.e. it satisfies
    sum_j [z_j / 2 - tau]_+^2 = 1.
    """
    P, tau = _entmax15_padded(z[None, :])
    return P[0], tau[0]


def entmax15_masked_rows(Z, valid):
    """Row-wise 1.5-entmax of Z restricted to ``valid`` positions.

    Invalid positions get probability exactly 0, and so does every row
    without a valid entry.  Rows are solved in chunks of at most
    ``_BATCH_CELLS`` cells, each trimmed to its last valid column.
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
            P[a:b, :w] = _entmax15_padded(S)[0]
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


def sparse_rows_entmax15(Q, K, indptr, cols, scale):
    """Score + 1.5-entmax evaluated only on the CSR-selected (i, j) cells.

    Returns one probability per stored cell, aligned with ``cols``.  Rows
    with no stored cells contribute nothing.  Rows are solved in groups of
    equal padded width (the next power of two of their length), in chunks
    of at most ``_BATCH_CELLS`` padded cells.
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
            vals[cells] = _entmax15_padded(S)[0][pad]
    return vals
