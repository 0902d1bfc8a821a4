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
# 1.5-entmax, single vector
#
# Exact sort-based solver: with s = (z - max z) / 2, the threshold is
# tau = mean_k - sqrt((1 - k * var_k) / k) evaluated at the true support
# size k, and p_j = [s_j - tau]_+^2.


def entmax15_core(z):
    """Return (p, tau) for 1.5-entmax of a 1-D float64 vector.

    ``tau`` is reported in the unshifted score domain, i.e. it satisfies
    sum_j [z_j / 2 - tau]_+^2 = 1.
    """
    zmax = z.max()
    s = (z - zmax) * 0.5
    srt = np.sort(s)[::-1]
    k = np.arange(1, srt.size + 1, dtype=np.float64)
    csum = np.cumsum(srt)
    csq = np.cumsum(srt * srt)
    mean = csum / k
    ss = csq - csum * mean  # k * (mean of squares - squared mean)
    delta = np.maximum((1.0 - ss) / k, 0.0)
    tau = mean - np.sqrt(delta)
    support = int(np.count_nonzero(tau <= srt))
    tau_star = tau[support - 1]
    p = np.maximum(s - tau_star, 0.0)
    return p * p, tau_star + 0.5 * zmax


def entmax15_masked_rows(Z, valid):
    """Row-wise 1.5-entmax of Z restricted to ``valid`` positions.

    Invalid positions get probability exactly 0, and so does every row
    without a valid entry.
    """
    n, m = Z.shape
    P = np.zeros((n, m))
    for i in range(n):
        idx = np.flatnonzero(valid[i])
        if idx.size:
            P[i, idx] = entmax15_core(Z[i, idx])[0]
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
    with no stored cells contribute nothing.
    """
    n = Q.shape[0]
    vals = np.zeros(cols.size)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue
        scores = (K[cols[lo:hi]] @ Q[i]) * scale
        vals[lo:hi] = entmax15_core(scores)[0]
    return vals
