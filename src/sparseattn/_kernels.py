"""Hot numeric kernels with two interchangeable backends.

Every kernel exists as a pure-numpy implementation (``*_np``) and, when
numba is importable, an ``@njit``-compiled one (``*_nb``).  The module-level
public names (``entmax15_masked_rows`` etc.) point at the backend selected
once at import time: numba by default, numpy when the environment variable
``SPARSEATTN_NUMBA`` is set to ``0``/``false``/``off`` or numba is missing.

``benchmarks/backend_bench.py`` imports both variants directly to compare
them; library code should only use the public aliases.
"""

import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba is the optional extra 'numba'; numpy is the reference
    NUMBA_AVAILABLE = False

_flag = os.environ.get("SPARSEATTN_NUMBA", "1").strip().lower()
NUMBA_ENABLED = NUMBA_AVAILABLE and _flag not in ("0", "false", "off")


def backend() -> str:
    """Name of the kernel backend selected at import time."""
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# 1.5-entmax, single vector (numpy)
#
# Exact sort-based solver: with s = (z - max z) / 2, the threshold is
# tau = mean_k - sqrt((1 - k * var_k) / k) evaluated at the true support
# size k, and p_j = [s_j - tau]_+^2.


def entmax15_core_np(z):
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


def _entmax15_masked_rows_np(Z, valid):
    """Row-wise 1.5-entmax of Z restricted to ``valid`` positions.

    Invalid positions get probability exactly 0.  Every row must have at
    least one valid entry.
    """
    n, m = Z.shape
    P = np.zeros((n, m))
    for i in range(n):
        idx = np.flatnonzero(valid[i])
        if idx.size:
            P[i, idx] = entmax15_core_np(Z[i, idx])[0]
    return P


def _pairwise_sqdist_np(A, B):
    """Squared Euclidean distances between rows of A (n,r) and B (m,r)."""
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    D = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.maximum(D, 0.0)


def _kmeans_assign_np(X, C):
    """Nearest-centroid labels (ties to the lower index) and total inertia."""
    D = _pairwise_sqdist_np(X, C)
    labels = np.argmin(D, axis=1).astype(np.int64)
    inertia = float(D[np.arange(X.shape[0]), labels].sum())
    return labels, inertia


def _sparse_rows_entmax15_np(Q, K, indptr, cols, scale):
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
        vals[lo:hi] = entmax15_core_np(scores)[0]
    return vals


# ---------------------------------------------------------------------------
# numba variants

if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _entmax15_vec_nb(z):
        cnt = z.size
        zmax = z[0]
        for t in range(1, cnt):
            if z[t] > zmax:
                zmax = z[t]
        s = np.empty(cnt)
        for t in range(cnt):
            s[t] = (z[t] - zmax) * 0.5
        srt = np.sort(s)[::-1]
        csum = 0.0
        csq = 0.0
        tau = 0.0
        for k in range(1, cnt + 1):
            v = srt[k - 1]
            csum += v
            csq += v * v
            mean = csum / k
            ss = csq - csum * mean
            delta = (1.0 - ss) / k
            if delta < 0.0:
                delta = 0.0
            tk = mean - np.sqrt(delta)
            if tk <= v:
                tau = tk
        p = np.empty(cnt)
        for t in range(cnt):
            d = s[t] - tau
            p[t] = d * d if d > 0.0 else 0.0
        return p

    @njit(cache=True)
    def _entmax15_masked_rows_nb(Z, valid):
        n, m = Z.shape
        P = np.zeros((n, m))
        buf = np.empty(m)
        idx = np.empty(m, np.int64)
        for i in range(n):
            cnt = 0
            for j in range(m):
                if valid[i, j]:
                    buf[cnt] = Z[i, j]
                    idx[cnt] = j
                    cnt += 1
            if cnt == 0:
                continue
            p = _entmax15_vec_nb(buf[:cnt].copy())
            for t in range(cnt):
                P[i, idx[t]] = p[t]
        return P

    @njit(cache=True)
    def _pairwise_sqdist_nb(A, B):
        n, r = A.shape
        m = B.shape[0]
        D = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                acc = 0.0
                for a in range(r):
                    diff = A[i, a] - B[j, a]
                    acc += diff * diff
                D[i, j] = acc
        return D

    @njit(cache=True)
    def _kmeans_assign_nb(X, C):
        n = X.shape[0]
        B, r = C.shape
        labels = np.empty(n, np.int64)
        inertia = 0.0
        for i in range(n):
            best = np.inf
            arg = 0
            for b in range(B):
                acc = 0.0
                for a in range(r):
                    diff = X[i, a] - C[b, a]
                    acc += diff * diff
                if acc < best:
                    best = acc
                    arg = b
            labels[i] = arg
            inertia += best
        return labels, inertia

    @njit(cache=True)
    def _sparse_rows_entmax15_nb(Q, K, indptr, cols, scale):
        n, d = Q.shape
        vals = np.zeros(cols.size)
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            cnt = hi - lo
            if cnt == 0:
                continue
            scores = np.empty(cnt)
            for t in range(cnt):
                j = cols[lo + t]
                acc = 0.0
                for a in range(d):
                    acc += Q[i, a] * K[j, a]
                scores[t] = acc * scale
            p = _entmax15_vec_nb(scores)
            for t in range(cnt):
                vals[lo + t] = p[t]
        return vals

else:  # pragma: no cover
    _entmax15_masked_rows_nb = None
    _pairwise_sqdist_nb = None
    _kmeans_assign_nb = None
    _sparse_rows_entmax15_nb = None


if NUMBA_ENABLED:
    entmax15_masked_rows = _entmax15_masked_rows_nb
    pairwise_sqdist = _pairwise_sqdist_nb
    kmeans_assign = _kmeans_assign_nb
    sparse_rows_entmax15 = _sparse_rows_entmax15_nb
else:
    entmax15_masked_rows = _entmax15_masked_rows_np
    pairwise_sqdist = _pairwise_sqdist_np
    kmeans_assign = _kmeans_assign_np
    sparse_rows_entmax15 = _sparse_rows_entmax15_np
