"""Independent reference implementations used as test oracles.

These are deliberately written from the definitions (bisection, explicit
loops, O(n^2) scans) and share no code with the package, so a test never
checks an implementation against itself.
"""

import math

import numpy as np


def entmax_bisect(z, alpha=1.5, tol=1e-12, iters=400):
    """Bisection on tau until sum [(alpha-1) z - tau]_+^(1/(alpha-1)) = 1.

    Returns (p, tau).  Bracket: the normalization sum is >= 1 at
    max(s) - 1 and 0 at max(s), so the root lies between them.  With
    tol = 0 it halves until the bracket spans adjacent floats.
    """
    z = np.asarray(z, dtype=np.float64)
    s = (alpha - 1.0) * z
    power = 1.0 / (alpha - 1.0)
    lo, hi = s.max() - 1.0, s.max()

    def total(tau):
        return np.sum(np.maximum(s - tau, 0.0) ** power)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket cannot shrink any further
            break
        f = total(mid) - 1.0
        if abs(f) <= tol:
            lo = hi = mid
            break
        if f > 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.maximum(s - tau, 0.0) ** power, tau


def entmax15_sort(z):
    """1.5-entmax of one vector from the sort-based formula, in scalar loops.

    With s = (z - max z) / 2 sorted descending and running sums over the
    first k entries, tau_k = mean_k - sqrt(max((1 - ss_k) / k, 0)) where
    ss_k = sum of squares - sum * mean_k; the support size is the number
    of k with tau_k <= s_(k), and p = [s - tau]_+^2.  Sums run left to
    right, one addition at a time.  Returns (p, tau) with tau in the
    unshifted domain: sum_j [z_j / 2 - tau]_+^2 = 1.
    """
    z = [float(v) for v in z]
    zmax = max(z)
    s = [(v - zmax) * 0.5 for v in z]
    srt = sorted(s, reverse=True)
    taus = []
    total = squares = 0.0
    for k, v in enumerate(srt, start=1):
        total += v
        squares += v * v
        mean = total / k
        ss = squares - total * mean
        taus.append(mean - math.sqrt(max((1.0 - ss) / k, 0.0)))
    support = sum(1 for t, v in zip(taus, srt) if t <= v)
    tau = taus[support - 1]
    p = [max(v - tau, 0.0) for v in s]
    return np.array([q * q for q in p]), tau + 0.5 * zmax


def sparsemax_sort(z):
    """Sparsemax of one vector from the sort-based formula, in scalar loops.

    With s = z - max z sorted descending and c_k the sum of its first k
    entries, the support size is the number of k with 1 + k * s_(k) > c_k,
    tau = (c_k - 1) / k at that size and p = [s - tau]_+.  Sums run left to
    right, one addition at a time.  Returns (p, tau) with tau in the
    unshifted domain: sum_j [z_j - tau]_+ = 1.
    """
    z = [float(v) for v in z]
    zmax = max(z)
    s = [v - zmax for v in z]
    srt = sorted(s, reverse=True)
    sums = []
    total = 0.0
    for v in srt:
        total += v
        sums.append(total)
    support = sum(1 for k, (v, c) in enumerate(zip(srt, sums), start=1) if 1.0 + k * v > c)
    tau = (sums[support - 1] - 1.0) / support
    return np.array([max(v - tau, 0.0) for v in s]), tau + zmax


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def scores_triple_loop(Q, K):
    """Naive scaled dot-product scores."""
    n, d = Q.shape
    m = K.shape[0]
    Z = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for a in range(d):
                acc += Q[i, a] * K[j, a]
            Z[i, j] = acc / np.sqrt(d)
    return Z


def pareto_brute_force(points):
    """O(n^2) dominance scan; points have .sparsity and .recall."""
    out = []
    for p in points:
        dominated = False
        for q in points:
            if (
                q.sparsity >= p.sparsity
                and q.recall >= p.recall
                and (q.sparsity > p.sparsity or q.recall > p.recall)
            ):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def bucket_intersection_edges(q_buckets, k_buckets, causal=False):
    """Double loop over pairs: edge iff the bucket sets intersect."""
    edges = set()
    for i, qb in enumerate(q_buckets):
        for j, kb in enumerate(k_buckets):
            if causal and j > i:
                continue
            if set(qb) & set(kb):
                edges.add((i, j))
    return edges


def central_difference_grad(loss_fn, W, h=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wm = W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        g[idx] = (loss_fn(Wp) - loss_fn(Wm)) / (2.0 * h)
    return g
