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


def pair_lists(matrices, graphs):
    """The positive pairs of (ScoreMatrix, graph) instances, from each
    graph's edge set by plain loops: (query vectors, positive key vectors,
    every key stacked, query ids, eligible key indices per query id).

    Pairs are each instance's edges in (i, j) order; query ids number the
    distinct queries with an edge in that order, and a query's eligible
    keys are the keys of its own instance that it has no edge to.
    """
    queries, pos_keys, keys, query_ids, eligible = [], [], [], [], []
    offset = 0
    for sm, g in zip(matrices, graphs):
        edges = g.edge_set()
        ids = {}
        for i, j in sorted(edges):
            if i not in ids:
                ids[i] = len(eligible)
                eligible.append([offset + k for k in range(g.m) if (i, k) not in edges])
            queries.append(sm.Q[i])
            pos_keys.append(sm.K[j])
            query_ids.append(ids[i])
        keys.extend(sm.K)
        offset += g.m
    return np.array(queries), np.array(pos_keys), np.array(keys), np.array(query_ids), eligible


def train_projection_per_pair(
    queries, pos_keys, keys, query_ids, eligible, *, r, margin, learning_rate, epochs,
    batch_size, negatives_per_positive, rng_seed, negative_seed,
):
    """Mini-batch Adam on the contrastive hinge loss, one (query, positive,
    negative) triple at a time.

    W starts ~ U[-1/sqrt(d), 1/sqrt(d)] from default_rng(rng_seed), which
    then permutes the pairs once per epoch.  Each negative is one scalar
    ``integers`` draw from default_rng(negative_seed) over the pair's
    ``eligible[query_ids[p]]`` key indices, skipped when that list is empty.
    A batch's gradient is the mean over its triples of the outer-product
    gradient on the slope of max(0, margin + ||Wq - Wk_P||^2 - ||Wq - Wk_N||^2);
    a batch without triples takes no step.  The bias is left out: it
    cancels in every distance.  Returns (W, mean loss of every batch).
    """
    d = queries.shape[1]
    rng = np.random.default_rng(rng_seed)
    rng_neg = np.random.default_rng(negative_seed)
    bound = 1.0 / math.sqrt(d)
    W = rng.uniform(-bound, bound, size=(r, d))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    step = 0
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(queries))
        for start in range(0, len(order), batch_size):
            gW = np.zeros_like(W)
            total = 0.0
            count = 0
            for p in order[start : start + batch_size]:
                q, kp = queries[p], pos_keys[p]
                pool = eligible[query_ids[p]]
                for _ in range(negatives_per_positive):
                    if len(pool) == 0:
                        continue
                    kn = keys[pool[int(rng_neg.integers(len(pool)))]]
                    dp = W @ q - W @ kp
                    dn = W @ q - W @ kn
                    slack = margin + dp @ dp - dn @ dn
                    total += max(0.0, slack)
                    if slack > 0.0:
                        gW += np.outer(2.0 * (dp - dn), q) - np.outer(2.0 * dp, kp)
                        gW += np.outer(2.0 * dn, kn)
                    count += 1
            if count == 0:
                continue
            gW /= count
            history.append(total / count)
            step += 1
            mW = beta1 * mW + (1 - beta1) * gW
            vW = beta2 * vW + (1 - beta2) * gW * gW
            W = W - learning_rate * (mW / (1 - beta1**step)) / (
                np.sqrt(vW / (1 - beta2**step)) + eps
            )
    return W, history


def bigbird_random_blocks_dense(n, m, num_blocks, block_size=1, seed=0, causal=False):
    """Sorted linear edge indices of the random off-diagonal blocks, from an
    explicit grid of candidate blocks and a dense mask filled block by block.

    The candidates are every (block row, block column) pair off the
    diagonal (below it if causal) in row-major order; ``num_blocks`` of them
    (all, if fewer exist) are drawn with one ``choice(..., replace=False)``
    on ``default_rng(seed)``.
    """
    nb = -(-n // block_size)
    mb = -(-m // block_size)
    bi, bj = np.meshgrid(np.arange(nb), np.arange(mb), indexing="ij")
    keep = bi != bj
    if causal:
        keep &= bj < bi
    cells = np.stack([bi[keep], bj[keep]], axis=1)
    rng = np.random.default_rng(seed)
    take = min(num_blocks, len(cells))
    chosen = cells[rng.choice(len(cells), size=take, replace=False)] if take else cells[:0]
    dense = np.zeros((n, m), dtype=bool)
    for cbi, cbj in chosen:
        dense[cbi * block_size : (cbi + 1) * block_size,
              cbj * block_size : (cbj + 1) * block_size] = True
    if causal:
        dense &= np.tri(n, m, dtype=bool)
    return np.flatnonzero(dense)


def _hp_text(hp):
    return "|".join(f"{k}={hp[k]!r}" if isinstance(hp[k], float) else f"{k}={hp[k]}"
                    for k in sorted(hp))


def run_sweep_uncached(instances, methods, grids, windows, global_counts, global_mode,
                       artifacts, alpha, seed):
    """The sweep as one plain loop over cells and instances.

    Every cell projects every instance again and builds its pattern with
    ``combine_with_patterns``; each (cell, instance) gets a fresh
    ``default_rng((seed, crc32 of the cell key, instance index))``.  Unlike
    the rest of this module it runs the package's predictors, through
    public names only: it pins what the sweep does with them, not the
    predictors themselves.  ``grids`` must give every parameter of every
    method.
    """
    import itertools
    import zlib

    import sparseattn as sa

    golds = [sa.extract_graph(sm, sa.EntmaxParams(alpha=alpha)) for sm in instances]
    records = []
    for method in methods:
        grid = grids.get(method, {})
        names = sorted(grid)
        combos = [dict(zip(names, vals))
                  for vals in itertools.product(*(grid[k] for k in names))] or [{}]
        g_axis = (0,) if method == "longformer" else tuple(global_counts)
        for params, w, g_axis_value in itertools.product(combos, windows, g_axis):
            g_count = params["num_globals"] if method == "longformer" else g_axis_value
            crc = zlib.crc32(f"{method}|{_hp_text(params)}|w={w}|g={g_axis_value}".encode())
            sums = {}
            for idx, (sm, gold) in enumerate(zip(instances, golds)):
                rng = np.random.default_rng((seed, crc, idx))
                limit = min(sm.n, sm.m)
                take = min(g_count, limit)
                if g_count > 0 and global_mode == "random":
                    globals_ = tuple(int(t) for t in rng.choice(limit, size=take, replace=False))
                else:
                    globals_ = tuple(range(take))
                key = (sm.layer, sm.head)
                head = artifacts.heads.get(key)
                if head is not None:
                    Qp, Kp = sa.project_rows(head, sm.Q), sa.project_rows(head, sm.K)
                if method in ("window", "longformer"):
                    learned = sa.AttentionGraph(sm.n, sm.m, (), causal=sm.causal)
                elif method == "distance":
                    learned = sa.distance_pairing(Qp, Kp, params["t"], causal=sm.causal)
                elif method == "bigbird":
                    learned = sa.bigbird_random_blocks(
                        sm.n, sm.m, params["num_blocks"], block_size=1,
                        seed=int(rng.integers(2**63)), causal=sm.causal)
                else:
                    if method == "quantization":
                        qa, ka = sa.quantize_qk(Qp, Kp, params["beta"])
                    elif method == "clustering":
                        qa, ka = sa.cluster_qk(
                            Qp, Kp, artifacts.centroids[key + (params["B"],)], params["k"])
                    elif method == "routing":
                        c = artifacts.centroids[key + (params["c"],)]
                        topk = -(-sm.n // params["c"])
                        qa = sa.routing_assign(Qp, c, min(topk, sm.n))
                        ka = sa.routing_assign(Kp, c, min(topk, sm.m))
                    else:  # lsh
                        hash_seed = int(rng.integers(2**63))
                        qa = sa.lsh_assign(Qp, params["rounds"], params["num_buckets"], seed=hash_seed)
                        ka = sa.lsh_assign(Kp, params["rounds"], params["num_buckets"], seed=hash_seed)
                    learned = sa.buckets_to_graph(qa, ka, causal=sm.causal)
                pc = sa.PatternConfig(window=w, global_tokens=globals_, causal=sm.causal)
                combined = sa.combine_with_patterns(learned, pc)
                s_sum, r_sum, count = sums.get(key, (0.0, 0.0, 0))
                sums[key] = (s_sum + sa.sparsity(combined),
                             r_sum + sa.recall(combined, gold), count + 1)
            hp = dict(params, window=w)
            if g_count > 0 and method != "longformer":
                hp.update(globals=g_count, global_mode=global_mode)
            for (layer, head_idx), (s_sum, r_sum, count) in sorted(sums.items()):
                records.append(sa.SweepRecord(method, hp, layer, head_idx,
                                              s_sum / count, r_sum / count))
    records.sort(key=lambda r: (r.method, _hp_text(r.hyperparams), r.layer, r.head))
    return records


def kmeans_lloyd(X, B, n_init, max_iter, seed):
    """Lloyd's k-means with k-means++ seeding, in the same operations and
    generator calls as the package, from a one-shot distance formula
    clamped at 0 and ``np.add.at`` cluster sums.

    Each restart draws from ``np.random.default_rng((seed, init))``: one
    ``integers(N)`` for the first center, then per next center
    ``choice(N, p=d / d.sum())`` over each point's distance to its closest
    center, or ``integers(N)`` when every distance is 0.  A Lloyd step
    assigns each point to its nearest center (lowest index on ties); the
    restart stops when the assignment repeats or after ``max_iter`` steps,
    moves each center to the mean of its points, and re-seeds each empty
    cluster, lowest index first, at the point farthest from its own
    center.  A final assignment gives the inertia; the restart with the
    lowest keeps its centers.  Returns (centers, Lloyd steps per restart),
    a step being one assignment before the final one.
    """
    X = np.array(X, dtype=np.float64)
    N = X.shape[0]

    def sqdist(C):
        x2 = np.sum(X * X, axis=1)
        c2 = np.sum(C * C, axis=1)
        return np.maximum(x2[:, None] + c2[None, :] - 2.0 * (X @ C.T), 0.0)

    best, best_inertia, steps = None, np.inf, []
    for init in range(n_init):
        rng = np.random.default_rng((seed, init))
        C = np.empty((B, X.shape[1]))
        C[0] = X[rng.integers(N)]
        closest = sqdist(C[:1])[:, 0]
        for b in range(1, B):
            if closest.sum() <= 0.0:
                C[b] = X[rng.integers(N)]
                continue
            C[b] = X[rng.choice(N, p=closest / closest.sum())]
            closest = np.minimum(closest, sqdist(C[b : b + 1])[:, 0])
        labels = None
        done = 0
        while done < max_iter:
            new = np.argmin(sqdist(C), axis=1)
            done += 1
            if labels is not None and np.array_equal(new, labels):
                break
            labels = new
            counts = np.bincount(labels, minlength=B)
            sums = np.zeros((B, X.shape[1]))
            np.add.at(sums, labels, X)
            C = C.copy()
            for b in range(B):
                if counts[b]:
                    C[b] = sums[b] / counts[b]
            if (counts == 0).any():
                own = sqdist(C)[np.arange(N), labels]
                for b in range(B):
                    if not counts[b]:
                        far = int(np.argmax(own))
                        C[b] = X[far]
                        own[far] = -1.0
        steps.append(done)
        D = sqdist(C)
        inertia = float(D[np.arange(N), np.argmin(D, axis=1)].sum())
        if inertia < best_inertia:
            best, best_inertia = C, inertia
    return best, steps
