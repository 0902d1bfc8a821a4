"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``sparseattn``.  Each function is written from the
definition it checks (entmax from its threshold form, recall and sparsity
from edge sets, Pareto frontiers by a brute-force dominance scan, the file
formats from their documented layout), so a fault in the program cannot
hide behind a helper the check shares with it.
"""

import csv
import json
import os

import numpy as np

# Probability floor of the program's gold graphs: an entry counts as an edge
# when its probability exceeds it (see the FOUND line on threshold support).
PROB_FLOOR = 1e-12
# Relative width of the band around PROB_FLOOR inside which the program's
# approximate bisection and the exact threshold may disagree on an entry.
FLOOR_BAND = 1e-3
BISECTION_STEPS = 60


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# entmax


def scores(Q, K):
    """Scaled dot products Q K^T / sqrt(d)."""
    return (Q @ K.T) / np.sqrt(Q.shape[1])


def entmax_rows(Z, alpha, mask=None):
    """Row-wise alpha-entmax of Z restricted to ``mask``, by bisection on tau.

    p_ij = [s_ij - tau_i]_+ ** (1 / (alpha - 1)) with s = (alpha - 1) z and
    tau_i chosen so each row sums to one.  With s shifted so that its row
    maximum is 0, tau lies in [-1, 0] (the maximum alone gives mass 1 at -1,
    nothing at 0), so only entries above -1 can carry mass: the bisection
    runs on those candidates alone, and BISECTION_STEPS halvings shrink the
    bracket below float64 resolution.  Returns (P, S, tau): S holds the
    shifted scores with -inf outside the mask, so ``S > tau[:, None]`` is the
    threshold support.  Rows without a mask entry are all-zero, tau = +inf.
    """
    power = 1.0 / (alpha - 1.0)
    S = (alpha - 1.0) * np.asarray(Z, dtype=np.float64)
    if mask is not None:
        S = np.where(mask, S, -np.inf)
    top = S.max(axis=1)
    empty = ~np.isfinite(top)
    S = S - np.where(empty, 0.0, top)[:, None]
    cand = S > -1.0
    width = max(1, int(cand.sum(axis=1).max()))
    cols = np.argsort(~cand, axis=1, kind="stable")[:, :width]
    C = np.where(np.take_along_axis(cand, cols, axis=1),
                 np.take_along_axis(S, cols, axis=1), -np.inf)
    lo = np.full(S.shape[0], -1.0)
    hi = np.zeros(S.shape[0])
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        mass = (np.maximum(C - mid[:, None], 0.0) ** power).sum(axis=1)
        above = mass >= 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    tau = 0.5 * (lo + hi)
    tau[empty] = np.inf
    P = np.zeros(S.shape)
    np.put_along_axis(P, cols, np.maximum(C - tau[:, None], 0.0) ** power, axis=1)
    return P, S, tau


def causal_mask(n):
    return np.tril(np.ones((n, n), dtype=bool))


def gold_support(Q, K, alpha, causal, rows=256):
    """Probabilities and threshold support of exact entmax attention.

    Returns (P, support): ``support`` is the threshold support S > tau,
    computed in blocks of ``rows`` query rows.
    """
    n, m = Q.shape[0], K.shape[0]
    P = np.zeros((n, m))
    support = np.zeros((n, m), dtype=bool)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        mask = causal_mask(n)[lo:hi] if causal else None
        Pb, Sb, tau = entmax_rows(scores(Q[lo:hi], K), alpha, mask)
        P[lo:hi] = Pb
        support[lo:hi] = Sb > tau[:, None]
    return P, support


def floored_gold(Q, K, alpha, causal):
    """The program's gold graph, computed apart: (edges, ambiguous).

    ``edges`` are the entries whose probability exceeds the floor;
    ``ambiguous`` counts the entries within FLOOR_BAND of the floor, which
    the program may keep or drop.
    """
    P, _ = gold_support(Q, K, alpha, causal)
    band = (P > PROB_FLOOR * (1 - FLOOR_BAND)) & (P <= PROB_FLOOR * (1 + FLOOR_BAND))
    return edge_set(P > PROB_FLOOR), int(band.sum())


# ---------------------------------------------------------------------------
# edge sets


def edge_set(dense):
    """Set of (i, j) pairs of a boolean matrix."""
    rows, cols = np.nonzero(dense)
    return set(zip(rows.tolist(), cols.tolist()))


def recall(pred, gold):
    """|pred & gold| / |gold| for edge sets."""
    require(len(gold) > 0, "recall of an empty gold set")
    return len(pred & gold) / len(gold)


def admissible(n, m, causal):
    """Number of admissible pairs: n(n+1)/2 under causal masking, else n m."""
    return n * (n + 1) // 2 if causal else n * m


def sparsity(pred, n, m, causal):
    """1 - |pred| / admissible pairs."""
    return 1.0 - len(pred) / admissible(n, m, causal)


def band_mask(n, m, window, causal):
    """Boolean (n, m) band |i - j| <= window // 2 (window 0 is empty)."""
    i = np.arange(n)[:, None]
    j = np.arange(m)[None, :]
    band = (np.abs(i - j) <= window // 2) if window else np.zeros((n, m), dtype=bool)
    return band & (j <= i) if causal else band


def sqdist(A, B):
    """Squared distances by explicit differences."""
    diff = A[:, None, :] - B[None, :, :]
    return (diff * diff).sum(axis=2)


def topk_buckets(X, C, k):
    """Boolean (N, B) membership of each row's k nearest centroids (ties to
    the lower index)."""
    order = np.argsort(sqdist(X, C), axis=1, kind="stable")[:, :k]
    member = np.zeros((X.shape[0], C.shape[0]), dtype=bool)
    np.put_along_axis(member, order, True, axis=1)
    return member


def shared_bucket_mask(qm, km, causal):
    """Boolean (n, m) matrix of query/key pairs that share a bucket."""
    dense = (qm.astype(np.float64) @ km.astype(np.float64).T) > 0
    if causal:
        dense &= causal_mask(dense.shape[0])
    return dense


def bucket_graph(Qp, Kp, C, k, window, causal):
    """Dense (n, m) graph of the pairs that share one of their k nearest
    centroids, joined with the window band."""
    shared = shared_bucket_mask(topk_buckets(Qp, C, k), topk_buckets(Kp, C, k), causal)
    return shared | band_mask(Qp.shape[0], Kp.shape[0], window, causal)


def check_predicted_graph(G, Qp, Kp, C, k, window, causal, what):
    """A clustering-predicted graph (dense boolean ``G``) must equal the
    shared-bucket rule joined with the window band; returns the rule."""
    pred = bucket_graph(Qp, Kp, C, k, window, causal)
    require(np.array_equal(G, pred), f"{what}: predicted graph differs from the shared-bucket rule")
    return pred


def check_same(got, expected, what):
    """Exact equality, as a file read back or a fit repeated must give."""
    got, expected = np.asarray(got), np.asarray(expected)
    require(got.shape == expected.shape and np.array_equal(got, expected),
            f"{what}: differs from the object it should equal")


def check_gold_sparsity(reported, golds, what):
    """A reported mean gold sparsity against gold graphs given as
    (edges, ambiguous, n, m, causal); ambiguous entries widen the tolerance."""
    sps = [sparsity(edges, n, m, causal) for edges, _, n, m, causal in golds]
    slack = np.mean([amb / admissible(n, m, causal) for _, amb, n, m, causal in golds])
    require(abs(reported - np.mean(sps)) <= 1e-12 + slack,
            f"{what}: gold sparsity differs from the gold graphs")


# ---------------------------------------------------------------------------
# sweep records


def parse_hp(text):
    """Hyperparameters of a sweep.csv row: ``key=value`` joined by ``|``."""
    return dict(part.split("=", 1) for part in text.split("|")) if text else {}


def sweep_edges(method, params, Q, K, W, b, C, causal):
    """Edge set a ``window``, ``distance`` or ``clustering`` record predicts
    for one instance: the method's graph joined with the window band."""
    n, m = Q.shape[0], K.shape[0]
    window = int(params["window"])
    Qp, Kp = Q @ W.T + b, K @ W.T + b
    if method == "clustering":
        return edge_set(bucket_graph(Qp, Kp, C, int(params["k"]), window, causal))
    dense = band_mask(n, m, window, causal)
    if method == "distance":
        t = float(params["t"])
        near = sqdist(Qp, Kp) <= t * t
        if causal:
            near &= causal_mask(n)
        dense |= near
    return edge_set(dense)


def check_sweep_record(record, instances, W, b, C):
    """One ``window``, ``distance`` or ``clustering`` record, (method,
    params, sparsity, recall), recomputed from edge sets over its head's
    instances, given as (Q, K, causal, gold edges, ambiguous).  Recall may
    differ by the share of gold entries within the floor band."""
    method, params, s, r = record
    sps, recs, slack = [], [], 0.0
    for Q, K, causal, gold, ambiguous in instances:
        pred = sweep_edges(method, params, Q, K, W, b, C, causal)
        sps.append(sparsity(pred, Q.shape[0], K.shape[0], causal))
        recs.append(recall(pred, gold))
        slack = max(slack, ambiguous / len(gold))
    require(abs(np.mean(sps) - s) <= 1e-12, f"{method} {params}: sparsity differs")
    require(abs(np.mean(recs) - r) <= 1e-12 + slack, f"{method} {params}: recall differs")


def check_window_monotone(records, methods):
    """Records (method, params, layer, head, sparsity, recall) of
    ``methods``, whose prediction does not depend on the RNG: with the other
    hyperparameters fixed, recall never falls and sparsity never rises as
    the window grows."""
    series = {}
    for method, params, layer, head, s, r in records:
        if method in methods:
            rest = tuple(sorted((k, str(v)) for k, v in params.items() if k != "window"))
            series.setdefault((method, rest, layer, head), []).append(
                (int(params["window"]), r, s))
    for key, pts in series.items():
        pts.sort()
        require(all(a[1] <= b[1] and a[2] >= b[2] for a, b in zip(pts, pts[1:])),
                f"{key}: recall falls or sparsity rises as the window grows")
    return len(series)


# ---------------------------------------------------------------------------
# Pareto frontiers


def dominated(p, q):
    """True when point q = (sparsity, recall) dominates point p."""
    return q[0] >= p[0] and q[1] >= p[1] and (q[0] > p[0] or q[1] > p[1])


def pareto_brute(points):
    """Points of ``points`` (tuples whose last two entries are sparsity and
    recall) that no other point dominates."""
    return [p for p in points if not any(dominated(p[-2:], q[-2:]) for q in points)]


def mean_by_config(rows):
    """Mean (sparsity, recall) per (method, hyperparams), summed in row order."""
    sums = {}
    for method, hp, s, r in rows:
        s0, r0, c0 = sums.get((method, hp), (0.0, 0.0, 0))
        sums[(method, hp)] = (s0 + s, r0 + r, c0 + 1)
    return {key: (s / c, r / c) for key, (s, r, c) in sums.items()}


def check_pareto(sweep_rows, pareto_rows):
    """pareto.csv must hold exactly the brute-force frontier of each method's
    aggregated records, sorted by sparsity."""
    means = mean_by_config(sweep_rows)
    expected = set()
    for method in {m for m, _ in means}:
        pts = [(m, hp, s, r) for (m, hp), (s, r) in means.items() if m == method]
        expected.update(pareto_brute(pts))
    got = [(m, hp, s, r) for m, hp, s, r in pareto_rows]
    require(len(got) == len(set(got)), "pareto.csv repeats a point")
    require(set(got) == expected,
            f"pareto.csv differs from the brute-force frontier: "
            f"missing {sorted(expected - set(got))[:3]}, extra {sorted(set(got) - expected)[:3]}")
    for method in {m for m, _, _, _ in got}:
        sp = [s for m, _, s, _ in got if m == method]
        require(sp == sorted(sp), f"pareto.csv rows of {method} are not sorted by sparsity")


# ---------------------------------------------------------------------------
# file formats


def _lines(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def read_tensor(path):
    """``TENSOR n d`` header, then n rows of d floats."""
    lines = _lines(path)
    tag, n, d = lines[0].split()
    require(tag == "TENSOR", f"{path}: bad tensor header")
    X = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    require(X.shape == (int(n), int(d)), f"{path}: tensor shape differs from its header")
    return X


def read_manifest(data_dir):
    """{(layer, head, instance): (Q, K, causal)} from ``manifest.json``."""
    with open(os.path.join(data_dir, "manifest.json"), "r", encoding="ascii") as fh:
        entries = json.load(fh)["matrices"]
    slots = {}
    for e in entries:
        key = (e["layer"], e["head"], e["instance"])
        slots.setdefault(key, {"causal": e["causal"]})[e["role"]] = read_tensor(
            os.path.join(data_dir, e["path"]))
    return {key: (s["Q"], s["K"], s["causal"]) for key, s in sorted(slots.items())}


def read_graph(path):
    """(n, m, causal, edges) from ``n m causal count`` plus one ``i j`` per line."""
    lines = _lines(path)
    n, m, causal, count = (int(v) for v in lines[0].split())
    edges = [tuple(int(v) for v in line.split()) for line in lines[1:]]
    require(len(edges) == count, f"{path}: edge count differs from its header")
    require(edges == sorted(set(edges)), f"{path}: edges are not sorted and unique")
    return n, m, bool(causal), set(edges)


def read_head(path):
    """(W, b) from ``d r`` plus r lines of d weights and the bias."""
    lines = _lines(path)
    d, r = (int(v) for v in lines[0].split())
    rows = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    require(rows.shape == (r, d + 1), f"{path}: checkpoint shape differs from its header")
    return rows[:, :d], rows[:, d]


def read_centroids(path):
    """(B, r) matrix from ``B r`` plus B rows of r floats."""
    lines = _lines(path)
    B, r = (int(v) for v in lines[0].split())
    C = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    require(C.shape == (B, r), f"{path}: centroid shape differs from its header")
    return C


def read_csv(path):
    with open(path, "r", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# properties of the program's outputs


def check_attention_rows(P, pred, Z, alpha, gold_P, gold, tol=1e-9):
    """Checks of one head's predicted-sparse attention output.

    - every row is zero outside the predicted graph and sums to one;
    - every row equals entmax of its scores restricted to the predicted
      cells;
    - every row whose gold support the prediction covers equals the exact
      dense entmax row (sparse consistency).
    Returns the number of covered rows.
    """
    require(not np.any(P[~pred]), "probability outside the predicted graph")
    has_edge = pred.any(axis=1)
    require(np.all(np.abs(P.sum(axis=1)[has_edge] - 1.0) <= tol), "a row does not sum to 1")
    restricted, _, _ = entmax_rows(Z, alpha, pred)
    require(np.max(np.abs(P - restricted)) <= tol,
            "a row differs from entmax restricted to the predicted cells")
    covered = ~np.any(gold & ~pred, axis=1)
    if covered.any():
        require(np.max(np.abs(P[covered] - gold_P[covered])) <= tol,
                "a covered row differs from exact dense entmax")
    return int(covered.sum())


def check_gold_graph(G, P, support):
    """A program gold graph (dense boolean ``G``) against the threshold
    support ``support`` and the exact probabilities ``P``.

    Exempt, and only exempt: threshold-support entries whose probability is
    at or below the floor (the program drops them), widened by the floor
    band where the program's approximate bisection may fall either way.
    Returns the number of exempted entries the program dropped.
    """
    require(not np.any(G & ~support), "gold graph has an edge outside the threshold support")
    require(not np.any(G & (P <= PROB_FLOOR * (1 - FLOOR_BAND))),
            "gold graph keeps an entry below the probability floor")
    missing = support & ~G
    require(not np.any(missing & (P > PROB_FLOOR * (1 + FLOOR_BAND))),
            "gold graph drops a threshold-support entry above the floor")
    return int(missing.sum())


def check_lloyd_fixed_point(X, C, tol=1e-9):
    """Each centroid is the mean of the points nearest to it (Lloyd's fixed
    point, reached when the assignment stops changing)."""
    labels = np.argmin(sqdist(X, C), axis=1)
    for b in range(C.shape[0]):
        pts = X[labels == b]
        require(len(pts) > 0, f"centroid {b} has no assigned point")
        require(np.max(np.abs(pts.mean(axis=0) - C[b])) <= tol * max(1.0, np.abs(C[b]).max()),
                f"centroid {b} is not the mean of its assigned points")
