"""Predictors of the entmax attention graph from projected queries/keys.

Three learned strategies (distance threshold, balanced quantization,
top-k clustering) plus the fixed/learned baselines they are compared
against (window+global patterns, random blocks, sign-hyperplane LSH,
per-centroid top-k routing).  Bucket-based predictors share one rule: an
edge is predicted iff query and key meet in at least one bucket.

Bucket ids are 1-based everywhere in the public surface; membership
matrices use 0-based columns internally.

Every graph here is built straight as its sorted linear edge indices: the
pair rules (distance, shared bucket) one block of query rows at a time,
the patterns and random blocks from index ranges.  No n x m array is
allocated on the way.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .graph import AttentionGraph, _graph_shape, _ranges, _row_block_graph, graph_union
from .kmeans import Centroids, assign_topk_membership


@dataclass(frozen=True)
class BucketAssignment:
    """Per-token bucket membership of the queries or the keys.

    Every predictor assigns each token at least one bucket, except the
    routing baseline where unselected tokens legitimately end up with an
    empty set.
    """

    membership: np.ndarray

    def __post_init__(self):
        member = np.array(self.membership, dtype=bool)
        if member.ndim != 2:
            raise ValueError("membership must be a (tokens, B) boolean matrix")
        member.setflags(write=False)
        object.__setattr__(self, "membership", member)

    @property
    def n_tokens(self) -> int:
        return self.membership.shape[0]

    @property
    def n_buckets(self) -> int:
        return self.membership.shape[1]

    def token_buckets(self):
        """List of sorted tuples of 1-based bucket ids, one per token."""
        return [tuple(int(b) + 1 for b in np.flatnonzero(row)) for row in self.membership]


@dataclass(frozen=True)
class PatternConfig:
    """Fixed window + global-token pattern added to learned graphs."""

    window: int = 0
    global_tokens: tuple = field(default_factory=tuple)
    causal: bool = False

    def __post_init__(self):
        if self.window < 0 or (self.window > 0 and self.window % 2 == 0):
            raise ValueError("window must be 0 or an odd positive integer")
        g = tuple(sorted(int(t) for t in set(self.global_tokens)))
        if g and g[0] < 0:
            raise ValueError("global token indices must be nonnegative")
        object.__setattr__(self, "global_tokens", g)


def distance_pairing(Qp, Kp, t: float, causal: bool = False) -> AttentionGraph:
    """Edge (i, j) iff ||q'_i - k'_j||_2 <= t (ties included)."""
    if t < 0:
        raise ValueError("distance threshold must be >= 0")
    Qp = np.ascontiguousarray(Qp, dtype=np.float64)
    Kp = np.ascontiguousarray(Kp, dtype=np.float64)
    t2 = t * t
    return _row_block_graph(
        Qp.shape[0], Kp.shape[0], causal,
        lambda r0, r1, c1: _kernels.pairwise_sqdist(Qp[r0:r1], Kp[:c1]) <= t2,
    )


def bin_boundaries(X, beta: int) -> np.ndarray:
    """Balanced-bin cut values per dimension, shape (r, beta - 1).

    Cut g is the value closing bin g: sorted values are split into
    contiguous groups of ceil(N / beta) and the last element of each group
    becomes a cut.  Ascending (non-strictly, if the data has duplicates).
    """
    X = np.asarray(X, dtype=np.float64)
    N, r = X.shape
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if beta > N:
        raise ValueError(f"beta={beta} exceeds the {N} available values")
    size = -(-N // beta)  # ceil
    idx = np.minimum(np.arange(1, beta) * size - 1, N - 1)
    srt = np.sort(X, axis=0)
    return srt[idx].T.copy()


def assign_with_boundaries(X, cuts) -> BucketAssignment:
    """Bucket membership from precomputed per-dimension cut values.

    Dimension rho (0-based) with beta bins contributes bucket ids
    rho * beta + bin + 1; values equal to a cut stay in the lower bin, so
    identical values always share a bucket.
    """
    X = np.asarray(X, dtype=np.float64)
    cuts = np.asarray(cuts, dtype=np.float64)
    N, r = X.shape
    if cuts.ndim != 2 or cuts.shape[0] != r:
        raise ValueError(f"cuts must be (r={r}, beta-1), got shape {cuts.shape}")
    beta = cuts.shape[1] + 1
    member = np.zeros((N, r * beta), dtype=bool)
    for rho in range(r):
        bins = np.searchsorted(cuts[rho], X[:, rho], side="left")
        member[np.arange(N), rho * beta + bins] = True
    return BucketAssignment(member)


def quantize_assign(X, beta: int) -> BucketAssignment:
    """Balanced fixed-size binning of each projected dimension into beta bins.

    Every token lands in exactly r buckets (one per dimension) out of the
    B = r * beta total.  Pass the pooled query+key matrix so both sides
    share boundaries; ``quantize_qk`` does the pooling and splitting.
    """
    return assign_with_boundaries(X, bin_boundaries(X, beta))


def quantize_qk(Qp, Kp, beta: int):
    """Quantize queries and keys jointly (shared balanced bins per dimension)."""
    Qp = np.asarray(Qp, dtype=np.float64)
    Kp = np.asarray(Kp, dtype=np.float64)
    member = quantize_assign(np.vstack([Qp, Kp]), beta).membership
    n = Qp.shape[0]
    return BucketAssignment(member[:n]), BucketAssignment(member[n:])


def cluster_qk(Qp, Kp, centroids: Centroids, k: int):
    """Assign queries and keys to their k closest shared centroids."""
    qa = BucketAssignment(assign_topk_membership(Qp, centroids, k))
    ka = BucketAssignment(assign_topk_membership(Kp, centroids, k))
    return qa, ka


def buckets_to_graph(qa: BucketAssignment, ka: BucketAssignment, causal: bool = False) -> AttentionGraph:
    """Edge (i, j) iff query i and key j share at least one bucket."""
    if qa.n_buckets != ka.n_buckets:
        raise ValueError(
            f"bucket universes differ: {qa.n_buckets} vs {ka.n_buckets}"
        )
    # exact in float32: each entry sums B < 2**24 products of 0/1
    mq = qa.membership.astype(np.float32)
    mk = ka.membership.astype(np.float32)
    return _row_block_graph(
        qa.n_tokens, ka.n_tokens, causal,
        lambda r0, r1, c1: mq[r0:r1] @ mk[:c1].T > 0,
    )


def window_global_graph(n: int, m: int, pc: PatternConfig) -> AttentionGraph:
    """Diagonal band of width +-floor(w/2) plus rows/columns of global tokens."""
    n, m = _graph_shape(n, m, pc.causal)
    for g in pc.global_tokens:
        if g >= n:
            raise ValueError(f"global token {g} out of range for n={n}")
    rows = np.arange(n, dtype=np.int64)
    if pc.window > 0:
        half = pc.window // 2
        lo = np.maximum(rows - half, 0)
        hi = np.minimum(rows if pc.causal else rows + half, m - 1)
        lin = _ranges(rows * m + lo, np.maximum(hi - lo + 1, 0))
    else:
        lin = np.empty(0, dtype=np.int64)
    if pc.global_tokens:
        g = np.array(pc.global_tokens, dtype=np.int64)
        # a global token attends to every admissible key ...
        attends = _ranges(g * m, g + 1 if pc.causal else np.full(g.size, m))
        # ... and every admissible query attends to it
        cols = g[g < m]
        first = cols if pc.causal else np.zeros_like(cols)
        attended = _ranges(first, n - first) * m + np.repeat(cols, n - first)
        lin = np.unique(np.concatenate([lin, attends, attended]))
    return AttentionGraph._from_sorted_lin(n, m, lin, pc.causal)


def bigbird_random_blocks(
    n: int,
    m: int,
    num_blocks: int,
    block_size: int = 1,
    seed: int = 0,
    causal: bool = False,
) -> AttentionGraph:
    """Uniformly sampled distinct off-diagonal blocks, expanded to edges.

    Diagonal blocks are excluded (the window pattern supplies those);
    sampling is without replacement and deterministic per seed.  The
    candidate blocks are numbered row-major, and a drawn number is mapped
    back to its (block row, block column) through the count per block row.
    """
    if num_blocks < 0:
        raise ValueError("num_blocks must be >= 0")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n, m = _graph_shape(n, m, causal)
    nb = -(-n // block_size)
    mb = -(-m // block_size)
    block_rows = np.arange(nb, dtype=np.int64)
    # candidates per block row: bj < bi if causal (nb == mb), else bj != bi
    per_row = block_rows if causal else mb - (block_rows < mb)
    ends = np.cumsum(per_row)
    rng = np.random.default_rng(seed)
    drawn = rng.choice(int(ends[-1]), size=min(num_blocks, int(ends[-1])), replace=False)
    bi = np.searchsorted(ends, drawn, side="right")
    bj = drawn - (ends[bi] - per_row[bi])
    if not causal:
        bj += bj >= bi  # skip the diagonal block
    return _block_pairs_graph(n, m, bi, bj, block_size, causal)


def _block_pairs_graph(n, m, bi, bj, z, causal) -> AttentionGraph:
    """Graph of every cell of the distinct z x z blocks (bi, bj), cut to the
    n x m grid and, if causal, to j <= i.

    Each (block, row) is one run of keys, ending at min(c0 + z, m, i + 1)
    for a causal block; the runs are disjoint, so sorting their starts
    sorts the edges.
    """
    n, m = _graph_shape(n, m, causal)
    height = np.minimum(bi * z + z, n) - bi * z
    rows = _ranges(bi * z, height)
    c0 = np.repeat(bj * z, height)
    ends = np.minimum(np.minimum(c0 + z, m), rows + 1 if causal else m)
    starts = rows * m + c0
    order = np.argsort(starts)
    lengths = np.maximum(ends - c0, 0)[order]
    return AttentionGraph._from_sorted_lin(n, m, _ranges(starts[order], lengths), causal)


def lsh_assign(X, rounds: int, num_buckets: int, seed: int = 0) -> BucketAssignment:
    """Signed random-hyperplane hashing; each round contributes one bucket.

    ceil(log2(num_buckets)) hyperplanes per round produce a sign code taken
    mod num_buckets, for a bucket universe of rounds * num_buckets.  Queries
    and keys hashed with the same seed share the hyperplanes, mirroring
    shared-QK hashing.
    """
    if rounds < 1 or num_buckets < 1:
        raise ValueError("rounds and num_buckets must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    N, dim = X.shape
    n_planes = int(np.ceil(np.log2(num_buckets))) if num_buckets > 1 else 0
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(rounds, n_planes, dim))
    member = np.zeros((N, rounds * num_buckets), dtype=bool)
    weights = 1 << np.arange(n_planes)
    for rd in range(rounds):
        if n_planes:
            bits = (X @ planes[rd].T) > 0
            codes = (bits @ weights) % num_buckets
        else:
            codes = np.zeros(N, dtype=np.int64)
        member[np.arange(N), rd * num_buckets + codes] = True
    return BucketAssignment(member)


def routing_assign(X, centroids: Centroids, topk_points: int) -> BucketAssignment:
    """Each centroid claims its topk_points closest tokens.

    A token's bucket set is the set of centroids that claimed it, which may
    be empty; that per-centroid (rather than per-token) top-k is exactly
    what distinguishes this baseline.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    N = X.shape[0]
    if not 0 <= topk_points <= N:
        raise ValueError(f"topk_points must be in [0, {N}], got {topk_points}")
    D = _kernels.pairwise_sqdist(X, centroids.C)
    member = np.zeros((N, centroids.B), dtype=bool)
    order = np.argsort(D, axis=0, kind="stable")  # ties -> lower token index
    for b in range(centroids.B):
        member[order[:topk_points, b], b] = True
    return BucketAssignment(member)


def combine_with_patterns(learned: AttentionGraph, pc: PatternConfig) -> AttentionGraph:
    """Union of a learned graph with the window/global pattern."""
    if pc.causal != learned.causal:
        raise ValueError("pattern causal flag does not match the graph")
    return graph_union(learned, window_global_graph(learned.n, learned.m, pc))
