"""Chunked (block-level) attention: labeling, projection, capped block
selection, and the micro-benchmark of dense vs block-sparse evaluation.

Tokens are grouped into contiguous blocks of z; a block pair is positive if
any contained token pair is a gold edge, so expanding block labels back to
token level can only over-cover the gold graph (recall 1 by construction).
The benchmark times full entmax attention against the whole predicted call
(block means, projection, block selection, expansion, window union and
entmax on the selected cells), and counts score-FLOPs for both paths.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._textio import write_csv
from .entmax import DEFAULT_PARAMS, EntmaxParams
from .graph import (
    AttentionGraph,
    ScoreMatrix,
    _graph_shape,
    admissible_count,
    attention_probs,
    extract_graph,
    graph_union,
    recall,
    sparsity,
)
from .kmeans import KMeansConfig, kmeans_fit
from .predictors import (
    BucketAssignment,
    PatternConfig,
    _block_pairs_graph,
    buckets_to_graph,
    cluster_qk,
    combine_with_patterns,
)
from .projection import TrainConfig, build_pair_dataset, project_rows, train_projection

BENCH_CSV_COLUMNS = [
    "variant", "n", "d", "z", "top_k", "window",
    "median_ms", "iqr_ms", "flops_dense", "flops_block", "recall", "sparsity",
]


@dataclass(frozen=True)
class BlockBudget:
    """Cap on attended blocks: v1 ranks block score dot-products, v2 pairs
    blocks through shared nearest centroids."""

    top_k_blocks: int
    variant: str = "v1"

    def __post_init__(self):
        if self.top_k_blocks < 1:
            raise ValueError("top_k_blocks must be >= 1")
        if self.variant not in ("v1", "v2"):
            raise ValueError(f"variant must be 'v1' or 'v2', got {self.variant!r}")


def _nblocks(n: int, z: int) -> int:
    return -(-n // z)


def chunk_labels(gold: AttentionGraph, z: int) -> AttentionGraph:
    """Block edge (bi, bj) iff some gold token edge falls inside the block."""
    if z < 1:
        raise ValueError("block size z must be >= 1")
    return AttentionGraph(_nblocks(gold.n, z), _nblocks(gold.m, z), gold.edges // z,
                          causal=gold.causal)


def chunk_means(X, z: int) -> np.ndarray:
    """Mean of each contiguous block of z rows.

    A short final block is averaged over its actual rows only.
    """
    X = np.asarray(X, dtype=np.float64)
    if z < 1:
        raise ValueError("block size z must be >= 1")
    n, d = X.shape
    full = n // z * z
    # the full blocks reduce as one (blocks, z, d) array, each block as
    # ``mean`` over its own rows reduces it
    means = X[:full].reshape(full // z, z, d).mean(axis=1)
    return np.vstack([means, X[full:].mean(axis=0, keepdims=True)]) if full < n else means


def select_blocks_v1(Qb, Kb, budget: BlockBudget, causal: bool = False) -> AttentionGraph:
    """Per query block, the top_k_blocks key blocks by largest dot-product.

    Ties go to the lower block index; the cap is clamped to the number of
    admissible blocks (all of them, or bi + 1 under causal masking).
    """
    Qb = np.asarray(Qb, dtype=np.float64)
    Kb = np.asarray(Kb, dtype=np.float64)
    neg = -(Qb @ Kb.T)
    nb, mb = _graph_shape(*neg.shape, causal)
    if causal:  # inadmissible blocks sort after every score
        neg[np.triu_indices(nb, 1, mb)] = np.inf
    ranked = np.argsort(neg, axis=1, kind="stable")[:, : budget.top_k_blocks]
    admissible = np.minimum(np.arange(1, nb + 1), mb) if causal else np.full(nb, mb)
    keep = np.arange(ranked.shape[1]) < admissible[:, None]
    lin = (ranked + np.arange(nb)[:, None] * mb)[keep]
    lin.sort()
    return AttentionGraph._from_sorted_lin(nb, mb, lin, causal)


def expand_blocks(blocks: AttentionGraph, z: int, n: int, m: int) -> AttentionGraph:
    """Token graph with edge (i, j) iff block (i//z, j//z) of the block graph
    of block size z is selected.

    Padding positions beyond n or m are dropped and the causal token filter
    is reapplied.
    """
    if z < 1:
        raise ValueError("block size z must be >= 1")
    if _nblocks(n, z) != blocks.n or _nblocks(m, z) != blocks.m:
        raise ValueError(f"{n}x{m} tokens with z={z} does not match {blocks.n}x{blocks.m} blocks")
    lin = blocks._lin
    return _block_pairs_graph(n, m, lin // blocks.m, lin % blocks.m, z, blocks.causal)


# ---------------------------------------------------------------------------
# FLOP accounting and the timed paths


def dense_score_flops(n: int, m: int, d: int, causal: bool = False) -> int:
    """Multiply-add count (2 per dimension) of scoring every admissible cell."""
    return admissible_count(n, m, causal) * 2 * d


def graph_score_flops(g: AttentionGraph, d: int) -> int:
    return g.edge_count * 2 * d


def csr_from_graph(g: AttentionGraph):
    """(indptr, cols) row-compressed form of the edge set: row i's edges
    are the sorted linear indices from i * m up to (i + 1) * m."""
    return np.searchsorted(g._lin, np.arange(g.n + 1) * g.m), g._lin % g.m


def sparse_attention_probs(
    sm: ScoreMatrix, graph: AttentionGraph, params: EntmaxParams = DEFAULT_PARAMS
) -> np.ndarray:
    """Dense (n, m) entmax probabilities with scores computed only on the
    graph's cells.

    Rows without edges stay all-zero.  When the graph contains the gold
    support of every row, the result equals ``attention_probs(sm, params)``
    (sparse consistency).

    A graph built by ``buckets_to_graph``, ``window_global_graph`` or their
    union is always scored through its cover: one GEMM per bucket rectangle
    (a global token is a bucket of its own) and one row-wise dot per band
    offset, each piece scored whole and each cell taken from the last piece
    that holds it.  Only the cells that can reach the entmax threshold are
    gathered, solved and written into the zeroed output; no edge list, CSR
    or (n, m) score array is made.  A causal bucket rectangle is scored
    whole too, its cells above the diagonal set to -inf; the benchmark's
    ``attend`` heads score 1.11 cells per edge.  Any other graph is scored
    row by row on its edges alone, with the same bound.
    """
    if (graph.n, graph.m, graph.causal) != (sm.n, sm.m, sm.causal):
        raise ValueError("graph shape/causal flag does not match score matrix")
    scale = 1.0 / np.sqrt(sm.d)
    P = np.zeros((sm.n, sm.m))
    flat = P.reshape(-1)
    cover = graph._cover
    if cover is None:
        indptr, cols = csr_from_graph(graph)
        flat[graph._lin] = _kernels.sparse_rows_entmax15(
            sm.Q, sm.K, indptr, cols, scale, params.alpha)
    else:
        lin, S = _kernels.cover_candidates(sm.Q, sm.K, cover, sm.causal, scale, params.alpha)
        flat[lin] = _kernels.solve_cells(np.searchsorted(lin, np.arange(sm.n + 1) * sm.m),
                                         S, params.alpha)
    return P


# (n, causal) of the heads ``audit_sparse_attention`` checks.  At n = 512
# rows are up to 512 cells wide, and at alpha 1, where every cell is solved,
# they need more than one kernel batch.
AUDIT_HEADS = ((1, False), (37, False), (37, True), (512, False), (512, True))


def audit_sparse_attention(seed: int = 0, alpha: float = 1.5):
    """Sparse-consistency audit of every path that solves attention rows,
    the one behind ``sparseattn verify``.

    Each head of ``AUDIT_HEADS`` gets random scores drawn from ``seed`` and
    a graph covering its gold support plus random extra edges (a random
    density per row, so row lengths spread widely), on which
    ``sparse_attention_probs`` must equal ``attention_probs`` within 1e-9
    (check ``"dense"``).  Each head also gets a bucket-plus-window graph
    (random memberships with an empty bucket and tokens in no bucket, a
    window of 5 and global token 0) whose probabilities, scored through its
    cover, must equal those of a coverless copy of the same edges, scored
    row by row, within 1e-12 (check ``"cover"``).  So each of the heads'
    rows is solved by the dense ``attention_probs``, the per-row CSR scorer
    and the cover.  Returns one record per failed check (empty on a healthy
    build).
    """
    params = EntmaxParams(alpha=alpha)
    rng = np.random.default_rng(seed)
    cover_rng = np.random.default_rng([seed, 1])
    failures = []
    for head, (n, causal) in enumerate(AUDIT_HEADS):
        sm = ScoreMatrix(rng.normal(size=(n, 16)), rng.normal(size=(n, 16)), causal=causal)
        extra = rng.random((n, n)) < rng.random((n, 1))
        if causal:
            extra &= np.tri(n, dtype=bool)
        graph = graph_union(
            extract_graph(sm, params), AttentionGraph.from_dense(extra, causal=causal)
        )
        P = sparse_attention_probs(sm, graph, params)
        checks = [("dense", np.max(np.abs(P - attention_probs(sm, params))), 1e-9)]

        mq, mk = (cover_rng.random((n, 8)) < 0.2 for _ in range(2))
        mq[:, -1] = False
        bucketed = combine_with_patterns(
            buckets_to_graph(BucketAssignment(mq), BucketAssignment(mk), causal=causal),
            PatternConfig(window=5, global_tokens=(0,), causal=causal),
        )
        by_cover = sparse_attention_probs(sm, bucketed, params)  # before its edges are built
        by_rows = sparse_attention_probs(
            sm, AttentionGraph._from_sorted_lin(n, n, bucketed._lin, causal), params)
        checks.append(("cover", np.max(np.abs(by_cover - by_rows)), 1e-12))
        for check, diff, tol in checks:
            if not diff <= tol:
                failures.append({"head": head, "n": n, "causal": causal, "check": check,
                                 "max_abs_diff": float(diff)})
    return failures


@dataclass(frozen=True)
class BenchRecord:
    variant: str
    n: int
    d: int
    z: int
    top_k: int
    window: int
    dense_median_ms: float
    dense_iqr_ms: float
    block_median_ms: float
    block_iqr_ms: float
    flops_dense: int
    flops_block: int
    recall: float
    sparsity: float
    selected_blocks: int


def _time_ms(fn, repeats: int):
    """(median ms, IQR ms, result) of ``fn()``; the result is that of an
    untimed first call, which also warms caches and the allocator."""
    result = fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    med = float(np.median(samples))
    iqr = float(np.percentile(samples, 75) - np.percentile(samples, 25))
    return med, iqr, result


def _v2_centroids(n: int, z: int) -> int:
    """Centroids the v2 benchmark fits at n tokens and block size z: one per
    block, at most 8."""
    return min(8, _nblocks(n, z))


def check_bench_budgets(n: int, z_list, budgets) -> None:
    """Reject a budget that ``bench`` would clamp for some z: a v1 top_k above
    the ceil(n / z) key blocks, or a v2 top_k above the centroid count (a
    top_k equal to it selects every block pair).  A causal query block bi
    still ranks only its bi + 1 admissible key blocks."""
    for z in z_list:
        B = _v2_centroids(n, z)
        for budget in budgets:
            if budget.variant == "v1" and budget.top_k_blocks > _nblocks(n, z):
                raise ValueError(
                    f"v1 top_k {budget.top_k_blocks} exceeds the {_nblocks(n, z)} key blocks "
                    f"of n={n} at z={z} (ceil(n / z))"
                )
            if budget.variant == "v2" and budget.top_k_blocks > B:
                raise ValueError(
                    f"v2 top_k {budget.top_k_blocks} exceeds the {B} centroids of "
                    f"n={n} at z={z} (min(8, ceil(n / z)))"
                )


def bench_masked_attention(
    n: int,
    d: int,
    z_list,
    budgets,
    window: int = 3,
    repeats: int = 5,
    seed: int = 0,
    causal: bool = False,
    params: EntmaxParams = DEFAULT_PARAMS,
) -> list:
    """Time dense entmax attention against the whole predicted block-sparse
    call, one record per (z, budget) in that order.

    One random (Q, K) instance, its gold graph and one dense timing of
    ``attention_probs(sm, params)`` serve every record.  Per z, a chunk-level
    projection is trained on the instance's own block labels, and, if some
    budget is v2, ``_v2_centroids(n, z)`` centroids are fitted on the
    projected blocks.  The timed block call is the prediction itself: block
    means, ``project_rows``, selection (``select_blocks_v1``, or
    ``cluster_qk`` and ``buckets_to_graph``), ``expand_blocks``,
    ``combine_with_patterns`` with the window, and
    ``sparse_attention_probs``.  Its untimed first call gives the record's
    graph counters.
    """
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    check_bench_budgets(n, z_list, budgets)
    rng = np.random.default_rng(seed)
    sm = ScoreMatrix(rng.normal(size=(n, d)), rng.normal(size=(n, d)), causal=causal)
    gold = extract_graph(sm, params)
    pattern = PatternConfig(window=window, causal=causal)
    dense_med, dense_iqr, _ = _time_ms(lambda: attention_probs(sm, params), repeats)
    flops_dense = dense_score_flops(n, n, d, causal)

    records = []
    for z in z_list:
        block_sm = ScoreMatrix(chunk_means(sm.Q, z), chunk_means(sm.K, z), causal=causal)
        ds = build_pair_dataset([block_sm], [chunk_labels(gold, z)], rng_seed=seed, min_len=1)
        head = train_projection(ds, TrainConfig(rng_seed=seed), r=min(4, d - 1))
        if any(budget.variant == "v2" for budget in budgets):
            pooled = np.vstack([project_rows(head, block_sm.Q), project_rows(head, block_sm.K)])
            centroids = kmeans_fit(pooled, _v2_centroids(n, z), KMeansConfig(seed=seed))

        for budget in budgets:
            def predicted():
                Qb = project_rows(head, chunk_means(sm.Q, z))
                Kb = project_rows(head, chunk_means(sm.K, z))
                if budget.variant == "v1":
                    blocks = select_blocks_v1(Qb, Kb, budget, causal=causal)
                else:
                    qa, ka = cluster_qk(Qb, Kb, centroids, budget.top_k_blocks)
                    blocks = buckets_to_graph(qa, ka, causal=causal)
                graph = combine_with_patterns(expand_blocks(blocks, z, n, n), pattern)
                return blocks, graph, sparse_attention_probs(sm, graph, params)

            block_med, block_iqr, (blocks, graph, _) = _time_ms(predicted, repeats)
            records.append(BenchRecord(
                variant=budget.variant,
                n=n,
                d=d,
                z=z,
                top_k=budget.top_k_blocks,
                window=window,
                dense_median_ms=dense_med,
                dense_iqr_ms=dense_iqr,
                block_median_ms=block_med,
                block_iqr_ms=block_iqr,
                flops_dense=flops_dense,
                flops_block=graph_score_flops(graph, d),
                recall=recall(graph, gold),
                sparsity=sparsity(graph),
                selected_blocks=blocks.edge_count,
            ))
    return records


def write_bench_csv(records, path):
    """Benchmark CSV: the dense reference row of the records' one (n, d),
    then one row per record."""
    dense = [["dense", rec.n, rec.d, 0, 0, 0, repr(rec.dense_median_ms), repr(rec.dense_iqr_ms),
              rec.flops_dense, rec.flops_dense, repr(1.0), repr(0.0)] for rec in records[:1]]
    write_csv(path, BENCH_CSV_COLUMNS, dense + [
        [rec.variant, rec.n, rec.d, rec.z, rec.top_k, rec.window,
         repr(rec.block_median_ms), repr(rec.block_iqr_ms), rec.flops_dense, rec.flops_block,
         repr(rec.recall), repr(rec.sparsity)]
        for rec in records])
