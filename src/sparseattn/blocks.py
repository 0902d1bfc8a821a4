"""Chunked (block-level) attention: labeling, projection, capped block
selection, and the micro-benchmark of dense vs block-sparse evaluation.

Tokens are grouped into contiguous blocks of z; a block pair is positive if
any contained token pair is a gold edge, so expanding block labels back to
token level can only over-cover the gold graph (recall 1 by construction).
The benchmark times full entmax attention against an evaluation that scores
only the selected blocks plus a local window, and counts score-FLOPs for
both paths.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .entmax import DEFAULT_PARAMS, EntmaxParams
from .graph import (
    AttentionGraph,
    ScoreMatrix,
    admissible_count,
    attention_probs,
    extract_graph,
    graph_union,
    recall,
    sparsity,
)
from .kmeans import Centroids, KMeansConfig, kmeans_fit
from .predictors import (
    PatternConfig,
    _block_pairs_graph,
    buckets_to_graph,
    cluster_qk,
    window_global_graph,
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


@dataclass(frozen=True)
class ChunkedGraph:
    """Block-level edge set for block size z."""

    z: int
    blocks: AttentionGraph

    def __post_init__(self):
        if self.z < 1:
            raise ValueError("block size z must be >= 1")

    @property
    def n_blocks(self) -> int:
        return self.blocks.n

    @property
    def m_blocks(self) -> int:
        return self.blocks.m

    @property
    def causal(self) -> bool:
        return self.blocks.causal


def _nblocks(n: int, z: int) -> int:
    return -(-n // z)


def chunk_labels(gold: AttentionGraph, z: int) -> ChunkedGraph:
    """Block edge (bi, bj) iff some gold token edge falls inside the block."""
    if z < 1:
        raise ValueError("block size z must be >= 1")
    edges = gold.edges // z
    blocks = AttentionGraph(
        _nblocks(gold.n, z), _nblocks(gold.m, z), edges, causal=gold.causal
    )
    return ChunkedGraph(z, blocks)


def chunk_means(X, z: int) -> np.ndarray:
    """Mean of each contiguous block of z rows.

    A short final block is averaged over its actual rows only.
    """
    X = np.asarray(X, dtype=np.float64)
    if z < 1:
        raise ValueError("block size z must be >= 1")
    n = X.shape[0]
    nb = _nblocks(n, z)
    out = np.empty((nb, X.shape[1]))
    for b in range(nb):
        out[b] = X[b * z : (b + 1) * z].mean(axis=0)
    return out


def select_blocks_v1(
    Qb, Kb, budget: BlockBudget, causal: bool = False, z: int = 1
) -> ChunkedGraph:
    """Per query block, the top_k_blocks key blocks by largest dot-product.

    Ties go to the lower block index; the cap is clamped to the number of
    admissible blocks (all of them, or bi + 1 under causal masking).
    """
    Qb = np.asarray(Qb, dtype=np.float64)
    Kb = np.asarray(Kb, dtype=np.float64)
    scores = Qb @ Kb.T
    nb, mb = scores.shape
    edges = [(i, j) for i in range(nb)
             for j in np.argsort(-scores[i, : min(i + 1, mb) if causal else mb],
                                 kind="stable")[: budget.top_k_blocks]]
    return ChunkedGraph(z, AttentionGraph(nb, mb, edges, causal=causal))


def select_blocks_v2(
    Qb, Kb, centroids: Centroids, budget: BlockBudget, causal: bool = False, z: int = 1
) -> ChunkedGraph:
    """Block pair selected iff the blocks share a centroid among each side's
    top_k_blocks closest ones."""
    qa, ka = cluster_qk(Qb, Kb, centroids, budget.top_k_blocks)
    return ChunkedGraph(z, buckets_to_graph(qa, ka, causal=causal))


def expand_blocks(cg: ChunkedGraph, n: int, m: int) -> AttentionGraph:
    """Token graph with edge (i, j) iff block (i//z, j//z) is selected.

    Padding positions beyond n or m are dropped and the causal token filter
    is reapplied.
    """
    if _nblocks(n, cg.z) != cg.n_blocks or _nblocks(m, cg.z) != cg.m_blocks:
        raise ValueError(
            f"{n}x{m} tokens with z={cg.z} does not match "
            f"{cg.n_blocks}x{cg.m_blocks} blocks"
        )
    lin = cg.blocks._lin
    return _block_pairs_graph(n, m, lin // cg.m_blocks, lin % cg.m_blocks, cg.z, cg.causal)


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
    """
    if (graph.n, graph.m, graph.causal) != (sm.n, sm.m, sm.causal):
        raise ValueError("graph shape/causal flag does not match score matrix")
    indptr, cols = csr_from_graph(graph)
    scale = 1.0 / np.sqrt(sm.d)
    vals = _kernels.sparse_rows_entmax15(sm.Q, sm.K, indptr, cols, scale, params.alpha)
    P = np.zeros(sm.n * sm.m)
    P[graph._lin] = vals
    return P.reshape(sm.n, sm.m)


# (n, causal) of the heads ``audit_sparse_attention`` checks.  At n = 512
# the CSR rows fall into every padded-width group up to 512 and the widest
# group needs more than one kernel batch.
AUDIT_HEADS = ((1, False), (37, False), (37, True), (512, False), (512, True))


def audit_sparse_attention(seed: int = 0, alpha: float = 1.5):
    """Sparse-consistency audit of the batched attention paths.

    Each head of ``AUDIT_HEADS`` gets random scores drawn from ``seed`` and
    a graph covering its gold support plus random extra edges (a random
    density per row, so row lengths spread widely).  Returns one record per
    head where ``sparse_attention_probs`` and ``attention_probs`` differ by
    more than 1e-9 (empty on a healthy build).
    """
    params = EntmaxParams(alpha=alpha)
    rng = np.random.default_rng(seed)
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
        diff = np.max(np.abs(P - attention_probs(sm, params)))
        if not diff <= 1e-9:
            failures.append({"head": head, "n": n, "causal": causal, "max_abs_diff": float(diff)})
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

    @property
    def speedup(self) -> float:
        return self.dense_median_ms / self.block_median_ms if self.block_median_ms else float("inf")


def _time_ms(fn, repeats: int):
    fn()  # untimed first call: warms caches and allocator
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    med = float(np.median(samples))
    iqr = float(np.percentile(samples, 75) - np.percentile(samples, 25))
    return med, iqr


def bench_masked_attention(
    n: int,
    d: int,
    z: int,
    budget: BlockBudget,
    window: int = 3,
    repeats: int = 5,
    seed: int = 0,
    causal: bool = False,
    params: EntmaxParams = DEFAULT_PARAMS,
) -> BenchRecord:
    """Time dense entmax attention against block-sparse evaluation.

    The instance is self-contained: a random (Q, K) pair, a chunk-level
    projection trained on the instance's own block labels, and for v2 a
    centroid set fitted on the projected blocks (top-k clamped to the
    centroid count).  The timed regions are ``attention_probs(sm, params)``
    and ``sparse_attention_probs(sm, graph, params)`` on the selected
    blocks plus the window; block selection happens offline.
    """
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    rng = np.random.default_rng(seed)
    sm = ScoreMatrix(rng.normal(size=(n, d)), rng.normal(size=(n, d)), causal=causal)
    gold = extract_graph(sm, params)

    labels = chunk_labels(gold, z)
    block_sm = ScoreMatrix(chunk_means(sm.Q, z), chunk_means(sm.K, z), causal=causal)
    ds = build_pair_dataset([block_sm], [labels.blocks], rng_seed=seed, min_len=1)
    head = train_projection(ds, TrainConfig(rng_seed=seed), r=min(4, d - 1))
    Qb = project_rows(head, block_sm.Q)
    Kb = project_rows(head, block_sm.K)

    if budget.variant == "v1":
        cg = select_blocks_v1(Qb, Kb, budget, causal=causal, z=z)
    else:
        B = min(8, labels.n_blocks)
        centroids = kmeans_fit(np.vstack([Qb, Kb]), B, KMeansConfig(seed=seed))
        eff = BlockBudget(min(budget.top_k_blocks, B), "v2")
        cg = select_blocks_v2(Qb, Kb, centroids, eff, causal=causal, z=z)
    expanded = expand_blocks(cg, n, n)
    combined = graph_union(
        expanded, window_global_graph(n, n, PatternConfig(window=window, causal=causal))
    )

    dense_med, dense_iqr = _time_ms(lambda: attention_probs(sm, params), repeats)
    block_med, block_iqr = _time_ms(
        lambda: sparse_attention_probs(sm, combined, params), repeats
    )

    return BenchRecord(
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
        flops_dense=dense_score_flops(n, n, d, causal),
        flops_block=graph_score_flops(combined, d),
        recall=recall(combined, gold),
        sparsity=sparsity(combined),
        selected_blocks=cg.blocks.edge_count,
    )


def write_bench_csv(records, path):
    """Benchmark CSV: one dense reference row per (n, d), one row per config."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_CSV_COLUMNS)
        seen_dense = set()
        for rec in records:
            if (rec.n, rec.d) not in seen_dense:
                seen_dense.add((rec.n, rec.d))
                writer.writerow([
                    "dense", rec.n, rec.d, 0, 0, 0,
                    repr(rec.dense_median_ms), repr(rec.dense_iqr_ms),
                    rec.flops_dense, rec.flops_dense, repr(1.0), repr(0.0),
                ])
            writer.writerow([
                rec.variant, rec.n, rec.d, rec.z, rec.top_k, rec.window,
                repr(rec.block_median_ms), repr(rec.block_iqr_ms),
                rec.flops_dense, rec.flops_block,
                repr(rec.recall), repr(rec.sparsity),
            ])
