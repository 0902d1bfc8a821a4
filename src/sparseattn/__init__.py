"""Sparse attention pattern prediction and evaluation.

Exact alpha-entmax attention produces sparse attention graphs; this package
extracts those graphs, learns low-dimensional query/key projections with a
contrastive hinge loss, predicts the sparsity pattern via distance
thresholds, balanced quantization, or top-k clustering (plus fixed-pattern
baselines), and scores every strategy on the sparsity/recall tradeoff.
"""

from ._kernels import backend
from .blocks import (
    BenchRecord,
    BlockBudget,
    audit_sparse_attention,
    bench_masked_attention,
    chunk_labels,
    chunk_means,
    csr_from_graph,
    dense_score_flops,
    expand_blocks,
    graph_score_flops,
    select_blocks_v1,
    sparse_attention_probs,
    write_bench_csv,
)
from .data import SyntheticSpec, generate_instances, load_qk, read_tensor, save_qk, write_tensor
from .entmax import DEFAULT_PARAMS, SUPPORT_TOL, EntmaxParams, entmax, masked_entmax
from .errors import ConfigError, DataError
from .graph import (
    AttentionGraph,
    ScoreMatrix,
    attention_probs,
    attention_scores,
    extract_graph,
    graph_union,
    read_graph,
    recall,
    sparsity,
    write_graph,
)
from .kmeans import Centroids, KMeansConfig, kmeans_fit, load_centroids, save_centroids
from .predictors import (
    BucketAssignment,
    PatternConfig,
    bigbird_random_blocks,
    buckets_to_graph,
    cluster_qk,
    combine_with_patterns,
    distance_pairing,
    lsh_assign,
    quantize_qk,
    routing_assign,
    window_global_graph,
)
from .projection import (
    PairDataset,
    ProjectionHead,
    TrainConfig,
    build_pair_dataset,
    draw_negatives,
    load_head,
    project_rows,
    save_head,
    train_projection,
)
from .sweep import (
    PatternGrid,
    SweepArtifacts,
    SweepRecord,
    aggregate_records,
    gold_sparsity_of,
    pareto_frontier,
    per_method_frontiers,
    read_sweep_csv,
    report,
    run_sweep,
    write_pareto_csv,
    write_sweep_csv,
)

__version__ = "0.1.0"
