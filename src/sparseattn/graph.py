"""Attention graphs: ground-truth extraction from entmax attention, and the
recall / sparsity metrics used to score predicted graphs.

A graph is the bipartite edge set between n queries and m keys; the
ground-truth graph of a head contains exactly the query-key pairs that get
nonzero entmax probability.  Causal graphs (decoder self-attention) only
admit edges with j <= i and use n(n+1)/2 as the sparsity denominator.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._textio import read_rows, write_rows
from .entmax import DEFAULT_PARAMS, SUPPORT_TOL, EntmaxParams
from .errors import DataError


def _frozen(a, dtype=np.float64):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-head query/key matrices; the raw material for attention graphs.

    layer / head / instance are bookkeeping labels used by manifests and
    sweep records; they do not affect any computation.
    """

    Q: np.ndarray
    K: np.ndarray
    causal: bool = False
    layer: int = 0
    head: int = 0
    instance: int = 0

    def __post_init__(self):
        Q = _frozen(self.Q)
        K = _frozen(self.K)
        if Q.ndim != 2 or K.ndim != 2:
            raise ValueError("Q and K must be 2-D matrices")
        if Q.shape[1] != K.shape[1]:
            raise ValueError(f"Q has d={Q.shape[1]} but K has d={K.shape[1]}")
        if self.causal and Q.shape[0] != K.shape[0]:
            raise ValueError("causal attention requires n == m")
        if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(K))):
            raise ValueError("Q and K must be finite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def d(self) -> int:
        return self.Q.shape[1]


def _graph_shape(n, m, causal):
    n = int(n)
    m = int(m)
    if n < 1 or m < 1:
        raise ValueError("graph needs n >= 1 and m >= 1")
    if n * m >= 2**63:
        raise ValueError("graph has 2**63 cells or more (edges are int64 linear indices)")
    if causal and n != m:
        raise ValueError("causal graph requires n == m")
    return n, m


class AttentionGraph:
    """Immutable edge set between n queries and m keys.

    Edges are stored in ``_lin`` as row-major linear indices ``i * m + j``,
    sorted and unique, so that iteration order, metrics, and file output
    are reproducible.  ``__init__`` accepts any edge list (duplicates and
    any order) and establishes that invariant with ``np.unique``; the
    private ``_from_sorted_lin``, used by every builder that emits sorted
    indices, trusts its input to hold it already.

    ``_cover`` is ``None`` or a tuple of pieces whose cells, cut to the
    admissible cells, are exactly the edges (the pieces are listed above
    ``_kernels.cover_candidates``).  Only ``buckets_to_graph``,
    ``window_global_graph`` and ``graph_union`` set it, so that
    ``sparse_attention_probs`` can score a predicted graph by blocks;
    equality and file I/O ignore it.
    """

    __slots__ = ("n", "m", "causal", "_lin", "_cover")

    def __init__(self, n, m, edges=(), causal=False):
        n, m = _graph_shape(n, m, causal)
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e[:, 0].min() < 0 or e[:, 0].max() >= n:
                raise ValueError("edge query index out of range")
            if e[:, 1].min() < 0 or e[:, 1].max() >= m:
                raise ValueError("edge key index out of range")
            if causal and np.any(e[:, 1] > e[:, 0]):
                raise ValueError("causal graph admits only edges with j <= i")
        self.n = n
        self.m = m
        self.causal = bool(causal)
        lin = np.unique(e[:, 0] * m + e[:, 1])
        lin.setflags(write=False)
        self._lin = lin
        self._cover = None

    @classmethod
    def _from_sorted_lin(cls, n, m, lin, causal, cover=None):
        """Graph over linear indices ``lin`` that the caller guarantees to be
        in range, sorted and unique, and covered exactly by ``cover``
        (unchecked)."""
        g = cls.__new__(cls)
        g.n, g.m, g.causal = n, m, bool(causal)
        lin = np.asarray(lin, dtype=np.int64)
        lin.setflags(write=False)
        g._lin = lin
        g._cover = cover
        return g

    @classmethod
    def from_dense(cls, dense, causal=False):
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise ValueError("dense mask must be a 2-D matrix")
        n, m = _graph_shape(*dense.shape, causal)
        if causal and np.triu(dense, 1).any():
            raise ValueError("causal graph admits only edges with j <= i")
        # flatnonzero is row-major, hence already sorted and unique
        return cls._from_sorted_lin(n, m, np.flatnonzero(dense), causal)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 array of (i, j) pairs, sorted lexicographically."""
        return np.stack([self._lin // self.m, self._lin % self.m], axis=1)

    @property
    def edge_count(self) -> int:
        return int(self._lin.size)

    def edge_set(self):
        return {(int(i), int(j)) for i, j in self.edges}

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n * self.m, dtype=bool)
        dense[self._lin] = True
        return dense.reshape(self.n, self.m)

    def __eq__(self, other):
        return (
            isinstance(other, AttentionGraph)
            and self.n == other.n
            and self.m == other.m
            and self.causal == other.causal
            and np.array_equal(self._lin, other._lin)
        )

    __hash__ = None

    def __repr__(self):
        kind = "causal" if self.causal else "full"
        return f"AttentionGraph({self.n}x{self.m}, {kind}, {self.edge_count} edges)"


def _ranges(starts, lengths):
    """Concatenation of ``arange(s, s + l)`` over the pairs of starts and lengths."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    # each output cell is its segment's start plus its offset in the segment
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(int(ends[-1]) if ends.size else 0)


def _row_block_graph(n, m, causal, rule, cover=None) -> AttentionGraph:
    """Graph of the cells where ``rule(r0, r1, c1)`` holds.

    ``rule`` returns a fresh boolean block over queries r0..r1-1 and keys
    0..c1-1.  Blocks hold at most ``_kernels._BATCH_CELLS`` cells, a causal
    block stops at its last row's diagonal and is cut to the lower
    triangle, and row-major ``flatnonzero`` keeps the edges sorted.
    ``cover`` becomes the graph's cover.
    """
    n, m = _graph_shape(n, m, causal)
    step = max(1, _kernels._BATCH_CELLS // m)
    parts = []
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        c1 = r1 if causal else m
        block = rule(r0, r1, c1)
        if causal:
            block &= np.tri(r1 - r0, c1, r0, dtype=bool)
        flat = np.flatnonzero(block)
        parts.append(flat + r0 * m if c1 == m else (flat // c1 + r0) * m + flat % c1)
    lin = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return AttentionGraph._from_sorted_lin(n, m, lin, causal, cover)


def admissible_count(n: int, m: int, causal: bool) -> int:
    return n * (n + 1) // 2 if causal else n * m


def attention_scores(sm: ScoreMatrix) -> np.ndarray:
    """Scaled dot-product scores Z = Q K^T / sqrt(d)."""
    return (sm.Q @ sm.K.T) / np.sqrt(sm.d)


def attention_probs(sm: ScoreMatrix, params: EntmaxParams = DEFAULT_PARAMS) -> np.ndarray:
    """Row-wise entmax attention probabilities (causal mask applied).

    This is the dense reference: ``blocks.sparse_attention_probs`` scores
    only a graph's cells and must equal it whenever the graph covers the
    gold support.
    """
    Z = attention_scores(sm)
    valid = np.tri(sm.n, sm.m, dtype=bool) if sm.causal else np.ones(Z.shape, bool)
    return _kernels.entmax15_masked_rows(Z, valid, params.alpha)


def extract_graph(sm: ScoreMatrix, params: EntmaxParams = DEFAULT_PARAMS) -> AttentionGraph:
    """Ground-truth attention graph: edges where entmax probability > 0.

    Solved one row block at a time, without an n x m array.  The blocks are
    the dense kernel's own chunks, scored as ``attention_scores`` scores
    them, so each row is solved as in ``attention_probs``.
    """
    scale = np.sqrt(sm.d)

    def support(r0, r1, c1):
        Z = (sm.Q[r0:r1] @ sm.K[:c1].T) / scale
        valid = np.tri(r1 - r0, c1, r0, dtype=bool) if sm.causal else np.ones(Z.shape, bool)
        return _kernels.entmax15_masked_rows(Z, valid, params.alpha) > SUPPORT_TOL

    return _row_block_graph(sm.n, sm.m, sm.causal, support)


def _check_same_shape(a: AttentionGraph, b: AttentionGraph):
    if (a.n, a.m, a.causal) != (b.n, b.m, b.causal):
        raise ValueError(
            f"graph shape mismatch: {a.n}x{a.m} causal={a.causal} "
            f"vs {b.n}x{b.m} causal={b.causal}"
        )


def recall(pred: AttentionGraph, gold: AttentionGraph) -> float:
    """|pred intersect gold| / |gold|."""
    _check_same_shape(pred, gold)
    if gold.edge_count == 0:
        raise ValueError("recall is undefined for an empty gold graph")
    hits = np.intersect1d(pred._lin, gold._lin, assume_unique=True).size
    return hits / gold.edge_count


def sparsity(g: AttentionGraph) -> float:
    """1 - |edges| / admissible pairs (causal admits n(n+1)/2 pairs)."""
    return 1.0 - g.edge_count / admissible_count(g.n, g.m, g.causal)


def graph_union(a: AttentionGraph, b: AttentionGraph) -> AttentionGraph:
    """Edges of either graph; a linear merge of the two sorted edge lists.
    The union is covered by both covers together when both graphs have one."""
    _check_same_shape(a, b)
    lin = _merge_sorted(a._lin, b._lin)
    cover = None if a._cover is None or b._cover is None else a._cover + b._cover
    return AttentionGraph._from_sorted_lin(a.n, a.m, lin, a.causal, cover)


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted unique int arrays (``np.union1d`` without
    its re-sort)."""
    if not a.size or not b.size:
        return a if b.size == 0 else b
    pos = np.searchsorted(a, b)
    fresh = a[np.minimum(pos, a.size - 1)] != b
    return np.insert(a, pos[fresh], b[fresh])


def write_graph(g: AttentionGraph, path):
    """Graph file: header ``n m causal edge_count`` then one ``i j`` per line."""
    write_rows(path, (g.n, g.m, int(g.causal), g.edge_count), g.edges, fmt="%d")


def read_graph(path) -> AttentionGraph:
    (n, m, causal, count), edges = read_rows(
        path, ("n", "m", "causal", "edge_count"), lambda n, m, causal, count: (count, 2),
        dtype=np.int64,
    )
    if causal not in (0, 1):
        raise DataError(f"{path}:1: causal flag must be 0 or 1")
    try:
        g = AttentionGraph(n, m, edges, causal=bool(causal))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if g.edge_count != count:
        raise DataError(f"{path}: {count - g.edge_count} duplicate edges")
    return g
