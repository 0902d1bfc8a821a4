"""Contrastive learning of low-dimensional query/key projections.

A single affine map per head sends d-dimensional queries and keys to r << d
dimensions so that connected (positive) pairs land close together and
unconnected pairs land far apart, trained with a squared-distance hinge
loss and uniformly sampled negatives.
"""

from dataclasses import dataclass

import numpy as np

from ._textio import read_rows, write_rows
from .errors import DataError
from .graph import AttentionGraph, ScoreMatrix, _frozen


@dataclass(frozen=True)
class ProjectionHead:
    """Affine map x -> W x + b from R^d to R^r with r < d."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = _frozen(self.W)
        b = _frozen(self.b)
        if W.ndim != 2 or W.shape[0] < 1:
            raise ValueError("W must be an (r, d) matrix with r >= 1")
        if b.shape != (W.shape[0],):
            raise ValueError("b must be an r-vector")
        if W.shape[0] >= W.shape[1]:
            raise ValueError(f"projection must reduce dimension, got r={W.shape[0]} >= d={W.shape[1]}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("projection parameters must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def r(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def param_count(self) -> int:
        return self.W.size + self.b.size


@dataclass(frozen=True)
class TrainConfig:
    """Hinge-loss training settings (defaults follow the standard recipe:
    margin 1.0, lr 0.01, one epoch, batches of 16, one negative per positive).
    """

    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 16
    negatives_per_positive: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        # lr = 0 is allowed (a no-op run); negative rates are not.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.negatives_per_positive < 1:
            raise ValueError("epochs, batch_size, negatives_per_positive must be >= 1")


class PairDataset:
    """Positive query/key pairs plus the key pool used for negative sampling.

    ``eligible`` gives, per query id, the indices into ``keys`` that are
    valid negatives for its pairs: same instance, not connected to the query
    in the source graph.  They are stored flat: query q's are
    ``eligible_keys[eligible_offsets[q]:eligible_offsets[q + 1]]``.
    """

    def __init__(self, queries, pos_keys, keys, query_ids, eligible, rng_seed=0):
        self.queries = _frozen(queries)
        self.pos_keys = _frozen(pos_keys)
        self.keys = _frozen(keys)
        self.query_ids = _frozen(query_ids, dtype=np.int64)
        eligible = [np.asarray(e, dtype=np.int64).ravel() for e in eligible]
        self.eligible_keys = np.concatenate([np.zeros(0, np.int64), *eligible])
        self.eligible_offsets = np.cumsum([0] + [e.size for e in eligible])
        self.eligible_keys.setflags(write=False)  # both are fresh arrays: no copy needed
        self.eligible_offsets.setflags(write=False)
        self.rng_seed = int(rng_seed)
        if len(self.queries) != len(self.pos_keys) or len(self.queries) != len(self.query_ids):
            raise ValueError("queries, pos_keys and query_ids must have equal length")

    def __len__(self):
        return len(self.queries)

    @property
    def d(self) -> int:
        return self.queries.shape[1]


def build_pair_dataset(matrices, graphs, rng_seed=0, min_len=21) -> PairDataset:
    """Collect positive pairs from (ScoreMatrix, gold graph) instances.

    Only instances with at least ``min_len`` query tokens contribute
    (default keeps instances longer than 20 tokens).  Every edge is one
    positive pair, in edge order; query ids number the distinct queries with
    an edge in that order.  Negatives for a query are all keys of the same
    instance it is not connected to.
    """
    q_rows, key_rows, q_idx, k_idx, query_ids, eligible = [], [], [], [], [], []
    q_offset = key_offset = num_queries = 0
    kept = 0
    for sm, g in zip(matrices, graphs):
        if not isinstance(sm, ScoreMatrix) or not isinstance(g, AttentionGraph):
            raise ValueError("expected (ScoreMatrix, AttentionGraph) pairs")
        if (g.n, g.m) != (sm.n, sm.m):
            raise ValueError("graph does not match its score matrix")
        if sm.n < min_len:
            continue
        kept += 1
        q_rows.append(sm.Q)
        key_rows.append(sm.K)
        edges = g.edges
        rows, qid = np.unique(edges[:, 0], return_inverse=True)
        q_idx.append(q_offset + edges[:, 0])
        k_idx.append(key_offset + edges[:, 1])
        query_ids.append(num_queries + qid)
        free = ~g.to_dense()[rows]
        cols = key_offset + np.nonzero(free)[1]
        # (np.split of an instance without edges still yields one piece)
        eligible += np.split(cols, np.cumsum(np.count_nonzero(free, axis=1))[:-1])[: rows.size]
        num_queries += rows.size
        q_offset += sm.n
        key_offset += sm.m
    if not num_queries:
        raise ValueError(
            "no positive pairs collected"
            + ("" if kept else f" (no instance has n >= {min_len} tokens)")
        )
    keys = np.concatenate(key_rows)
    return PairDataset(
        np.concatenate(q_rows)[np.concatenate(q_idx)],
        keys[np.concatenate(k_idx)],
        keys,
        np.concatenate(query_ids),
        eligible,
        rng_seed=rng_seed,
    )


def draw_negatives(ds: PairDataset, pairs, rng):
    """Uniform negatives for positive pairs ``pairs``: (mask of the pairs
    kept, their key indices into ``ds.keys``).  A pair whose query sees every
    key is dropped; the rest take one draw each, in order, from a single
    ``rng.integers`` call over their pool sizes.
    """
    qid = ds.query_ids[pairs]
    lo = ds.eligible_offsets[qid]
    sizes = ds.eligible_offsets[qid + 1] - lo
    kept = sizes > 0
    return kept, ds.eligible_keys[lo[kept] + rng.integers(sizes[kept])]


def project_rows(head: ProjectionHead, X) -> np.ndarray:
    """Project each row of an (n, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != head.d:
        raise ValueError(f"expected an (n, {head.d}) matrix, got shape {X.shape}")
    return X @ head.W.T + head.b


def _slack(q_proj, k_pos, k_neg, margin):
    """Per-row margin + ||q' - k'_P||^2 - ||q' - k'_N||^2, with q' - k'_P and q' - k'_N."""
    dp = q_proj - k_pos
    dn = q_proj - k_neg
    return margin + np.einsum("ij,ij->i", dp, dp) - np.einsum("ij,ij->i", dn, dn), dp, dn


def hinge_loss(q_proj, k_pos, k_neg, margin: float = 1.0) -> np.ndarray:
    """Per-row max(0, margin + ||q' - k'_P||^2 - ||q' - k'_N||^2) of (B, r)
    projected queries, positive keys and negative keys."""
    rows = [np.asarray(a, dtype=np.float64) for a in (q_proj, k_pos, k_neg)]
    return np.maximum(_slack(*rows, margin)[0], 0.0)


def _hinge(W, X, margin):
    """Per-row hinge losses of the (q, k_pos, k_neg) blocks stacked in the
    (3B, d) matrix X, and their summed gradient w.r.t. W.  The bias drops out
    of every distance, so its gradient is exactly zero and it is left out."""
    P = X @ W.T
    B = P.shape[0] // 3
    slack, dp, dn = _slack(P[:B], P[B : 2 * B], P[2 * B :], margin)
    # d loss / d (q', k'_P, k'_N), with the zero subgradient on the flat side
    G = np.stack([dp - dn, -dp, dn]) * (2.0 * (slack > 0.0))[None, :, None]
    return np.maximum(slack, 0.0), G.reshape(3 * B, -1).T @ X


def hinge_grad(head: ProjectionHead, q, k_pos, k_neg, margin: float = 1.0) -> np.ndarray:
    """Gradient w.r.t. W of the hinge losses of B (q, k_pos, k_neg) rows,
    summed over the rows, through the shared projection.  (B, d) inputs;
    on the flat side of the hinge (loss == 0) the zero subgradient is used.
    The gradient w.r.t. b is identically zero."""
    X = np.concatenate([np.asarray(a, dtype=np.float64) for a in (q, k_pos, k_neg)])
    return _hinge(head.W, X, margin)[1]


def train_projection(
    ds: PairDataset,
    cfg: TrainConfig,
    r: int = 4,
    loss_history=None,
) -> ProjectionHead:
    """Mini-batch Adam on the hinge loss over shuffled positives.

    Deterministic for a fixed (dataset seed, config); init is W ~ U[-1/sqrt(d),
    1/sqrt(d)], b = 0, and b stays 0 (its gradient is zero).  Each epoch
    permutes the positives with the config's stream and draws every
    negative of the epoch, pair by pair in permuted order, from the
    dataset's stream; a batch with no negative takes no step.  If
    ``loss_history`` is a list, the mean pre-update loss of every batch is
    appended to it.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    d = ds.d
    if r >= d:
        raise ValueError(f"projection must reduce dimension, got r={r} >= d={d}")
    rng = np.random.default_rng(cfg.rng_seed)
    rng_neg = np.random.default_rng(ds.rng_seed)
    bound = 1.0 / np.sqrt(d)
    W = rng.uniform(-bound, bound, size=(r, d))

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    step = 0
    per = cfg.negatives_per_positive
    batch_of = np.repeat(np.arange(len(ds)) // cfg.batch_size, per)

    for _ in range(cfg.epochs):
        pairs = np.repeat(rng.permutation(len(ds)), per)
        kept, negs = draw_negatives(ds, pairs, rng_neg)
        pairs, batches = pairs[kept], batch_of[kept]
        # the triples of each batch form one run of ``pairs``
        starts = np.flatnonzero(np.diff(batches, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [pairs.size]):
            p = pairs[lo:hi]
            X = np.concatenate([ds.queries[p], ds.pos_keys[p], ds.keys[negs[lo:hi]]])
            losses, gW = _hinge(W, X, cfg.margin)
            gW /= hi - lo
            if loss_history is not None:
                loss_history.append(float(losses.sum()) / (hi - lo))
            step += 1
            mW = beta1 * mW + (1 - beta1) * gW
            vW = beta2 * vW + (1 - beta2) * gW * gW
            corr1 = 1 - beta1 ** step
            corr2 = 1 - beta2 ** step
            W = W - cfg.learning_rate * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
    return ProjectionHead(W, np.zeros(r))


def save_head(head: ProjectionHead, path):
    """Checkpoint: header ``d r`` then r lines of d weights plus the bias."""
    write_rows(path, (head.d, head.r), np.column_stack([head.W, head.b]))


def load_head(path) -> ProjectionHead:
    (d, _), rows = read_rows(path, ("d", "r"), lambda d, r: (r, d + 1))
    try:
        return ProjectionHead(rows[:, :d], rows[:, d])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
