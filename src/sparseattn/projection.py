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
from .graph import AttentionGraph, ScoreMatrix


def _frozen(a, dtype=np.float64):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


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

    ``eligible[query_ids[p]]`` lists the indices (into ``keys``) that are
    valid negatives for positive pair p: same instance, not connected to
    the pair's query in the source graph.
    """

    def __init__(self, queries, pos_keys, keys, query_ids, eligible, rng_seed=0):
        self.queries = _frozen(queries)
        self.pos_keys = _frozen(pos_keys)
        self.keys = _frozen(keys)
        self.query_ids = _frozen(query_ids, dtype=np.int64)
        self.eligible = [np.asarray(e, dtype=np.int64) for e in eligible]
        self.rng_seed = int(rng_seed)
        self._rng = np.random.default_rng(self.rng_seed)
        if len(self.queries) != len(self.pos_keys) or len(self.queries) != len(self.query_ids):
            raise ValueError("queries, pos_keys and query_ids must have equal length")

    def __len__(self):
        return len(self.queries)

    @property
    def d(self) -> int:
        return self.queries.shape[1]

    @property
    def positives(self):
        """Iterate (q, k) vector pairs."""
        return zip(self.queries, self.pos_keys)


def build_pair_dataset(matrices, graphs, rng_seed=0, min_len=21) -> PairDataset:
    """Collect positive pairs from (ScoreMatrix, gold graph) instances.

    Only instances with at least ``min_len`` query tokens contribute
    (default keeps instances longer than 20 tokens).  Negatives for a query
    are all keys of the same instance it is not connected to.
    """
    queries, pos_keys, key_rows, query_ids, eligible = [], [], [], [], []
    qid_by_key = {}
    key_offset = 0
    kept = 0
    for sm, g in zip(matrices, graphs):
        if not isinstance(sm, ScoreMatrix) or not isinstance(g, AttentionGraph):
            raise ValueError("expected (ScoreMatrix, AttentionGraph) pairs")
        if (g.n, g.m) != (sm.n, sm.m):
            raise ValueError("graph does not match its score matrix")
        if sm.n < min_len:
            continue
        kept += 1
        key_rows.append(sm.K)
        dense = g.to_dense()
        for i, j in g.edges:
            qkey = (key_offset, int(i))
            if qkey not in qid_by_key:
                qid_by_key[qkey] = len(eligible)
                eligible.append(key_offset + np.flatnonzero(~dense[i]))
            queries.append(sm.Q[i])
            pos_keys.append(sm.K[j])
            query_ids.append(qid_by_key[qkey])
        key_offset += sm.m
    if not queries:
        raise ValueError(
            "no positive pairs collected"
            + ("" if kept else f" (no instance has n >= {min_len} tokens)")
        )
    return PairDataset(
        np.asarray(queries),
        np.asarray(pos_keys),
        np.concatenate(key_rows, axis=0),
        np.asarray(query_ids),
        eligible,
        rng_seed=rng_seed,
    )


def project(head: ProjectionHead, x) -> np.ndarray:
    """W x + b for a single d-vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (head.d,):
        raise ValueError(f"expected a vector of length {head.d}, got shape {x.shape}")
    return head.W @ x + head.b


def project_rows(head: ProjectionHead, X) -> np.ndarray:
    """Project each row of an (n, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != head.d:
        raise ValueError(f"expected an (n, {head.d}) matrix, got shape {X.shape}")
    return X @ head.W.T + head.b


def hinge_loss(q_proj, k_pos, k_neg, margin: float = 1.0) -> float:
    """max(0, margin + ||q' - k'_P||^2 - ||q' - k'_N||^2)."""
    q_proj = np.asarray(q_proj, dtype=np.float64)
    dp = q_proj - np.asarray(k_pos, dtype=np.float64)
    dn = q_proj - np.asarray(k_neg, dtype=np.float64)
    return float(max(0.0, margin + dp @ dp - dn @ dn))


def hinge_grad(head: ProjectionHead, q, k_pos, k_neg, margin: float = 1.0):
    """Gradient of the hinge loss w.r.t. (W, b) through the shared projection.

    On the flat side of the hinge (loss == 0) the zero subgradient is used.
    """
    q = np.asarray(q, dtype=np.float64)
    k_pos = np.asarray(k_pos, dtype=np.float64)
    k_neg = np.asarray(k_neg, dtype=np.float64)
    qp = project(head, q)
    pp = project(head, k_pos)
    np_ = project(head, k_neg)
    dp = qp - pp
    dn = qp - np_
    slack = margin + dp @ dp - dn @ dn
    gW = np.zeros_like(head.W)
    gb = np.zeros_like(head.b)
    if slack > 0.0:
        gq = 2.0 * (dp - dn)
        gp = -2.0 * dp
        gn = 2.0 * dn
        gW += np.outer(gq, q) + np.outer(gp, k_pos) + np.outer(gn, k_neg)
        gb += gq + gp + gn  # identically zero: distances do not see b
    return gW, gb


def sample_negative(ds: PairDataset, pair_index: int, rng=None):
    """Uniform negative key for positive pair ``pair_index``.

    Returns None when the pair's query is connected to every key (the pair
    then contributes no loss).  Uses the dataset's own seeded stream when
    no generator is passed, so the draw sequence is reproducible.
    """
    elig = ds.eligible[int(ds.query_ids[pair_index])]
    if elig.size == 0:
        return None
    gen = ds._rng if rng is None else rng
    return ds.keys[elig[int(gen.integers(elig.size))]]


def train_projection(
    ds: PairDataset,
    cfg: TrainConfig,
    r: int = 4,
    loss_history=None,
) -> ProjectionHead:
    """Mini-batch Adam on the hinge loss over shuffled positives.

    Deterministic for a fixed (dataset seed, config); init is W ~ U[-1/sqrt(d),
    1/sqrt(d)], b = 0.  If ``loss_history`` is a list, the mean pre-update
    loss of every batch is appended to it.
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
    b = np.zeros(r)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    mb = np.zeros_like(b)
    vb = np.zeros_like(b)
    step = 0

    for _ in range(cfg.epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            gW = np.zeros_like(W)
            gb = np.zeros_like(b)
            total = 0.0
            count = 0
            head = ProjectionHead(W, b)
            for p in batch:
                q = ds.queries[p]
                k_pos = ds.pos_keys[p]
                for _ in range(cfg.negatives_per_positive):
                    k_neg = sample_negative(ds, p, rng=rng_neg)
                    if k_neg is None:
                        continue
                    total += hinge_loss(
                        project(head, q), project(head, k_pos), project(head, k_neg),
                        cfg.margin,
                    )
                    dW, db = hinge_grad(head, q, k_pos, k_neg, cfg.margin)
                    gW += dW
                    gb += db
                    count += 1
            if count == 0:
                continue
            gW /= count
            gb /= count
            if loss_history is not None:
                loss_history.append(total / count)
            step += 1
            mW = beta1 * mW + (1 - beta1) * gW
            vW = beta2 * vW + (1 - beta2) * gW * gW
            mb = beta1 * mb + (1 - beta1) * gb
            vb = beta2 * vb + (1 - beta2) * gb * gb
            corr1 = 1 - beta1 ** step
            corr2 = 1 - beta2 ** step
            W = W - cfg.learning_rate * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
            b = b - cfg.learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
    return ProjectionHead(W, b)


def save_head(head: ProjectionHead, path):
    """Checkpoint: header ``d r`` then r lines of d weights plus the bias."""
    write_rows(path, (head.d, head.r), np.column_stack([head.W, head.b]))


def load_head(path) -> ProjectionHead:
    (d, _), rows = read_rows(path, ("d", "r"), lambda d, r: (r, d + 1))
    try:
        return ProjectionHead(rows[:, :d], rows[:, d])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
