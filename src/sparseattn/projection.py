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
    """Positive query/key pairs as row indices into stacked queries and keys.

    Pair p joins query row ``q_rows[p]`` of ``Q`` to key row ``k_rows[p]``
    of ``K``.  The pairs are sorted by query row, then key row, without
    repeats, so each query's positive keys form one sorted run.  Query row
    q draws its negatives from the keys in ``key_lo[q]..key_hi[q]-1`` (its
    instance's keys) that it is not paired with.
    """

    def __init__(self, Q, K, q_rows, k_rows, key_lo, key_hi, rng_seed=0):
        self.Q = _frozen(Q)
        self.K = _frozen(K)
        self.q_rows, self.k_rows, self.key_lo, self.key_hi = (
            _frozen(a, dtype=np.int64) for a in (q_rows, k_rows, key_lo, key_hi))
        self.rng_seed = int(rng_seed)
        q, k, n = self.q_rows, self.k_rows, len(self.Q)
        if k.shape != q.shape or self.key_lo.shape != (n,) or self.key_hi.shape != (n,):
            raise ValueError("expected one key row per query row, one key range per row of Q")
        if q.size and (q[0] < 0 or q[-1] >= n or np.any(np.diff(q * len(self.K) + k) <= 0)):
            raise ValueError("pairs must be distinct (query row, key row) pairs in sorted order")
        lo, hi = self.key_lo, self.key_hi
        if np.any((lo < 0) | (hi < lo) | (hi > len(self.K))) or np.any((k < lo[q]) | (k >= hi[q])):
            raise ValueError("each key range must lie within K and hold its query's keys")
        deg = np.bincount(q, minlength=n)
        self._first = np.cumsum(deg) - deg  # each query row's first pair
        self._free = hi - lo - deg  # its unpaired keys
        # pair p's count of unpaired keys below its key, shifted per query row
        # by ``_base`` so that the runs of every row ascend together
        self._base = np.cumsum(self._free + 1) - (self._free + 1)
        self._gaps = k - lo[q] - (np.arange(q.size) - self._first[q]) + self._base[q]

    def __len__(self):
        return len(self.q_rows)

    @property
    def d(self) -> int:
        return self.Q.shape[1]


def build_pair_dataset(matrices, graphs, rng_seed=0, min_len=21) -> PairDataset:
    """Collect positive pairs from (ScoreMatrix, gold graph) instances.

    Only instances with at least ``min_len`` query tokens contribute
    (default keeps instances longer than 20 tokens).  Every edge is one
    positive pair, in edge order.  Negatives for a query are all keys of the
    same instance it is not connected to.
    """
    Qs, Ks, q_rows, k_rows, key_lo, key_hi = [], [], [], [], [], []
    q_offset = key_offset = 0
    for sm, g in zip(matrices, graphs):
        if not isinstance(sm, ScoreMatrix) or not isinstance(g, AttentionGraph):
            raise ValueError("expected (ScoreMatrix, AttentionGraph) pairs")
        if (g.n, g.m) != (sm.n, sm.m):
            raise ValueError("graph does not match its score matrix")
        if sm.n < min_len:
            continue
        Qs.append(sm.Q)
        Ks.append(sm.K)
        q_rows.append(q_offset + g._lin // g.m)
        k_rows.append(key_offset + g._lin % g.m)
        key_lo.append(np.full(sm.n, key_offset))
        key_hi.append(np.full(sm.n, key_offset + sm.m))
        q_offset += sm.n
        key_offset += sm.m
    if not sum(r.size for r in q_rows):
        raise ValueError(
            "no positive pairs collected"
            + ("" if Qs else f" (no instance has n >= {min_len} tokens)")
        )
    return PairDataset(*map(np.concatenate, (Qs, Ks, q_rows, k_rows, key_lo, key_hi)),
                       rng_seed=rng_seed)


def draw_negatives(ds: PairDataset, pairs, rng):
    """Uniform negatives for positive pairs ``pairs``: (mask of the pairs
    kept, their key rows in ``ds.K``).  A pair whose query sees every key
    of its range is dropped; the rest take one draw each, in order, from a
    single ``rng.integers`` call over their counts of unpaired keys.  Draw
    u becomes the u-th unpaired key of the range: u plus the number of the
    query's positives with fewer than u + 1 unpaired keys below them.
    """
    q = ds.q_rows[pairs]
    sizes = ds._free[q]
    kept = sizes > 0
    q = q[kept]
    u = rng.integers(sizes[kept])
    u += np.searchsorted(ds._gaps, u + ds._base[q], side="right") - ds._first[q]
    return kept, ds.key_lo[q] + u


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


def _hinge(W, X, margin):
    """Per-row hinge losses of the (q, k_pos, k_neg) blocks stacked in the
    (3B, d) matrix X, and their summed gradient w.r.t. W.  The bias drops out
    of every distance, so its gradient is exactly zero and it is left out.
    With W the identity, X holds projected rows and the losses are theirs."""
    P = X @ W.T
    B = P.shape[0] // 3
    slack, dp, dn = _slack(P[:B], P[B : 2 * B], P[2 * B :], margin)
    # d loss / d (q', k'_P, k'_N), with the zero subgradient on the flat side
    G = np.stack([dp - dn, -dp, dn]) * (2.0 * (slack > 0.0))[None, :, None]
    return np.maximum(slack, 0.0), G.reshape(3 * B, -1).T @ X


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
        q_rows, k_rows = ds.q_rows[pairs], ds.k_rows[pairs]
        # the triples of each batch form one run of ``pairs``
        starts = np.flatnonzero(np.diff(batches, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [pairs.size]):
            X = np.concatenate([ds.Q[q_rows[lo:hi]], ds.K[k_rows[lo:hi]], ds.K[negs[lo:hi]]])
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
