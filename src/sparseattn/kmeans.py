"""Lloyd's k-means with k-means++ seeding, restarts, and deterministic ties.

Fitted centroids double as bucket centers for the clustering predictor:
queries and keys are assigned to their k closest centroids (never left
unassigned), with distance ties broken toward the lower centroid index.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._textio import read_rows, write_rows
from .errors import DataError


@dataclass(frozen=True)
class KMeansConfig:
    n_init: int = 10
    max_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.n_init < 1 or self.max_iter < 1:
            raise ValueError("n_init and max_iter must be >= 1")


@dataclass(frozen=True)
class Centroids:
    C: np.ndarray

    def __post_init__(self):
        C = np.array(self.C, dtype=np.float64)
        if C.ndim != 2 or min(C.shape) < 1:
            raise ValueError("centroids must form a (B, r) matrix with B, r >= 1")
        if not np.all(np.isfinite(C)):
            raise ValueError("centroids must be finite")
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def B(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.C.shape[1]


def _kmeanspp_seed(X, x2, B, rng):
    """k-means++: each next center is a point drawn with probability
    proportional to its squared distance to the closest center so far.
    One pair of (N, 1) arrays holds each new center's distances."""
    N = X.shape[0]
    centers = np.empty((B, X.shape[1]))
    D, G = np.empty((N, 1)), np.empty((N, 1))
    d_new = D.ravel()

    def distances_to(b):
        _kernels.sqdist_into(X, x2, centers[b : b + 1], D, G)
        return np.maximum(d_new, 0.0, out=d_new)

    centers[0] = X[rng.integers(N)]
    closest = distances_to(0).copy()
    for b in range(1, B):
        total = closest.sum()
        if total <= 0.0:
            # all points coincide with chosen centers; any choice is optimal
            centers[b] = X[rng.integers(N)]
            continue
        probs = closest / total
        centers[b] = X[rng.choice(N, p=probs)]
        np.minimum(closest, distances_to(b), out=closest)
    return centers


def _lloyd(X, x2, cols, centers, max_iter):
    """Lloyd iterations from ``centers`` (updated in place) until the
    assignment stops changing, then one final assignment.  ``x2`` holds the
    points' squared norms and ``cols`` the columns of X, contiguous, for
    the per-cluster sums; the (N, B) distance and scratch arrays are
    allocated once and reused by every step."""
    N = X.shape[0]
    B = centers.shape[0]
    D, G = np.empty((N, B)), np.empty((N, B))
    sums = np.empty_like(centers)
    labels = np.full(N, -1, dtype=np.int64)
    for _ in range(max_iter):
        new_labels, _ = _kernels.kmeans_assign(X, centers, x2, D, G)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=B)
        # point by point in index order from 0.0, as np.add.at would add them
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(labels, weights=col, minlength=B)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # re-seed each empty cluster at the point farthest from its center
            dists = _kernels.pairwise_sqdist(X, centers)
            own = dists[np.arange(N), labels]
            for b in np.flatnonzero(~nonempty):
                far = int(np.argmax(own))
                centers[b] = X[far]
                own[far] = -1.0
    labels, inertia = _kernels.kmeans_assign(X, centers, x2, D, G)
    return centers, labels, inertia


def kmeans_fit(X, B: int, cfg: KMeansConfig = KMeansConfig()) -> Centroids:
    """Fit B centroids: k-means++ init, up to cfg.n_init restarts keeping the
    lowest inertia, at most cfg.max_iter Lloyd iterations per restart,
    stopping when assignments stabilize.  Deterministic per cfg.seed.

    The points' squared norms and a column-contiguous copy of X are made
    once per fit and shared by every restart.  Each restart runs on its
    own, all of X against its B centers, so every distance has the bits
    of the one-shot formula.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be an (N, r) matrix")
    if B < 1:
        raise ValueError("B must be >= 1")
    if X.shape[0] < B:
        raise ValueError(f"need at least B={B} points, got {X.shape[0]}")
    x2 = np.sum(X * X, axis=1)
    cols = X.T.copy()
    best = None
    best_inertia = np.inf
    for init in range(cfg.n_init):
        rng = np.random.default_rng((cfg.seed, init))
        centers = _kmeanspp_seed(X, x2, B, rng)
        centers, _, inertia = _lloyd(X, x2, cols, centers, cfg.max_iter)
        if inertia < best_inertia:
            best_inertia = inertia
            best = centers
    return Centroids(best)


def assign_topk_membership(X, centroids: Centroids, k: int) -> np.ndarray:
    """Boolean (N, B) membership matrix of each row's k closest centroids.

    Ties in distance go to the lower centroid index.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if not 1 <= k <= centroids.B:
        raise ValueError(f"k must be in [1, {centroids.B}], got {k}")
    D = _kernels.pairwise_sqdist(X, centroids.C)
    N = X.shape[0]
    member = np.zeros((N, centroids.B), dtype=bool)
    rows = np.arange(N)
    if not np.isfinite(D).all():  # an inf or nan distance: sort as the definition does
        order = np.argsort(D, axis=1, kind="stable")
        member[np.repeat(rows, k), order[:, :k].ravel()] = True
        return member
    # every distance finite: k passes of argmin, each masking the cell it
    # took, take the lowest index among the row's smallest remaining
    # distances, the order of a stable sort
    for _ in range(k):
        j = np.argmin(D, axis=1)
        member[rows, j] = True
        D[rows, j] = np.inf
    return member


def save_centroids(c: Centroids, path):
    """Centroid checkpoint: header ``B r`` then B rows of r floats."""
    write_rows(path, (c.B, c.r), c.C)


def load_centroids(path) -> Centroids:
    _, C = read_rows(path, ("B", "r"), lambda B, r: (B, r))
    try:
        return Centroids(C)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
