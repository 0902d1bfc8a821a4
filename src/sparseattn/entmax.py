"""Exact alpha-entmax transformations and the sparse-consistency check.

alpha-entmax maps a score vector z to probabilities
``[(alpha - 1) z - tau(z)]_+ ** (1 / (alpha - 1))`` where tau normalizes the
result to the simplex.  alpha = 1 is softmax (dense), alpha = 2 is sparsemax,
alpha = 1.5 and 2 have exact sort-based solvers, and any other alpha >= 1 is
handled by bisection on tau.  A vector is solved as a one-row block of
``_kernels.solve_rows``, the padded solver behind every attention path.
Everything here is a pure function of its inputs and safe to call
concurrently.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ContractViolation

# Entries above this count as support; exact solvers emit hard zeros but
# bisection can leave dust.
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class EntmaxParams:
    alpha: float = 1.5

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


DEFAULT_PARAMS = EntmaxParams()


def _as_scores(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"score vector must be 1-D, got shape {z.shape}")
    if z.size == 0:
        raise ValueError("score vector must be nonempty")
    if not np.all(np.isfinite(z)):
        raise ValueError("score vector must be finite (mask instead of using sentinels)")
    return z


def entmax(z, params: EntmaxParams = DEFAULT_PARAMS) -> np.ndarray:
    """alpha-entmax probabilities of a score vector."""
    return _kernels.solve_rows(_as_scores(z)[None, :], params.alpha)[0][0]


def entmax_tau(z, params: EntmaxParams = DEFAULT_PARAMS) -> float:
    """The threshold tau(z) with sum_j [(alpha-1) z_j - tau]_+^(1/(alpha-1)) = 1.

    Undefined for alpha = 1 (softmax has full support and no finite
    threshold), which raises ValueError.
    """
    z = _as_scores(z)
    if params.alpha == 1.0:
        raise ValueError("tau is undefined for alpha = 1 (softmax)")
    return float(_kernels.solve_rows(z[None, :], params.alpha)[1][0])


def _as_mask(mask, n) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"mask length {mask.shape} does not match scores ({n},)")
    return mask


def masked_entmax(z, mask, params: EntmaxParams = DEFAULT_PARAMS) -> np.ndarray:
    """entmax of z restricted to mask-true positions.

    Equivalent to entmax of z with -inf at masked-out positions; those
    positions get probability exactly 0.
    """
    z = _as_scores(z)
    mask = _as_mask(mask, z.size)
    if not mask.any():
        raise ValueError("mask must select at least one position")
    p = np.zeros_like(z)
    idx = np.flatnonzero(mask)
    p[idx] = entmax(z[idx], params)
    return p


def support(p, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Boolean support indicator of a probability vector."""
    return np.asarray(p) > tol


def verify_sparse_consistency(z, mask, params: EntmaxParams = DEFAULT_PARAMS) -> bool:
    """Check that masking out off-support positions leaves entmax unchanged.

    The mask must dominate the support of entmax(z); that precondition is
    the caller's responsibility and violating it raises ContractViolation.
    Under the precondition the result is exactly equal (a theorem, not an
    approximation), so returning False signals a real defect.
    """
    z = _as_scores(z)
    mask = _as_mask(mask, z.size)
    p_full = entmax(z, params)
    b = support(p_full)
    if np.any(b & ~mask):
        raise ContractViolation("mask does not dominate the entmax support")
    p_masked = masked_entmax(z, mask, params)
    return bool(np.max(np.abs(p_masked - p_full)) <= 1e-9)


def audit_sparse_consistency(
    trials: int = 1000,
    seed: int = 0,
    alpha: float = 1.5,
    min_len: int = 2,
    max_len: int = 64,
):
    """Random audit of the sparse-consistency property.

    Draws ``trials`` random score vectors, builds a random mask dominating
    each support, and records every (seedable) case where the masked and
    unmasked outputs disagree beyond 1e-9.  Returns the list of failures
    (empty on a healthy build).  Each trial draws its length, scores and
    mask bits in turn; the vectors are solved together as rows padded with
    -inf, in blocks of at most ``_kernels._BATCH_CELLS`` cells.
    """
    alpha = EntmaxParams(alpha=alpha).alpha
    rng = np.random.default_rng(seed)
    failures = []
    step = max(1, _kernels._BATCH_CELLS // max_len)
    for first in range(0, trials, step):
        Z = np.full((min(step, trials - first), max_len), -np.inf)
        bits = np.zeros(Z.shape, dtype=bool)
        for z, bit in zip(Z, bits):
            n = int(rng.integers(min_len, max_len + 1))
            z[:n] = rng.normal(0.0, np.sqrt(2.0), size=n)
            bit[:n] = rng.random(n) < rng.random()
        p_full = _kernels.solve_rows(Z, alpha)[0]
        b = support(p_full)
        extra = ~b & bits
        p_masked = _kernels.solve_rows(np.where(b | extra, Z, -np.inf), alpha)[0]
        for t in np.flatnonzero(np.max(np.abs(p_masked - p_full), axis=1) > 1e-9):
            n = int(np.isfinite(Z[t]).sum())
            failures.append({"trial": first + int(t), "n": n, "extra_bits": int(extra[t].sum())})
    return failures
