"""Exact alpha-entmax transformations and the sparse-consistency check.

alpha-entmax maps a score vector z to probabilities
``[(alpha - 1) z - tau(z)]_+ ** (1 / (alpha - 1))`` where tau normalizes the
result to the simplex.  alpha = 1 is softmax (dense), alpha = 2 is sparsemax,
and alpha = 1.5 has a fast exact sort-based solver; any other alpha >= 1 is
handled by bisection on tau.  Everything here is a pure function of its
inputs and safe to call concurrently.
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
    bisection_tol: float = 1e-9
    bisection_max_iter: int = 100

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.bisection_tol <= 0:
            raise ValueError("bisection_tol must be positive")
        if self.bisection_max_iter < 1:
            raise ValueError("bisection_max_iter must be >= 1")


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


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _sparsemax_core(z):
    """Exact sparsemax; returns (p, tau) with tau in the original domain."""
    zmax = z.max()
    s = z - zmax
    srt = np.sort(s)[::-1]
    k = np.arange(1, srt.size + 1, dtype=np.float64)
    csum = np.cumsum(srt)
    support = int(np.count_nonzero(1.0 + k * srt > csum))
    tau = (csum[support - 1] - 1.0) / support
    p = np.maximum(s - tau, 0.0)
    return p, tau + zmax


def _entmax_bisect_core(z, alpha, tol, max_iter):
    """General-alpha solver: bisection on tau over the bracket
    [max(s) - 1, max(s)] with s = (alpha - 1) z, where the normalization
    sum is guaranteed to cross 1.  Returns (p, tau) in the original domain.
    """
    zmax = z.max()
    s = (alpha - 1.0) * (z - zmax)
    power = 1.0 / (alpha - 1.0)
    lo = s.max() - 1.0
    hi = s.max()
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f = np.sum(np.maximum(s - mid, 0.0) ** power) - 1.0
        if abs(f) <= tol:
            lo = hi = mid
            break
        if f > 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    p = np.maximum(s - tau, 0.0) ** power
    return p, tau + (alpha - 1.0) * zmax


def _solve(z, params: EntmaxParams):
    """(p, tau) of alpha-entmax, tau in the original score domain.

    Dispatches to softmax (alpha=1, tau None), exact sparsemax (alpha=2),
    the exact sorted 1.5-entmax solver, or bisection for any other alpha.
    """
    a = params.alpha
    if a == 1.0:
        return _softmax(z), None
    if a == 1.5:
        return _kernels.entmax15_core(z)
    if a == 2.0:
        return _sparsemax_core(z)
    return _entmax_bisect_core(z, a, params.bisection_tol, params.bisection_max_iter)


def entmax(z, params: EntmaxParams = DEFAULT_PARAMS) -> np.ndarray:
    """alpha-entmax probabilities of a score vector."""
    return _solve(_as_scores(z), params)[0]


def entmax_tau(z, params: EntmaxParams = DEFAULT_PARAMS) -> float:
    """The threshold tau(z) with sum_j [(alpha-1) z_j - tau]_+^(1/(alpha-1)) = 1.

    Undefined for alpha = 1 (softmax has full support and no finite
    threshold), which raises ValueError.
    """
    z = _as_scores(z)
    if params.alpha == 1.0:
        raise ValueError("tau is undefined for alpha = 1 (softmax)")
    return float(_solve(z, params)[1])


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
    (empty on a healthy build).
    """
    params = EntmaxParams(alpha=alpha)
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        n = int(rng.integers(min_len, max_len + 1))
        z = rng.normal(0.0, np.sqrt(2.0), size=n)
        b = support(entmax(z, params))
        extra = ~b & (rng.random(n) < rng.random())
        mask = b | extra
        if not verify_sparse_consistency(z, mask, params):
            failures.append({"trial": trial, "n": n, "extra_bits": int(extra.sum())})
    return failures
