"""Exact alpha-entmax transformations.

alpha-entmax maps a score vector z to probabilities
``[(alpha - 1) z - tau(z)]_+ ** (1 / (alpha - 1))`` where tau normalizes the
result to the simplex.  alpha = 1 is softmax (dense), alpha = 2 is sparsemax,
alpha = 1.5 and 2 have exact sort-based solvers, and any other alpha > 1 is
solved exactly by Newton's method.  A vector is solved as a one-row block of
``_kernels.solve_rows``, the padded solver behind every attention path;
``blocks.audit_sparse_attention`` checks the sparse-consistency property on
every path that solves rows.  Everything here is a pure function of its
inputs and safe to call concurrently.
"""

import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels

# Entries above this count as support.  Every solver gives exact zeros
# outside the support, so the floor only drops support entries at or below
# it (ROADMAP item 2).
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class EntmaxParams:
    alpha: float = 1.5

    def __post_init__(self):
        if not 1.0 <= self.alpha <= sys.float_info.max:  # also false for nan
            raise ValueError(f"alpha must be a finite number >= 1, got {self.alpha}")


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
