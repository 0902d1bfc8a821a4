"""The 1.5-entmax kernels against a per-row, sort-based oracle.

Both batched kernels must reproduce the per-row solver bit for bit, so the
checks use ``np.array_equal``.  Row lengths of 2**k and 2**k + 1 sit on the
edges of the padded width groups; a patched ``_BATCH_CELLS`` puts chunk
boundaries inside small inputs, and a few inputs exceed the real cap.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseattn
from oracles import entmax15_sort, entmax_bisect
from sparseattn import _kernels

SETTINGS = settings(max_examples=80, deadline=None)
EDGE_LENGTHS = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]
CAPS = [1, 2, 5, 64, _kernels._BATCH_CELLS]


def test_backend_is_numpy():
    assert sparseattn.backend() == "numpy"


def test_entmax15_handles_empty_rows():
    Z = np.zeros((3, 4))
    valid = np.zeros((3, 4), dtype=bool)
    valid[0] = True
    P = _kernels.entmax15_masked_rows(Z, valid)
    assert P[0].sum() == pytest.approx(1.0)
    assert not P[1:].any()


def _qk(rng, n, m, d, ties):
    Q, K = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    if ties:  # small integers: many exactly equal scores
        Q, K = np.round(Q), np.round(K)
    return Q, K


def _csr(rng, m, lens):
    indptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    cols = [np.sort(rng.choice(m, size=L, replace=False)) for L in lens]
    return indptr, np.concatenate(cols + [np.zeros(0)]).astype(np.int64)


def _csr_oracle(Q, K, indptr, cols, scale):
    vals = np.zeros(cols.size)
    for i in range(Q.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            vals[lo:hi] = entmax15_sort((K[cols[lo:hi]] @ Q[i]) * scale)[0]
    return vals


def _masked_oracle(Z, valid):
    P = np.zeros(Z.shape)
    for i in range(Z.shape[0]):
        idx = np.flatnonzero(valid[i])
        if idx.size:
            P[i, idx] = entmax15_sort(Z[i, idx])[0]
    return P


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 70),
    lens=st.lists(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 70)),
                  min_size=1, max_size=30),
    ties=st.booleans(),
    cap=st.sampled_from(CAPS),
)
def test_sparse_rows_match_oracle(seed, m, lens, ties, cap):
    rng = np.random.default_rng(seed)
    lens = [min(L, m) for L in lens]
    Q, K = _qk(rng, len(lens), m, 6, ties)
    indptr, cols = _csr(rng, m, lens)
    with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
        got = _kernels.sparse_rows_entmax15(Q, K, indptr, cols, 0.5)
    assert np.array_equal(got, _csr_oracle(Q, K, indptr, cols, 0.5))


@pytest.mark.parametrize("ties", [False, True])
def test_sparse_rows_match_oracle_beyond_batch_cap(ties):
    rng = np.random.default_rng(7)
    m = 600
    lens = np.concatenate([rng.integers(0, m + 1, 400), [0, 1, 2, 127, 128, 129, 256, 257, m]])
    assert lens.sum() > _kernels._BATCH_CELLS
    width_512 = np.count_nonzero((lens > 256) & (lens <= 512))
    assert width_512 * 512 > _kernels._BATCH_CELLS  # this group needs two batches
    Q, K = _qk(rng, lens.size, m, 16, ties)
    indptr, cols = _csr(rng, m, lens)
    got = _kernels.sparse_rows_entmax15(Q, K, indptr, cols, 0.25)
    assert np.array_equal(got, _csr_oracle(Q, K, indptr, cols, 0.25))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    kind=st.sampled_from(["causal", "random", "full"]),
    empty=st.lists(st.integers(0, 39), max_size=5),
    ties=st.booleans(),
    cap=st.sampled_from(CAPS),
)
def test_masked_rows_match_oracle(seed, n, m, kind, empty, ties, cap):
    rng = np.random.default_rng(seed)
    Q, K = _qk(rng, n, m, 6, ties)
    Z = Q @ K.T
    if kind == "causal":
        valid = np.tri(n, m, dtype=bool)
    elif kind == "random":
        valid = rng.random((n, m)) < rng.random((n, 1))
    else:
        valid = np.ones((n, m), dtype=bool)
    valid[[i for i in empty if i < n]] = False
    with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
        got = _kernels.entmax15_masked_rows(Z, valid)
    assert np.array_equal(got, _masked_oracle(Z, valid))


@pytest.mark.parametrize("causal", [False, True])
def test_masked_rows_match_oracle_beyond_batch_cap(causal):
    rng = np.random.default_rng(8)
    n = 300
    Z = rng.normal(size=(n, n)) * 2.0
    valid = np.tri(n, dtype=bool) if causal else np.ones((n, n), dtype=bool)
    assert n * n > _kernels._BATCH_CELLS
    assert np.array_equal(_kernels.entmax15_masked_rows(Z, valid), _masked_oracle(Z, valid))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from(EDGE_LENGTHS[1:] + [100]),
    spread=st.floats(0.05, 20.0),
    ties=st.booleans(),
)
def test_entmax15_core_matches_oracles(seed, size, spread, ties):
    z = np.random.default_rng(seed).normal(size=size) * spread
    if ties:
        z = np.round(z)
    p, tau = _kernels.entmax15_core(z)
    p_ref, tau_ref = entmax15_sort(z)
    assert np.array_equal(p, p_ref)
    assert tau == tau_ref
    p_bis, tau_bis = entmax_bisect(z, alpha=1.5)
    np.testing.assert_allclose(p, p_bis, rtol=0, atol=1e-9)
    assert abs(tau - tau_bis) <= 1e-9
