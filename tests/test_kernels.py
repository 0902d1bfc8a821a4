"""The entmax kernels against per-row oracles, at every alpha.

``solve_rows`` is the one solver behind every path, so each batched row is
checked against an oracle for its alpha: the scalar-loop sort formulas at
alpha 1.5 and 2 (``np.array_equal``), a one-row ``entmax`` call and
``oracles.entmax_bisect`` for the bisection alphas, and ``oracles.softmax``
at alpha 1.  Row lengths of 2**k and 2**k + 1 sit on the edges of the
padded width groups; a patched ``_BATCH_CELLS`` puts chunk boundaries
inside small inputs, and a few inputs exceed the real cap.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseattn
from oracles import entmax15_sort, entmax_bisect, softmax, sparsemax_sort
from sparseattn import EntmaxParams, _kernels, entmax

SETTINGS = settings(max_examples=80, deadline=None)
EDGE_LENGTHS = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]
CAPS = [1, 2, 5, 64, _kernels._BATCH_CELLS]
ALPHAS = [1.0, 1.25, 1.5, 2.0, 3.0]


def _assert_row(p, z, alpha):
    """p, a kernel's probabilities for the scores z, against alpha's oracle."""
    if alpha == 1.5:
        assert np.array_equal(p, entmax15_sort(z)[0])
    elif alpha == 2.0:
        assert np.array_equal(p, sparsemax_sort(z)[0])
    elif alpha == 1.0:  # a padded row groups its sum differently
        q = softmax(z)
        assert np.all(np.abs(p - q) <= 1e-15 * q)
    else:
        assert np.array_equal(p, entmax(z, EntmaxParams(alpha=alpha)))
        # a stopped bisection is off by at most its 1e-9 sum tolerance
        assert np.max(np.abs(p - entmax_bisect(z, alpha=alpha, tol=0.0)[0])) <= 1e-9


def test_backend_is_numpy():
    assert sparseattn.backend() == "numpy"


def test_entmax15_handles_empty_rows():
    Z = np.zeros((3, 4))
    valid = np.zeros((3, 4), dtype=bool)
    valid[0] = True
    for alpha in ALPHAS:
        with np.errstate(divide="raise", invalid="raise"):
            P = _kernels.entmax15_masked_rows(Z, valid, alpha)
            S = np.full((2, 4), -np.inf)
            S[0, 1] = 0.5
            P2 = _kernels.solve_rows(S, alpha)[0]
        assert P[0].sum() == pytest.approx(1.0)
        assert not P[1:].any()
        np.testing.assert_allclose(P2[0], [0.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-9)
        assert not P2[0, [0, 2, 3]].any() and not P2[1].any()


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


def _assert_csr(vals, Q, K, indptr, cols, scale, alpha):
    for i in range(Q.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            _assert_row(vals[lo:hi], (K[cols[lo:hi]] @ Q[i]) * scale, alpha)


def _assert_masked(P, Z, valid, alpha):
    assert not P[~valid].any()
    for i in range(Z.shape[0]):
        idx = np.flatnonzero(valid[i])
        if idx.size:
            _assert_row(P[i, idx], Z[i, idx], alpha)


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
    for alpha in ALPHAS:
        with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
            got = _kernels.sparse_rows_entmax15(Q, K, indptr, cols, 0.5, alpha)
        _assert_csr(got, Q, K, indptr, cols, 0.5, alpha)


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
    for alpha in ALPHAS:
        got = _kernels.sparse_rows_entmax15(Q, K, indptr, cols, 0.25, alpha)
        _assert_csr(got, Q, K, indptr, cols, 0.25, alpha)


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
    for alpha in ALPHAS:
        with mock.patch.object(_kernels, "_BATCH_CELLS", cap):
            got = _kernels.entmax15_masked_rows(Z, valid, alpha)
        _assert_masked(got, Z, valid, alpha)


@pytest.mark.parametrize("causal", [False, True])
def test_masked_rows_match_oracle_beyond_batch_cap(causal):
    rng = np.random.default_rng(8)
    n = 300
    Z = rng.normal(size=(n, n)) * 2.0
    valid = np.tri(n, dtype=bool) if causal else np.ones((n, n), dtype=bool)
    assert n * n > _kernels._BATCH_CELLS
    for alpha in ALPHAS:
        _assert_masked(_kernels.entmax15_masked_rows(Z, valid, alpha), Z, valid, alpha)


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
    p, tau = entmax(z), _kernels.solve_rows(z[None, :], 1.5)[1][0]
    p_ref, tau_ref = entmax15_sort(z)
    assert np.array_equal(p, p_ref)
    assert tau == tau_ref
    p_bis, tau_bis = entmax_bisect(z, alpha=1.5)
    np.testing.assert_allclose(p, p_bis, rtol=0, atol=1e-9)
    assert abs(tau - tau_bis) <= 1e-9


def _whole_row_solve(S):
    """alpha-1.5 ``solve_rows`` with every row sorted and solved whole."""
    with mock.patch.object(_kernels, "_PREFIX", 10**9):
        return _kernels.solve_rows(S, 1.5)


def _assert_prefix_solve_exact(S):
    P, tau = _kernels.solve_rows(S, 1.5)
    P_ref, tau_ref = _whole_row_solve(S)
    assert np.array_equal(P, P_ref)
    real = (S > -np.inf).any(axis=1)  # an all-padding row's tau is undefined
    assert np.array_equal(tau[real], tau_ref[real])
    return P


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    width=st.one_of(st.integers(1, 600), st.sampled_from([31, 32, 33, 34, 64, 65])),
    kind=st.sampled_from(["normal", "ties", "padded", "near-constant"]),
    spread=st.floats(0.01, 20.0),
    empty=st.lists(st.integers(0, 11), max_size=3),
)
def test_prefix_solve_is_bit_equal_to_whole_row_solve(seed, rows, width, kind, spread, empty):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(rows, width)) * spread
    if kind == "ties":
        S = np.round(S)
    elif kind == "padded":
        S[rng.random(S.shape) < rng.random((rows, 1))] = -np.inf
    elif kind == "near-constant":
        S = 1.0 + S * 1e-4
    S[[i for i in empty if i < rows]] = -np.inf
    P = _assert_prefix_solve_exact(S)
    if kind == "near-constant" and width > 64:
        # a support of 32 cells or more: these rows took the whole-row solve
        assert np.all(np.count_nonzero(P, axis=1)[~np.isinf(S).all(axis=1)] >= 32)


@pytest.mark.parametrize("width", [34, 100, 600])
def test_prefix_solve_with_cells_tied_at_the_threshold(width):
    # s = z / 2 = [0, -1, -1, ...]: tau = -1 for every k in exact arithmetic,
    # so the support test holds with equality, and rounding decides it
    z = np.full((1, width), -2.0)
    z[0, 0] = 0.0
    P = _assert_prefix_solve_exact(z)
    np.testing.assert_allclose(P, np.eye(1, width), rtol=0, atol=1e-12)


def test_prefix_solve_rows_of_32_cells_or_fewer():
    rng = np.random.default_rng(11)
    for width in range(1, 34):
        S = rng.normal(size=(20, width)) * 3.0
        S[::3, ::2] = -np.inf
        S[5] = -np.inf
        _assert_prefix_solve_exact(S)


@pytest.mark.parametrize("n, m", [(1, 1), (2048, 1), (128, 128), (2048, 32)])
def test_pairwise_sqdist_is_the_one_shot_formula(n, m):
    """``pairwise_sqdist`` (through ``sqdist_into``) is bit-equal to the
    one-shot expression, with rows equal to centroids (distances at 0,
    clamped) and rounded rows among them."""
    rng = np.random.default_rng(n + m)
    B = rng.normal(size=(m, 4))
    A = rng.normal(size=(n, 4)) * 3.0
    A[::3] = B[rng.integers(m, size=A[::3].shape[0])]
    A[1::7] = np.round(A[1::7])
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    expected = np.maximum(a2[:, None] + b2[None, :] - 2.0 * (A @ B.T), 0.0)
    assert np.array_equal(_kernels.pairwise_sqdist(A, B), expected)
    D, G = np.empty((n, m)), np.empty((n, m))
    unclamped = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    assert np.array_equal(_kernels.sqdist_into(A, a2, B, D, G), unclamped)


def test_kmeans_assign_folds_the_clamp_into_the_argmin():
    """Labels and inertia equal the argmin and sum of the clamped distances.
    Centroid 5 is an ulp from centroid 2, so a point on either has
    distances a few ulps either side of 0 in both columns, and on some
    rows the unclamped argmin would take the later column."""
    folded = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(8, 3)) * 7.0
        C[5] = np.nextafter(C[2], np.inf)
        X = np.vstack([rng.normal(size=(200, 3)) * 7.0, C[rng.integers(8, size=300)]])
        x2 = np.sum(X * X, axis=1)
        D = _kernels.pairwise_sqdist(X, C)
        expected = np.argmin(D, axis=1)
        U, G = np.empty((500, 8)), np.empty((500, 8))
        labels, inertia = _kernels.kmeans_assign(X, C, x2, U, G)
        assert np.array_equal(labels, expected)
        assert inertia == float(D[np.arange(500), expected].sum())
        folded += np.count_nonzero(np.argmin(U, axis=1) != expected)
    assert folded > 0
