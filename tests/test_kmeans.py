from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kmeans_lloyd
from sparseattn import (Centroids, KMeansConfig, _kernels, kmeans, kmeans_fit, load_centroids,
                        save_centroids)
from sparseattn.kmeans import assign_topk_membership


def stable_sort_membership(D, k):
    """Each row's first k cells in a stable sort of its distances."""
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    member = np.zeros(D.shape, dtype=bool)
    member[np.repeat(np.arange(D.shape[0]), k), order.ravel()] = True
    return member


@st.composite
def point_sets(draw):
    """(X, B): few distinct rows, often repeated (empty clusters to re-seed),
    either rounded (distances exactly 0 on a center) or not (distances to a
    center a few ulps either side of 0, clamped)."""
    r = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(distinct, r)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    if draw(st.booleans()):
        rows = np.round(rows)
    X = rows[rng.integers(distinct, size=draw(st.integers(distinct, 40)))]
    B = draw(st.integers(1, X.shape[0]))
    return X, B


class TestKMeansFit:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(1)
        left = rng.normal([-5.0, 0.0], 0.4, (60, 2))
        right = rng.normal([5.0, 0.0], 0.4, (60, 2))
        X = np.vstack([left, right])
        c = kmeans_fit(X, 2, KMeansConfig(seed=1))
        got = c.C[np.argsort(c.C[:, 0])]
        for blob, center in zip((left, right), got):
            se = blob.std(axis=0, ddof=1) / np.sqrt(len(blob))
            assert np.all(np.abs(center - blob.mean(axis=0)) <= 3 * se)

    def test_b_equals_n_zero_inertia(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        c = kmeans_fit(X, 6, KMeansConfig(seed=2))
        # every point is its own centroid
        sorted_c = c.C[np.lexsort(c.C.T)]
        sorted_x = X[np.lexsort(X.T)]
        np.testing.assert_allclose(sorted_c, sorted_x, atol=1e-12)

    def test_single_centroid_is_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        c = kmeans_fit(X, 1, KMeansConfig(seed=3))
        np.testing.assert_allclose(c.C[0], X.mean(axis=0), atol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((2, 3)), 5)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        a = kmeans_fit(X, 4, KMeansConfig(seed=9))
        b = kmeans_fit(X, 4, KMeansConfig(seed=9))
        assert np.array_equal(a.C, b.C)

    def test_duplicate_points_ok(self):
        X = np.tile(np.array([[1.0, 1.0], [2.0, 2.0]]), (5, 1))
        c = kmeans_fit(X, 2, KMeansConfig(seed=5))
        assert c.B == 2
        assert np.all(np.isfinite(c.C))


class TestKMeansOracle:
    """``kmeans_fit`` against ``oracles.kmeans_lloyd``, bit for bit, and
    one ``kmeans_assign`` call per Lloyd step plus one per restart (the
    count the benchmark's trace reads its Lloyd steps from)."""

    @settings(max_examples=150, deadline=None)
    @given(point_sets(), st.sampled_from([1, 3]), st.sampled_from([1, 2, 300]),
           st.integers(0, 3))
    def test_centroids_bit_equal_to_oracle(self, data, n_init, max_iter, seed):
        X, B = data
        got = kmeans_fit(X, B, KMeansConfig(n_init=n_init, max_iter=max_iter, seed=seed)).C
        assert np.array_equal(got, kmeans_lloyd(X, B, n_init, max_iter, seed)[0])

    @pytest.mark.parametrize("B", [1, 2, 8, 30])
    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_edge_shapes_bit_equal_to_oracle(self, B, max_iter):
        rng = np.random.default_rng(B)
        X = rng.normal(size=(30, 3))
        for pts in (X, np.round(X), np.tile(X[:5], (6, 1))):
            got = kmeans_fit(pts, B, KMeansConfig(n_init=3, max_iter=max_iter, seed=B)).C
            assert np.array_equal(got, kmeans_lloyd(pts, B, 3, max_iter, B)[0])

    def test_empty_clusters_reseeded_like_the_oracle(self):
        # 3 distinct points for 5 centers: k-means++ draws repeats, and a
        # repeated center loses its points to the lower index
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]), 4, axis=0)
        for seed in range(6):
            got = kmeans_fit(X, 5, KMeansConfig(n_init=2, seed=seed)).C
            assert np.array_equal(got, kmeans_lloyd(X, 5, 2, 300, seed)[0])

    @settings(max_examples=40, deadline=None)
    @given(point_sets(), st.sampled_from([1, 3]), st.sampled_from([1, 2, 300]))
    def test_one_assign_call_per_step_and_restart(self, data, n_init, max_iter):
        X, B = data
        calls, starts = [], []
        assign, lloyd = _kernels.kmeans_assign, kmeans._lloyd

        def counted_assign(*args):
            calls.append(1)
            return assign(*args)

        def marked_lloyd(*args):
            starts.append(len(calls))
            return lloyd(*args)

        with mock.patch.object(_kernels, "kmeans_assign", counted_assign), \
                mock.patch.object(kmeans, "_lloyd", marked_lloyd):
            kmeans_fit(X, B, KMeansConfig(n_init=n_init, max_iter=max_iter, seed=1))
        per_restart = np.diff(starts + [len(calls)]).tolist()
        steps = kmeans_lloyd(X, B, n_init, max_iter, 1)[1]
        assert per_restart == [s + 1 for s in steps]


class TestClusterAssign:
    """``assign_topk_membership``: each row's k closest centroids."""

    def test_all_buckets_at_k_equals_b(self):
        rng = np.random.default_rng(6)
        c = Centroids(rng.normal(size=(5, 3)))
        assert assign_topk_membership(rng.normal(size=(4, 3)), c, 5).all()

    def test_exact_centroid_hit(self):
        c = Centroids(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]))
        member = assign_topk_membership(np.array([[0.0, 5.0]]), c, 1)
        np.testing.assert_array_equal(member, [[False, False, True, False]])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        c = Centroids(rng.normal(size=(8, 4)))
        X = rng.normal(size=(20, 4))
        for k in (1, 3, 8):
            member = assign_topk_membership(X, c, k)
            for x, row in zip(X, member):
                d = np.sum((c.C - x) ** 2, axis=1)
                expected = np.sort(np.argsort(d, kind="stable")[:k])
                np.testing.assert_array_equal(np.flatnonzero(row), expected)

    def test_ties_break_to_lower_index(self):
        c = Centroids(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        member = assign_topk_membership(np.zeros((2, 2)), c, 2)
        np.testing.assert_array_equal(member, [[True, True, False, False]] * 2)

    def test_tie_at_the_kth_distance_takes_the_lower_index(self):
        # distances 4, 1, 4, 100: nearest 1, then 0 and 2 tie
        c = Centroids(np.array([[0.0, 2.0], [0.0, 1.0], [2.0, 0.0], [10.0, 0.0]]))
        X = np.zeros((1, 2))
        np.testing.assert_array_equal(assign_topk_membership(X, c, 2), [[True, True, False, False]])
        np.testing.assert_array_equal(assign_topk_membership(X, c, 3), [[True, True, True, False]])
        # distances 181, 9, 9, 0: nearest 3, then 1 and 2 tie
        c = Centroids(np.array([[0.0, 9.0], [10.0, 3.0], [13.0, 0.0], [10.0, 0.0]]))
        X = np.array([[10.0, 0.0]])
        np.testing.assert_array_equal(assign_topk_membership(X, c, 2), [[False, True, False, True]])
        np.testing.assert_array_equal(assign_topk_membership(X, c, 3), [[False, True, True, True]])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 2**32 - 1), st.data())
    def test_tie_heavy_rows_match_stable_sort(self, N, B, seed, data):
        rng = np.random.default_rng(seed)
        C = np.round(rng.normal(size=(B, 2)))
        X = np.round(rng.normal(size=(N, 2)))
        k = data.draw(st.integers(1, B))
        np.testing.assert_array_equal(assign_topk_membership(X, Centroids(C), k),
                                      stable_sort_membership(_kernels.pairwise_sqdist(X, C), k))

    def test_overflowing_distances_order_as_stable_sort(self):
        # inf and nan distances: nan sorts last, equal infs by index
        c = Centroids(np.array([[1.0, 0.0], [-1e200, 0.0], [0.0, 1.0], [1e200, 1e200]]))
        X = np.array([[1e200, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            D = _kernels.pairwise_sqdist(X, c.C)
            assert not np.isfinite(D).all()
            for k in range(1, 5):
                np.testing.assert_array_equal(assign_topk_membership(X, c, k),
                                              stable_sort_membership(D, k))

    def test_k_out_of_range(self):
        c = Centroids(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            assign_topk_membership(np.zeros((1, 2)), c, 4)
        with pytest.raises(ValueError):
            assign_topk_membership(np.zeros((1, 2)), c, 0)

    def test_topk_sets_nested_in_k(self):
        rng = np.random.default_rng(8)
        c = Centroids(rng.normal(size=(6, 3)))
        X = rng.normal(size=(20, 3))
        prev = np.zeros((20, 6), dtype=bool)
        for k in range(1, 7):
            cur = assign_topk_membership(X, c, k)
            assert not np.any(prev & ~cur)
            np.testing.assert_array_equal(cur.sum(axis=1), k)
            prev = cur

    def test_membership_matrix_agrees(self):
        # a batch call equals one call per row
        rng = np.random.default_rng(9)
        c = Centroids(rng.normal(size=(5, 3)))
        X = rng.normal(size=(10, 3))
        member = assign_topk_membership(X, c, 2)
        for i in range(10):
            np.testing.assert_array_equal(member[i], assign_topk_membership(X[i : i + 1], c, 2)[0])


class TestCentroidFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        c = Centroids(rng.normal(size=(5, 3)) * np.exp(rng.uniform(-30, 30, (5, 3))))
        path = tmp_path / "c.txt"
        save_centroids(c, path)
        assert np.array_equal(load_centroids(path).C, c.C)
        assert path.read_text().splitlines()[0] == "5 3"  # 'B r'
