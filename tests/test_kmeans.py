import numpy as np
import pytest

from sparseattn import Centroids, KMeansConfig, kmeans_fit, load_centroids, save_centroids
from sparseattn.kmeans import assign_topk_membership


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
