import numpy as np
import pytest

from sparseattn import (
    AttentionGraph,
    Centroids,
    KMeansConfig,
    PatternConfig,
    assign_with_boundaries,
    bigbird_random_blocks,
    bin_boundaries,
    buckets_to_graph,
    cluster_qk,
    combine_with_patterns,
    distance_pairing,
    kmeans_fit,
    lsh_assign,
    quantize_assign,
    quantize_qk,
    recall,
    routing_assign,
    window_global_graph,
)

from oracles import bucket_intersection_edges


class TestDistancePairing:
    def test_zero_threshold_generic_points(self):
        rng = np.random.default_rng(1)
        Qp = rng.normal(size=(6, 2))
        Kp = rng.normal(size=(6, 2))
        assert distance_pairing(Qp, Kp, 0.0).edge_count == 0
        # exactly coincident pair survives t = 0
        Kp2 = Kp.copy()
        Kp2[3] = Qp[2]
        assert (2, 3) in distance_pairing(Qp, Kp2, 0.0).edge_set()

    def test_large_threshold_complete(self):
        rng = np.random.default_rng(2)
        Qp = rng.normal(size=(5, 3))
        Kp = rng.normal(size=(7, 3))
        dmax = np.sqrt(((Qp[:, None] - Kp[None]) ** 2).sum(-1)).max()
        g = distance_pairing(Qp, Kp, dmax * (1 + 1e-9))
        assert g.edge_count == 35
        gold = AttentionGraph(5, 7, [(0, 6), (4, 0)])
        assert recall(g, gold) == 1.0

    def test_line_geometry(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = distance_pairing(pts, pts, 1.0)
        assert g.edge_set() == {(i, j) for i in range(3) for j in range(3) if abs(i - j) <= 1}
        assert g.edge_count == 7

    def test_monotone_in_t(self):
        rng = np.random.default_rng(3)
        Qp = rng.normal(size=(8, 2))
        Kp = rng.normal(size=(8, 2))
        prev = set()
        for t in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
            cur = distance_pairing(Qp, Kp, t).edge_set()
            assert prev <= cur
            prev = cur

    def test_causal_filter(self):
        pts = np.zeros((4, 1))
        g = distance_pairing(pts, pts, 1.0, causal=True)
        assert g.causal
        assert all(j <= i for i, j in g.edge_set())
        assert g.edge_count == 10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            distance_pairing(np.zeros((2, 1)), np.zeros((2, 1)), -0.1)


class TestQuantization:
    def test_beta_one_complete_graph(self):
        rng = np.random.default_rng(4)
        qa, ka = quantize_qk(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)), 1)
        assert buckets_to_graph(qa, ka).edge_count == 30

    def test_balanced_split_example(self):
        qa = quantize_assign(np.array([[0.1], [0.2], [0.9], [1.0]]), 2)
        assert qa.token_buckets() == [(1,), (1,), (2,), (2,)]

    def test_bin_sizes_exact_and_remainder(self):
        rng = np.random.default_rng(5)
        for N, beta in ((16, 4), (10, 4), (7, 3)):
            X = rng.normal(size=(N, 4))
            member = quantize_assign(X, beta).membership
            size = -(-N // beta)
            for rho in range(4):
                counts = member[:, rho * beta : (rho + 1) * beta].sum(axis=0)
                nonzero = counts[counts > 0]
                assert nonzero.sum() == N
                allowed = {size, N - size * (N // size)} if N % size else {size}
                assert set(nonzero) <= {size, N % size if N % size else size}

    def test_every_token_in_exactly_r_buckets(self):
        rng = np.random.default_rng(6)
        member = quantize_assign(rng.normal(size=(12, 4)), 3).membership
        assert member.shape[1] == 4 * 3  # B = r * beta
        np.testing.assert_array_equal(member.sum(axis=1), 4)

    def test_beta_exceeding_tokens_rejected(self):
        with pytest.raises(ValueError):
            quantize_assign(np.zeros((3, 2)), 4)
        with pytest.raises(ValueError):
            quantize_assign(np.zeros((3, 2)), 0)

    def test_per_dimension_nesting_under_divisibility(self):
        # bins only split when beta doubles and the pooled count divides evenly
        rng = np.random.default_rng(7)
        Qp = rng.normal(size=(8, 1))
        Kp = rng.normal(size=(8, 1))
        prev = None
        for beta in (16, 8, 4, 2, 1):
            qa, ka = quantize_qk(Qp, Kp, beta)
            edges = buckets_to_graph(qa, ka).edge_set()
            if prev is not None:
                assert prev <= edges
            prev = edges
        assert len(prev) == 64  # beta = 1 is complete

    def test_identical_values_share_a_bucket(self):
        # duplicates straddling a balanced boundary collapse into one bin
        X = np.array([[0.0], [0.5], [0.5], [1.0]])
        buckets = quantize_assign(X, 2).token_buckets()
        assert buckets[1] == buckets[2]

    def test_precomputed_boundaries_match_quantize_assign(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 3))
        cuts = bin_boundaries(X, 4)
        assert cuts.shape == (3, 3)
        a = assign_with_boundaries(X, cuts)
        b = quantize_assign(X, 4)
        np.testing.assert_array_equal(a.membership, b.membership)


class TestBucketsToGraph:
    def test_disjoint_and_shared(self):
        from sparseattn import BucketAssignment

        # queries live in buckets {1, 2}, keys in buckets {3, 4}: no overlap
        mq = np.zeros((2, 4), dtype=bool)
        mq[0, 0] = mq[1, 1] = True
        mk = np.zeros((2, 4), dtype=bool)
        mk[0, 2] = mk[1, 3] = True
        assert buckets_to_graph(BucketAssignment(mq), BucketAssignment(mk)).edge_count == 0
        all_one = BucketAssignment(np.ones((3, 1), dtype=bool))
        all_one_k = BucketAssignment(np.ones((4, 1), dtype=bool))
        assert buckets_to_graph(all_one, all_one_k).edge_count == 12

    def test_matches_double_loop_oracle(self):
        from sparseattn import BucketAssignment

        rng = np.random.default_rng(9)
        for causal in (False, True):
            mq = rng.random((4, 5)) < 0.4
            mk = rng.random((4, 5)) < 0.4
            qa = BucketAssignment(mq)
            ka = BucketAssignment(mk)
            got = buckets_to_graph(qa, ka, causal=causal).edge_set()
            want = bucket_intersection_edges(
                [np.flatnonzero(r) for r in mq], [np.flatnonzero(r) for r in mk], causal
            )
            assert got == want

    def test_cluster_graphs_nested_in_k(self):
        rng = np.random.default_rng(16)
        Qp = rng.normal(size=(9, 3))
        Kp = rng.normal(size=(9, 3))
        centroids = kmeans_fit(np.vstack([Qp, Kp]), 5, KMeansConfig(seed=4))
        prev = set()
        for k in range(1, 6):
            qa, ka = cluster_qk(Qp, Kp, centroids, k)
            cur = buckets_to_graph(qa, ka).edge_set()
            assert prev <= cur
            prev = cur
        assert len(prev) == 81  # k = B is complete

    def test_self_attention_diagonal(self):
        rng = np.random.default_rng(10)
        Xp = rng.normal(size=(10, 3))
        qa, ka = quantize_qk(Xp, Xp, 4)
        assert all((i, i) in buckets_to_graph(qa, ka).edge_set() for i in range(10))
        centroids = kmeans_fit(Xp, 3, KMeansConfig(seed=1))
        qa2, ka2 = cluster_qk(Xp, Xp, centroids, 1)
        assert all((i, i) in buckets_to_graph(qa2, ka2).edge_set() for i in range(10))

    def test_bucket_universe_mismatch(self):
        from sparseattn import BucketAssignment

        with pytest.raises(ValueError):
            buckets_to_graph(
                BucketAssignment(np.ones((2, 3), bool)),
                BucketAssignment(np.ones((2, 4), bool)),
            )


class TestWindowGlobal:
    def test_empty_and_diagonal(self):
        assert window_global_graph(4, 4, PatternConfig(window=0)).edge_count == 0
        g = window_global_graph(4, 4, PatternConfig(window=1))
        assert g.edge_set() == {(i, i) for i in range(4)}

    def test_band_plus_global_enumeration(self):
        pc = PatternConfig(window=3, global_tokens=(0,))
        g = window_global_graph(6, 6, pc)
        expected = set()
        for i in range(6):
            for j in range(6):
                if abs(i - j) <= 1 or i == 0 or j == 0:
                    expected.add((i, j))
        assert g.edge_set() == expected
        assert g.edge_count == 24

    def test_causal_band(self):
        g = window_global_graph(5, 5, PatternConfig(window=5, causal=True))
        assert g.edge_set() == {(i, j) for i in range(5) for j in range(5) if 0 <= i - j <= 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternConfig(window=2)
        with pytest.raises(ValueError):
            window_global_graph(3, 3, PatternConfig(global_tokens=(5,)))


class TestBigBird:
    def test_zero_blocks_empty(self):
        assert bigbird_random_blocks(6, 6, 0, seed=1).edge_count == 0

    def test_seeded_repeat_identical(self):
        a = bigbird_random_blocks(8, 8, 5, seed=3)
        b = bigbird_random_blocks(8, 8, 5, seed=3)
        assert a == b

    def test_exactly_five_distinct_edges(self):
        g = bigbird_random_blocks(10, 10, 5, block_size=1, seed=4)
        assert g.edge_count == 5

    def test_diagonal_excluded(self):
        for seed in range(5):
            g = bigbird_random_blocks(6, 6, 20, block_size=1, seed=seed)
            assert all(i != j for i, j in g.edge_set())

    def test_block_size_expansion(self):
        g = bigbird_random_blocks(8, 8, 1, block_size=2, seed=5)
        assert g.edge_count == 4  # one 2x2 block

    def test_causal_admissibility(self):
        g = bigbird_random_blocks(8, 8, 10, block_size=2, seed=6, causal=True)
        assert g.causal
        assert all(j <= i for i, j in g.edge_set())


class TestLSH:
    def test_identical_vectors_share_buckets(self):
        X = np.tile([[0.3, -1.2, 0.7]], (5, 1))
        qa = lsh_assign(X, rounds=4, num_buckets=4, seed=7)
        buckets = qa.token_buckets()
        assert all(b == buckets[0] for b in buckets)
        assert len(buckets[0]) == 4  # one bucket per round

    def test_single_bucket_complete_graph(self):
        rng = np.random.default_rng(8)
        Qp = rng.normal(size=(4, 3))
        Kp = rng.normal(size=(5, 3))
        qa = lsh_assign(Qp, 1, 1, seed=9)
        ka = lsh_assign(Kp, 1, 1, seed=9)
        assert buckets_to_graph(qa, ka).edge_count == 20

    def test_antipodal_pair_split(self):
        v = np.array([1.0, 2.0, -0.5])
        X = np.stack([v, -v])
        qa = lsh_assign(X, rounds=1, num_buckets=2, seed=10)
        buckets = qa.token_buckets()
        assert buckets[0] != buckets[1]

    def test_shared_seed_shares_planes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 3))
        a = lsh_assign(X, 2, 4, seed=12)
        b = lsh_assign(X, 2, 4, seed=12)
        np.testing.assert_array_equal(a.membership, b.membership)


class TestRouting:
    def test_full_topk_selects_everyone(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 2))
        c = Centroids(rng.normal(size=(3, 2)))
        member = routing_assign(X, c, 6).membership
        assert member.all()

    def test_far_token_left_unassigned(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [50.0, 50.0]])
        c = Centroids(np.array([[0.0, 0.0]]))
        qa = routing_assign(X, c, 3)
        assert qa.token_buckets()[3] == ()
        assert all(qa.token_buckets()[i] == (1,) for i in range(3))

    def test_balanced_bucket_sizes(self):
        rng = np.random.default_rng(14)
        n, B = 20, 4
        X = rng.normal(size=(n, 3))
        c = kmeans_fit(X, B, KMeansConfig(seed=2))
        topk = -(-n // B)
        member = routing_assign(X, c, topk).membership
        np.testing.assert_array_equal(member.sum(axis=0), topk)

    def test_topk_bounds(self):
        c = Centroids(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            routing_assign(np.zeros((3, 2)), c, 4)


class TestCombine:
    def test_empty_plus_diagonal(self):
        learned = AttentionGraph(4, 4, ())
        g = combine_with_patterns(learned, PatternConfig(window=1))
        assert g.edge_set() == {(i, i) for i in range(4)}

    def test_superset_unchanged(self):
        full = AttentionGraph(3, 3, [(i, j) for i in range(3) for j in range(3)])
        assert combine_with_patterns(full, PatternConfig(window=3)) == full

    def test_recall_never_decreases(self):
        rng = np.random.default_rng(15)
        gold = AttentionGraph(6, 6, [(i, int(j)) for i, j in enumerate(rng.integers(0, 6, 6))])
        learned = AttentionGraph(6, 6, [(0, 3), (2, 5)])
        pattern = PatternConfig(window=3)
        combined = combine_with_patterns(learned, pattern)
        assert recall(combined, gold) >= recall(learned, gold)
        assert recall(combined, gold) >= recall(window_global_graph(6, 6, pattern), gold)

    def test_causal_flag_mismatch(self):
        learned = AttentionGraph(4, 4, (), causal=True)
        with pytest.raises(ValueError):
            combine_with_patterns(learned, PatternConfig(window=1, causal=False))
