import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sparseattn import (
    AttentionGraph,
    DataError,
    SUPPORT_TOL,
    EntmaxParams,
    ScoreMatrix,
    _kernels,
    build_pair_dataset,
    attention_probs,
    attention_scores,
    extract_graph,
    graph_union,
    read_graph,
    recall,
    sparse_attention_probs,
    sparsity,
    write_graph,
)

from oracles import entmax_bisect, scores_triple_loop


class TestScoreMatrix:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_causal_needs_square(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((3, 4)), np.zeros((2, 4)), causal=True)

    def test_non_finite_rejected(self):
        Q = np.zeros((2, 3))
        K = np.zeros((2, 3))
        K[1, 1] = np.inf
        with pytest.raises(ValueError):
            ScoreMatrix(Q, K)


class TestAttentionScores:
    def test_orthonormal_rows(self):
        sm = ScoreMatrix(np.eye(4), np.eye(4))
        Z = attention_scores(sm)
        np.testing.assert_allclose(np.diag(Z), 0.5)
        np.testing.assert_allclose(Z - np.diag(np.diag(Z)), 0.0)

    def test_single_pair(self):
        sm = ScoreMatrix([[1.0, 0.0]], [[1.0, 0.0]])
        assert attention_scores(sm)[0, 0] == pytest.approx(1 / np.sqrt(2))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(5)
        Q = rng.normal(size=(5, 8))
        K = rng.normal(size=(6, 8))
        np.testing.assert_allclose(
            attention_scores(ScoreMatrix(Q, K)), scores_triple_loop(Q, K), atol=1e-12
        )


class TestExtractGraph:
    def test_sparsemax_vertex_rows(self):
        # one dominant key per row with gap > 1 after scaling -> single edge
        scale = 3.0
        K = np.eye(4) * scale
        Q = K[[2, 0, 3, 1]]
        g = extract_graph(ScoreMatrix(Q, K), EntmaxParams(alpha=2.0))
        assert g.edge_set() == {(0, 2), (1, 0), (2, 3), (3, 1)}

    def test_near_softmax_is_complete(self):
        rng = np.random.default_rng(6)
        sm = ScoreMatrix(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
        g = extract_graph(sm, EntmaxParams(alpha=1.001))
        assert g.edge_count == 25
        causal = ScoreMatrix(sm.Q, sm.K, causal=True)
        gc = extract_graph(causal, EntmaxParams(alpha=1.001))
        assert gc.edge_count == 15  # full lower triangle

    def test_matches_rowwise_bisection_oracle(self):
        rng = np.random.default_rng(7)
        sm = ScoreMatrix(rng.normal(size=(8, 6)), rng.normal(size=(8, 6)), causal=True)
        g = extract_graph(sm)
        Z = attention_scores(sm)
        expected = set()
        for i in range(8):
            p, _ = entmax_bisect(Z[i, : i + 1], alpha=1.5)
            expected |= {(i, j) for j in np.flatnonzero(p > 1e-12)}
        assert g.edge_set() == expected

    def test_rows_nonempty(self):
        rng = np.random.default_rng(8)
        sm = ScoreMatrix(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)), causal=True)
        g = extract_graph(sm)
        assert len({i for i, _ in g.edge_set()}) == 10

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0])
    def test_row_blocks_equal_dense_threshold(self, alpha, causal):
        # n = 1024 spans 16 row blocks of the dense kernel
        rng = np.random.default_rng(int(alpha * 8) + causal)
        sm = ScoreMatrix(rng.normal(size=(1024, 16)), rng.normal(size=(1024, 16)), causal=causal)
        params = EntmaxParams(alpha=alpha)
        dense = attention_probs(sm, params) > SUPPORT_TOL
        assert extract_graph(sm, params) == AttentionGraph.from_dense(dense, causal=causal)

    @pytest.mark.parametrize("n, m, causal", [(7, 5, False), (5, 9, False), (9, 9, True)])
    def test_small_row_blocks_equal_dense_threshold(self, n, m, causal):
        rng = np.random.default_rng(n * m)
        sm = ScoreMatrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)), causal=causal)
        with mock.patch.object(_kernels, "_BATCH_CELLS", 2 * m):
            graph = extract_graph(sm)
            dense = attention_probs(sm) > SUPPORT_TOL
        assert graph == AttentionGraph.from_dense(dense, causal=causal)


class TestMetrics:
    def _g(self, edges, n=5, m=5, causal=False):
        return AttentionGraph(n, m, edges, causal=causal)

    def test_recall_identity_and_empty(self):
        gold = self._g([(0, 1), (1, 2), (2, 3)])
        assert recall(gold, gold) == 1.0
        assert recall(self._g([]), gold) == 0.0

    def test_recall_partial(self):
        gold = self._g([(0, 0), (1, 1), (2, 2), (3, 3)])
        pred = self._g([(0, 0), (1, 1), (2, 2)] + [(i, j) for i in range(5) for j in range(4, 5)]
                       + [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])
        assert recall(pred, gold) == pytest.approx(0.75)

    def test_recall_errors(self):
        gold = self._g([(0, 0)])
        with pytest.raises(ValueError):
            recall(self._g([], n=4, m=5), gold)
        with pytest.raises(ValueError):
            recall(self._g([]), self._g([]))

    def test_sparsity_extremes(self):
        full = self._g([(i, j) for i in range(5) for j in range(5)])
        assert sparsity(full) == 0.0
        assert sparsity(self._g([])) == 1.0

    def test_sparsity_causal_denominator(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1)]
        g = AttentionGraph(4, 4, edges, causal=True)
        assert len(edges) == 10
        assert sparsity(g) == 0.0

    def test_union(self):
        a = self._g([(0, 0), (1, 1), (2, 2)])
        b = self._g([(3, 3), (4, 4), (0, 1), (1, 0)])
        empty = self._g([])
        assert graph_union(a, empty) == a
        assert graph_union(a, a) == a
        assert graph_union(a, b).edge_count == 7
        with pytest.raises(ValueError):
            graph_union(a, self._g([], n=4, m=5))

    def test_recall_monotone_sparsity_antitone(self):
        rng = np.random.default_rng(9)
        gold = self._g([(i, int(j)) for i, j in enumerate(rng.integers(0, 5, 5))])
        pred_edges = [(0, int(rng.integers(5)))]
        prev_recall, prev_sparsity = 0.0, 1.0
        for _ in range(10):
            pred_edges.append((int(rng.integers(5)), int(rng.integers(5))))
            pred = self._g(pred_edges)
            r, s = recall(pred, gold), sparsity(pred)
            assert r >= prev_recall
            assert s <= prev_sparsity
            prev_recall, prev_sparsity = r, s

    def test_recall_one_iff_superset(self):
        rng = np.random.default_rng(10)
        gold = self._g([(0, 1), (2, 3), (4, 0)])
        for _ in range(20):
            edges = {(int(i), int(j)) for i, j in rng.integers(0, 5, (6, 2))}
            pred = self._g(sorted(edges))
            assert (recall(pred, gold) == 1.0) == (gold.edge_set() <= pred.edge_set())


class TestSparseConsistencyEndToEnd:
    def test_superset_prediction_reproduces_probs(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            sm = ScoreMatrix(rng.normal(size=(12, 6)), rng.normal(size=(12, 6)),
                             causal=trial % 2 == 0)
            gold = extract_graph(sm)
            extra = {(int(i), int(j)) for i, j in rng.integers(0, 12, (8, 2))
                     if not sm.causal or j <= i}
            pred = AttentionGraph(12, 12, sorted(gold.edge_set() | extra), causal=sm.causal)
            np.testing.assert_allclose(
                sparse_attention_probs(sm, pred), attention_probs(sm), atol=1e-9
            )


class TestGraphValidation:
    def test_causal_edge_rejected(self):
        with pytest.raises(ValueError):
            AttentionGraph(3, 3, [(0, 1)], causal=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AttentionGraph(3, 3, [(0, 3)])
        with pytest.raises(ValueError):
            AttentionGraph(3, 3, [(-1, 0)])

    def test_edges_deduplicated_and_sorted(self):
        g = AttentionGraph(3, 3, [(2, 1), (0, 2), (2, 1), (0, 1)])
        np.testing.assert_array_equal(g.edges, [[0, 1], [0, 2], [2, 1]])


class TestGraphFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        sm = ScoreMatrix(rng.normal(size=(9, 5)), rng.normal(size=(9, 5)), causal=True)
        g = extract_graph(sm)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path) == g
        # rewriting the parsed graph reproduces the bytes
        path2 = tmp_path / "g2.txt"
        write_graph(read_graph(path), path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_files(self, tmp_path):
        cases = [
            "",  # empty
            "3 3 1\n",  # short header
            "3 3 2 1\n0 0\n",  # bad causal flag
            "3 3 0 2\n0 0\n",  # fewer edges than promised
            "3 3 0 1\n0 x\n",  # non-integer edge
            "3 3 1 1\n0 1\n",  # causal violation
        ]
        for k, text in enumerate(cases):
            path = tmp_path / f"bad{k}.txt"
            path.write_text(text)
            with pytest.raises(DataError):
                read_graph(path)


def test_extraction_and_pair_dataset_memory_bounded_by_edges():
    """Neither extracting a gold graph nor building its pair dataset holds
    n x m arrays: their traced peaks stay within O(edges + kernel batch).
    (Built through dense n x m arrays, each peaked above 20 MB here.)"""
    rng = np.random.default_rng(9)
    sm = ScoreMatrix(rng.normal(size=(1024, 16)), rng.normal(size=(1024, 16)), causal=True)
    tracemalloc.start()
    try:
        gold = extract_graph(sm)
        _, extract_peak = tracemalloc.get_traced_memory()
        # 16 float64 arrays of every edge and of one kernel batch: about 10 MB
        bound = 16 * 8 * (gold.edge_count + _kernels._BATCH_CELLS)
        assert extract_peak < bound
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        build_pair_dataset([sm], [gold], min_len=1)
        _, pairs_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs_peak - base < bound
