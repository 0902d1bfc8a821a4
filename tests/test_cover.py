"""Predicted graphs scored through their cover.

``buckets_to_graph``, ``window_global_graph`` and ``graph_union`` keep the
pieces a graph was built from; ``sparse_attention_probs`` scores those
pieces by blocks instead of row by row.  The cover's cells, cut to the
admissible cells, must be exactly the edges; ``cover_candidates`` must
score each of them once, with the value of the last piece that holds it,
and keep exactly those that reach the entmax bound; and the probabilities
must match the per-row path.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import score_cover_overwrites
from sparseattn import (
    AttentionGraph,
    BucketAssignment,
    Centroids,
    EntmaxParams,
    extract_graph,
    PatternConfig,
    ScoreMatrix,
    _kernels,
    attention_probs,
    audit_sparse_attention,
    bigbird_random_blocks,
    blocks,
    buckets_to_graph,
    cluster_qk,
    combine_with_patterns,
    distance_pairing,
    expand_blocks,
    graph_union,
    read_graph,
    sparse_attention_probs,
    window_global_graph,
    write_graph,
)
from sparseattn import graph as graph_module
from sparseattn.blocks import AUDIT_HEADS

SETTINGS = settings(max_examples=80, deadline=None)


def _cover_multiplicity(cover, n, m, causal):
    """How many of the cover's pieces and buckets hold each cell, from the
    pieces' definitions, cell by cell."""
    count = np.zeros((n, m), dtype=np.int64)
    for piece in cover:
        kind = piece[0]
        for i in range(n):
            for j in range(m):
                if kind == "buckets":
                    count[i, j] += int(np.sum(piece[1][i] & piece[2][j]))
                else:
                    upper = 0 if causal else piece[1]
                    count[i, j] += -piece[1] <= j - i <= upper
    return count


def _assert_cover_is_exact(graph):
    n, m, causal = graph.n, graph.m, graph.causal
    count = _cover_multiplicity(graph._cover, n, m, causal)
    admissible = np.tri(n, m, dtype=bool) if causal else np.ones((n, m), dtype=bool)
    assert np.array_equal((count > 0) & admissible, graph.to_dense())
    # at alpha = 1 every cell is a candidate: cover_candidates scores exactly
    # the edges, each with the last writer's dot product
    rng = np.random.default_rng(n * 100 + m)
    Q, K = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
    lin, S = _kernels.cover_candidates(Q, K, graph._cover, causal, 0.5, 1.0)
    assert np.array_equal(lin, graph._lin)
    assert np.array_equal(S, score_cover_overwrites(Q, K, graph._cover, causal).ravel()[lin] * 0.5)


@st.composite
def bucket_graphs(draw, causal=None):
    """A graph of random memberships: empty buckets and tokens with no
    bucket occur."""
    if causal is None:
        causal = draw(st.booleans())
    n = draw(st.integers(1, 9))
    m = n if causal else draw(st.integers(1, 9))
    B = draw(st.integers(1, 5))
    q = draw(arrays(bool, (n, B)))
    k = draw(arrays(bool, (m, B)))
    return buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)


@st.composite
def patterns(draw, n, m, causal):
    window = draw(st.sampled_from([0, 1, 3, 5, 7, 21]))
    globals_ = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return PatternConfig(window=window, global_tokens=tuple(globals_), causal=causal)


class TestCoverCells:
    @SETTINGS
    @given(bucket_graphs())
    def test_buckets_to_graph(self, graph):
        _assert_cover_is_exact(graph)

    @SETTINGS
    @given(st.data())
    def test_window_global_graph(self, data):
        causal = data.draw(st.booleans())
        n = data.draw(st.integers(1, 10))
        m = n if causal else data.draw(st.integers(1, 10))  # globals past m when n > m
        graph = window_global_graph(n, m, data.draw(patterns(n, m, causal)))
        _assert_cover_is_exact(graph)

    @SETTINGS
    @given(st.data())
    def test_union_with_a_pattern(self, data):
        learned = data.draw(bucket_graphs())
        pc = data.draw(patterns(learned.n, learned.m, learned.causal))
        graph = combine_with_patterns(learned, pc)
        assert len(graph._cover) == 1 + len(window_global_graph(learned.n, learned.m, pc)._cover)
        _assert_cover_is_exact(graph)

    @SETTINGS
    @given(st.data())
    def test_union_with_a_graph_without_cover_has_none(self, data):
        learned = data.draw(bucket_graphs())
        other = AttentionGraph.from_dense(np.tri(learned.n, learned.m, dtype=bool),
                                          causal=learned.causal)
        assert graph_union(learned, other)._cover is None
        assert graph_union(other, learned)._cover is None

    def test_other_graphs_have_no_cover(self, tmp_path):
        assert AttentionGraph(3, 4, [(0, 1), (2, 3)])._cover is None
        assert AttentionGraph.from_dense(np.eye(3, dtype=bool))._cover is None
        covered = window_global_graph(6, 6, PatternConfig(window=3, global_tokens=(2,)))
        write_graph(covered, tmp_path / "g.txt")
        assert read_graph(tmp_path / "g.txt")._cover is None

    def test_equality_ignores_the_cover(self):
        pc = PatternConfig(window=3)
        graph = window_global_graph(5, 5, pc)
        assert graph == AttentionGraph.from_dense(graph.to_dense())


@st.composite
def cover_graphs(draw):
    """A graph from every cover-setting builder: unions of one or two
    buckets graphs (B up to 70, empty buckets, tokens in no bucket or in
    every bucket) with one or two windows and sets of global tokens, each
    pattern first or last in the cover."""
    causal = draw(st.booleans())
    n = draw(st.integers(1, 40))
    m = n if causal else draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = None
    for _ in range(draw(st.integers(1, 2))):
        B = draw(st.sampled_from([1, 2, 5, 64, 65, 70]))
        density = draw(st.sampled_from([0.05, 0.3, 1.0]))
        q, k = rng.random((n, B)) < density, rng.random((m, B)) < density
        q[:, draw(st.integers(0, B - 1))] = False  # an empty bucket
        piece = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        graph = piece if graph is None else graph_union(graph, piece)
    for _ in range(draw(st.integers(1, 2))):
        pattern = window_global_graph(n, m, draw(patterns(n, m, causal)))
        graph = graph_union(pattern, graph) if draw(st.booleans()) else graph_union(graph, pattern)
    return graph


def _qk(rng, n, m, d=8):
    return rng.normal(size=(n, d)), rng.normal(size=(m, d))


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _per_row(sm, graph, params):
    return sparse_attention_probs(
        sm, AttentionGraph._from_sorted_lin(graph.n, graph.m, graph._lin, graph.causal), params)


class _CountingGraph(AttentionGraph):
    """A graph that counts the reads of its edge list."""

    __slots__ = ("reads",)

    @property
    def _lin(self):
        self.reads += 1
        return AttentionGraph._lin.__get__(self)


class TestCandidates:
    @SETTINGS
    @given(cover_graphs(), st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]), st.integers(0, 2**32 - 1))
    def test_last_writers_cells_that_reach_the_bound(self, graph, alpha, seed):
        # against the n x m array of overwritten dot products: the same
        # values bit for bit, and exactly the cells with
        # (alpha - 1)(z - max z) >= -1 over the row's edges
        Q, K = _qk(np.random.default_rng(seed), graph.n, graph.m)
        lin, S = _kernels.cover_candidates(Q, K, graph._cover, graph.causal, 0.25, alpha)
        Z = np.full(graph.n * graph.m, -np.inf)
        Z[graph._lin] = score_cover_overwrites(Q, K, graph._cover, graph.causal).ravel()[graph._lin]
        Z = Z.reshape(graph.n, graph.m) * 0.25
        zmax = Z.max(axis=1, keepdims=True)
        zmax[zmax == -np.inf] = 0.0
        keep = Z > -np.inf if alpha == 1.0 else (Z - zmax) * (alpha - 1.0) >= -1.0
        assert np.array_equal(lin, np.flatnonzero(keep))
        assert np.array_equal(S, Z.ravel()[lin])


class TestProbsThroughCover:
    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("causal", [False, True])
    def test_equal_to_the_same_edges_scored_per_row(self, monkeypatch, alpha, causal):
        calls = _counting(monkeypatch, _kernels, "cover_candidates")
        rng = np.random.default_rng(3)
        params = EntmaxParams(alpha=alpha)
        for n in (1, 2, 17, 130):
            sm = ScoreMatrix(*_qk(rng, n, n), causal=causal)
            q = rng.random((n, 8)) < 0.2
            k = rng.random((n, 8)) < 0.2
            q[:, 2] = False  # an empty bucket
            pc = PatternConfig(window=5, global_tokens=(0, n - 1), causal=causal)
            graph = combine_with_patterns(
                buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal), pc)
            before = len(calls)
            P = sparse_attention_probs(sm, graph, params)
            assert len(calls) == before + 1
            np.testing.assert_allclose(P, _per_row(sm, graph, params), rtol=0, atol=1e-12)
            assert not P[~graph.to_dense()].any()

    @SETTINGS
    @given(cover_graphs(), st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]), st.integers(0, 2**32 - 1))
    def test_every_builder_matches_the_per_row_path(self, graph, alpha, seed):
        rng = np.random.default_rng(seed)
        params = EntmaxParams(alpha=alpha)
        sm = ScoreMatrix(*_qk(rng, graph.n, graph.m), causal=graph.causal)
        P = sparse_attention_probs(sm, graph, params)
        np.testing.assert_allclose(P, _per_row(sm, graph, params), rtol=0, atol=1e-12)
        assert not P[~graph.to_dense()].any()
        # one more buckets piece, one bucket per query row holding that row's
        # gold keys, makes the graph cover the gold support
        gold = extract_graph(sm, params)
        rows = BucketAssignment(np.eye(graph.n, dtype=bool))
        covering = graph_union(graph, buckets_to_graph(
            rows, BucketAssignment(gold.to_dense().T), graph.causal))
        P = sparse_attention_probs(sm, covering, params)
        np.testing.assert_allclose(P, attention_probs(sm, params), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("causal", [False, True])
    def test_covering_graph_equals_dense_attention(self, monkeypatch, causal):
        # one bucket holding every token: the complete graph, 1 (causal:
        # 2n / (n + 1)) cells per edge, scored through the cover
        calls = _counting(monkeypatch, _kernels, "cover_candidates")
        rng = np.random.default_rng(4)
        for alpha in (1.25, 1.5, 2.0):
            params = EntmaxParams(alpha=alpha)
            sm = ScoreMatrix(*_qk(rng, 64, 64, 16), causal=causal)
            member = np.zeros((64, 4), dtype=bool)
            member[:, 1] = True
            graph = buckets_to_graph(BucketAssignment(member), BucketAssignment(member), causal)
            P = sparse_attention_probs(sm, graph, params)
            np.testing.assert_allclose(P, attention_probs(sm, params), rtol=0, atol=1e-9)
        assert len(calls) == 3

    def test_k_equal_to_B_is_scored_through_the_cover(self, monkeypatch):
        # every token in every bucket: B cells per edge, a nearly complete
        # graph, and still one cover_candidates call, as at k = 1
        calls = _counting(monkeypatch, _kernels, "cover_candidates")
        rng = np.random.default_rng(5)
        B = 6
        for causal in (False, True):
            sm = ScoreMatrix(*_qk(rng, 40, 40), causal=causal)
            centroids = Centroids(rng.normal(size=(B, 8)))
            pc = PatternConfig(window=3, causal=causal)
            for k in (B, 1):
                qa, ka = cluster_qk(sm.Q, sm.K, centroids, k)
                graph = combine_with_patterns(buckets_to_graph(qa, ka, causal), pc)
                for alpha in (1.0, 1.25, 1.5, 2.0, 3.0):
                    params = EntmaxParams(alpha=alpha)
                    before = len(calls)
                    P = sparse_attention_probs(sm, graph, params)
                    assert len(calls) == before + 1
                    np.testing.assert_allclose(P, _per_row(sm, graph, params),
                                               rtol=0, atol=1e-12)

    def test_scores_only_the_edges_it_is_given(self, monkeypatch):
        # the per-row kernel scores every edge of a graph without a cover;
        # the cover path solves a subset of the edges and never reads the
        # edge list: no CSR, no gather or scatter by edge, not even its size
        seen = []
        real = _kernels.sparse_rows_entmax15
        monkeypatch.setattr(_kernels, "sparse_rows_entmax15",
                            lambda *a: seen.append(a[3].size) or real(*a))
        csr = _counting(monkeypatch, blocks, "csr_from_graph")
        rng = np.random.default_rng(6)
        sm = ScoreMatrix(*_qk(rng, 30, 30))
        q = rng.random((30, 5)) < 0.3
        graph = combine_with_patterns(
            buckets_to_graph(BucketAssignment(q), BucketAssignment(q)), PatternConfig(window=3))
        _per_row(sm, graph, EntmaxParams())
        assert seen == [graph.edge_count] and len(csr) == 1
        counted = _CountingGraph._from_sorted_lin(30, 30, graph._lin, False, graph._cover)
        counted.reads = 0
        P = sparse_attention_probs(sm, counted)
        assert counted.reads == 0 and seen == [graph.edge_count] and len(csr) == 1
        assert not P[~graph.to_dense()].any()

    @pytest.mark.parametrize("causal", [False, True])
    def test_one_scorer_per_call(self, monkeypatch, tmp_path, causal):
        # a graph with a cover goes through cover_candidates alone, whatever
        # its density; any other graph, or a union with one, row by row
        by_cover = _counting(monkeypatch, _kernels, "cover_candidates")
        by_rows = _counting(monkeypatch, _kernels, "sparse_rows_entmax15")
        rng = np.random.default_rng(7)
        n = 24
        sm = ScoreMatrix(*_qk(rng, n, n), causal=causal)
        q, k = rng.random((n, 4)) < 0.3, rng.random((n, 4)) < 0.3
        bucketed = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        pattern = window_global_graph(n, n, PatternConfig(window=5, global_tokens=(3,),
                                                          causal=causal))
        every = np.ones((n, 6), dtype=bool)  # the complete graph, 6 cells per edge
        complete = buckets_to_graph(BucketAssignment(every), BucketAssignment(every), causal)
        covered = [bucketed, pattern, complete, graph_union(bucketed, pattern),
                   graph_union(pattern, bucketed), graph_union(complete, pattern)]
        write_graph(bucketed, tmp_path / "g.txt")
        mask = rng.random((n, n)) < 0.3
        if causal:
            mask &= np.tri(n, dtype=bool)
        block_mask = np.tri(n // 4, dtype=bool) if causal else rng.random((n // 4, n // 4)) < 0.5
        uncovered = [
            distance_pairing(sm.Q[:, :3], sm.K[:, :3], 2.0, causal),
            extract_graph(sm),
            AttentionGraph.from_dense(mask, causal=causal),
            read_graph(tmp_path / "g.txt"),
            expand_blocks(AttentionGraph.from_dense(block_mask, causal=causal), 4, n, n),
            bigbird_random_blocks(n, n, 3, block_size=4, seed=1, causal=causal),
        ]
        uncovered += [graph_union(a, b) for other in uncovered
                      for a, b in ((other, bucketed), (pattern, other))]
        for graphs, expected in ((covered, (1, 0)), (uncovered, (0, 1))):
            for graph in graphs:
                before = len(by_cover), len(by_rows)
                sparse_attention_probs(sm, graph)
                assert (len(by_cover) - before[0], len(by_rows) - before[1]) == expected


class TestAuditOfTheCover:
    def test_detects_a_wrong_cover_scorer(self, monkeypatch):
        real = _kernels.cover_candidates

        def skewed(*args):
            lin, S = real(*args)
            return lin, S * (1.0 + 1e-6)

        monkeypatch.setattr(_kernels, "cover_candidates", skewed)
        failures = audit_sparse_attention(seed=5)
        # a lone cell gets probability 1 whatever its score, so n = 1 passes
        assert [f["head"] for f in failures] == [h for h, (n, _) in enumerate(AUDIT_HEADS)
                                                 if n > 1]
        assert all(f["check"] == "cover" and f["max_abs_diff"] > 1e-12 for f in failures)

    def test_scores_each_head_through_the_cover_once(self, monkeypatch):
        calls = _counting(monkeypatch, _kernels, "cover_candidates")
        assert audit_sparse_attention(seed=2) == []
        assert len(calls) == len(AUDIT_HEADS)

    def test_scores_the_cover_before_the_edges_are_built(self, monkeypatch):
        # per head: the gold graph's rows, the cover call on the lazy
        # bucket-plus-window graph, then its edges for the per-row copy
        events = []
        for module, name in ((graph_module, "_row_block_lin"), (_kernels, "cover_candidates")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: events.append(name) or real(*a))
        assert audit_sparse_attention(seed=2) == []
        assert events == ["_row_block_lin", "cover_candidates", "_row_block_lin"] * len(AUDIT_HEADS)


def _same_cover(a, b):
    return a is b is None or (len(a) == len(b) and all(
        x[0] == y[0] and all(np.array_equal(u, v) for u, v in zip(x[1:], y[1:]))
        for x, y in zip(a, b)))


@st.composite
def lazy_cases(draw):
    """Memberships with k of B buckets per token, then one bucket emptied
    and one query and one key put in no bucket, and a pattern."""
    causal = draw(st.booleans())
    n = draw(st.integers(1, 30))
    m = n if causal else draw(st.integers(1, 30))
    B = draw(st.integers(1, 6))
    k = draw(st.integers(1, B))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.integers(0, B - 1))

    def members(tokens):
        member = np.zeros((tokens, B), dtype=bool)
        np.put_along_axis(member, np.argsort(rng.random((tokens, B)), axis=1)[:, :k], True, 1)
        member[:, empty] = False
        member[draw(st.integers(0, tokens - 1))] = False
        return member

    return members(n), members(m), draw(patterns(n, m, causal))


class TestLazyEdges:
    """A graph with a cover from ``buckets_to_graph`` or ``graph_union``
    builds its edge list on the first read of ``_lin``, once."""

    def test_the_predicted_call_builds_no_edge_list(self, monkeypatch):
        rows = _counting(monkeypatch, graph_module, "_row_block_lin")
        merges = _counting(monkeypatch, graph_module, "_merge_sorted")
        rng = np.random.default_rng(8)
        for causal in (False, True):
            sm = ScoreMatrix(*_qk(rng, 50, 50), causal=causal)
            qa, ka = cluster_qk(sm.Q, sm.K, Centroids(rng.normal(size=(6, 8))), 2)
            pc = PatternConfig(window=5, global_tokens=(0, 7), causal=causal)
            graph = combine_with_patterns(buckets_to_graph(qa, ka, causal), pc)
            P = sparse_attention_probs(sm, graph)
            assert (len(rows), len(merges)) == (0, 0)
            assert callable(graph._lin_or_build)
            lin = graph._lin
            assert (len(rows), len(merges)) == (1, 1)
            assert not P[~graph.to_dense()].any()
            # a second read returns the same frozen array; the builder is gone
            assert graph._lin is lin and graph.edge_count == lin.size
            assert not lin.flags.writeable and lin.dtype == np.int64
            assert graph._lin_or_build is lin
            assert (len(rows), len(merges)) == (1, 1)
            rows.clear()
            merges.clear()

    @SETTINGS
    @given(lazy_cases())
    def test_edges_equal_the_eager_build(self, case):
        # the shared-bucket rule, the band and the global rows and columns,
        # cell by cell, against the edges built on first read
        q, k, pc = case
        n, m, causal = q.shape[0], k.shape[0], pc.causal
        learned = buckets_to_graph(BucketAssignment(q), BucketAssignment(k), causal)
        graph = combine_with_patterns(learned, pc)
        assert callable(graph._lin_or_build) and callable(learned._lin_or_build)
        shared = (q[:, None, :] & k[None, :, :]).any(axis=2)
        i, j = np.indices((n, m))
        band = (np.abs(j - i) <= pc.window // 2) if pc.window else np.zeros((n, m), dtype=bool)
        glob = np.zeros((n, m), dtype=bool)
        for t in pc.global_tokens:
            glob[t] = True
            glob[:, t:t + 1] = True
        admissible = np.tri(n, m, dtype=bool) if causal else np.ones((n, m), dtype=bool)
        for lazy, dense in ((graph, shared | band | glob), (learned, shared)):
            eager = AttentionGraph.from_dense(dense & admissible, causal=causal)
            assert lazy._lin.dtype == np.int64 and not lazy._lin.flags.writeable
            assert np.array_equal(lazy._lin, eager._lin)
            assert lazy == eager

    def test_pickle_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        sm = ScoreMatrix(*_qk(rng, 20, 20))
        q, k = rng.random((20, 4)) < 0.3, rng.random((20, 4)) < 0.3
        pc = PatternConfig(window=3, global_tokens=(2,))
        write_graph(extract_graph(sm), tmp_path / "g.txt")
        graphs = [
            buckets_to_graph(BucketAssignment(q), BucketAssignment(k)),
            combine_with_patterns(buckets_to_graph(BucketAssignment(q), BucketAssignment(k)), pc),
            window_global_graph(20, 20, pc),
            extract_graph(sm),
            read_graph(tmp_path / "g.txt"),
        ]
        for graph in graphs:
            copy = pickle.loads(pickle.dumps(graph))
            assert not callable(graph._lin_or_build)  # pickling forced the edges
            assert type(copy) is AttentionGraph and copy == graph
            assert not copy._lin.flags.writeable
            assert _same_cover(copy._cover, graph._cover)
        assert [g._cover is None for g in graphs] == [False, False, False, True, True]
