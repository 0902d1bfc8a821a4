import importlib

import numpy as np
import pytest

from sparseattn import (
    AttentionGraph,
    BlockBudget,
    Centroids,
    EntmaxParams,
    KMeansConfig,
    ProjectionHead,
    ScoreMatrix,
    attention_probs,
    audit_sparse_attention,
    bench_masked_attention,
    buckets_to_graph,
    chunk_labels,
    chunk_means,
    cluster_qk,
    csr_from_graph,
    dense_score_flops,
    expand_blocks,
    extract_graph,
    graph_score_flops,
    graph_union,
    kmeans_fit,
    project_rows,
    recall,
    select_blocks_v1,
    sparse_attention_probs,
    write_bench_csv,
)
from sparseattn import _kernels, blocks
from sparseattn.blocks import AUDIT_HEADS, BENCH_CSV_COLUMNS


def random_gold(n=8, d=6, causal=True, seed=0):
    rng = np.random.default_rng(seed)
    sm = ScoreMatrix(rng.normal(size=(n, d)), rng.normal(size=(n, d)), causal=causal)
    return sm, extract_graph(sm)


class TestChunkLabels:
    def test_z1_isomorphic(self):
        _, gold = random_gold()
        cg = chunk_labels(gold, 1)
        assert cg == gold

    def test_single_block(self):
        _, gold = random_gold()
        cg = chunk_labels(gold, 16)
        assert cg.n == 1 and cg.m == 1
        assert cg.edge_count == 1

    def test_matches_any_token_oracle(self):
        _, gold = random_gold(seed=3)
        z = 2
        cg = chunk_labels(gold, z)
        expected = set()
        for bi in range(4):
            for bj in range(4):
                hit = any(
                    (i, j) in gold.edge_set()
                    for i in range(bi * z, bi * z + z)
                    for j in range(bj * z, bj * z + z)
                )
                if hit:
                    expected.add((bi, bj))
        assert cg.edge_set() == expected

    def test_causal_preserved(self):
        _, gold = random_gold(causal=True)
        assert chunk_labels(gold, 2).causal

    def test_bad_z(self):
        _, gold = random_gold()
        with pytest.raises(ValueError):
            chunk_labels(gold, 0)


class TestChunkProject:
    """Block projection as ``bench`` does it: ``chunk_means`` then ``project_rows``."""

    def _head(self, d=6, r=2, seed=1):
        rng = np.random.default_rng(seed)
        return ProjectionHead(rng.normal(size=(r, d)), rng.normal(size=r))

    def test_z1_is_per_token(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 6))
        head = self._head()
        np.testing.assert_array_equal(chunk_means(X, 1), X)
        np.testing.assert_allclose(
            project_rows(head, chunk_means(X, 1)), project_rows(head, X), atol=0
        )

    def test_identical_tokens(self):
        head = self._head()
        X = np.tile([[1.0, -2.0, 0.5, 3.0, 0.0, 1.0]], (4, 1))
        out = project_rows(head, chunk_means(X, 4))
        np.testing.assert_allclose(out[0], project_rows(head, X[:1])[0], atol=1e-12)

    def test_matches_mean_then_project_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 6))  # short final block of 3
        head = self._head()
        got = project_rows(head, chunk_means(X, 2))
        assert got.shape == (4, 2)
        for b, lo in enumerate(range(0, 7, 2)):
            mean = X[lo : lo + 2].mean(axis=0)
            np.testing.assert_allclose(got[b], head.W @ mean + head.b, atol=1e-12)

    def test_bad_z(self):
        with pytest.raises(ValueError):
            chunk_means(np.zeros((4, 6)), 0)


class TestSelectBlocks:
    def test_v1_full_budget_complete(self):
        rng = np.random.default_rng(4)
        Qb = rng.normal(size=(3, 2))
        Kb = rng.normal(size=(5, 2))
        cg = select_blocks_v1(Qb, Kb, BlockBudget(5, "v1"))
        assert cg.edge_count == 15

    def test_v1_dominant_match(self):
        Qb = np.eye(4)[:3] * 2.0
        Kb = np.eye(4)[:3] * 2.0
        cg = select_blocks_v1(Qb, Kb, BlockBudget(1, "v1"))
        assert cg.edge_set() == {(0, 0), (1, 1), (2, 2)}

    def test_v1_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        Qb = rng.normal(size=(6, 3))
        Kb = rng.normal(size=(6, 3))
        scores = Qb @ Kb.T
        for k in (1, 2, 4):
            cg = select_blocks_v1(Qb, Kb, BlockBudget(k, "v1"))
            for i in range(6):
                want = set(np.argsort(-scores[i], kind="stable")[:k])
                got = {j for bi, j in cg.edge_set() if bi == i}
                assert got == want

    def test_v1_clamps_budget(self):
        rng = np.random.default_rng(6)
        Qb = rng.normal(size=(4, 2))
        cg = select_blocks_v1(Qb, Qb, BlockBudget(99, "v1"), causal=True)
        assert cg.edge_count == 10  # all admissible causal blocks

    def test_v1_nested_in_top_k(self):
        rng = np.random.default_rng(7)
        Qb = rng.normal(size=(5, 3))
        Kb = rng.normal(size=(5, 3))
        prev = set()
        for k in range(1, 6):
            cur = select_blocks_v1(Qb, Kb, BlockBudget(k, "v1")).edge_set()
            assert prev <= cur
            prev = cur

    def test_v2_single_centroid_complete(self):
        rng = np.random.default_rng(8)
        Qb = rng.normal(size=(4, 2))
        Kb = rng.normal(size=(4, 2))
        c = Centroids(np.zeros((1, 2)))
        assert buckets_to_graph(*cluster_qk(Qb, Kb, c, 1)).edge_count == 16

    def test_v2_two_families(self):
        rng = np.random.default_rng(9)
        fam0 = rng.normal([-6, 0], 0.2, (3, 2))
        fam1 = rng.normal([6, 0], 0.2, (3, 2))
        Qb = np.vstack([fam0, fam1])
        Kb = np.vstack([fam0 + 0.01, fam1 - 0.01])
        c = kmeans_fit(np.vstack([Qb, Kb]), 2, KMeansConfig(seed=2))
        assert buckets_to_graph(*cluster_qk(Qb, Kb, c, 1)).edge_set() == {
            (i, j) for i in range(6) for j in range(6) if (i < 3) == (j < 3)
        }

    def test_v2_full_budget_complete(self):
        rng = np.random.default_rng(10)
        Qb = rng.normal(size=(4, 2))
        c = kmeans_fit(Qb, 3, KMeansConfig(seed=3))
        assert buckets_to_graph(*cluster_qk(Qb, Qb, c, 3)).edge_count == 16

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BlockBudget(0, "v1")
        with pytest.raises(ValueError):
            BlockBudget(2, "v3")


class TestExpandBlocks:
    def test_z1_identity(self):
        _, gold = random_gold(seed=11)
        assert expand_blocks(chunk_labels(gold, 1), 1, 8, 8) == gold

    def test_single_block_interior(self):
        cg = chunk_labels(AttentionGraph(4, 4, [(0, 1)]), 2)
        assert cg.edge_set() == {(0, 0)}
        expanded = expand_blocks(cg, 2, 4, 4)
        assert expanded.edge_set() == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_round_trip_covers_gold(self):
        for seed in range(5):
            _, gold = random_gold(n=12, seed=seed)
            for z in (1, 2, 3, 4, 8):
                expanded = expand_blocks(chunk_labels(gold, z), z, 12, 12)
                assert gold.edge_set() <= expanded.edge_set()
                assert recall(expanded, gold) == 1.0

    def test_size_mismatch(self):
        _, gold = random_gold()
        with pytest.raises(ValueError):
            expand_blocks(chunk_labels(gold, 2), 2, 20, 20)

    def test_bad_z(self):
        _, gold = random_gold()
        with pytest.raises(ValueError, match="z must be >= 1"):
            expand_blocks(chunk_labels(gold, 1), 0, 8, 8)

    def test_padding_dropped_and_causal(self):
        gold = AttentionGraph(5, 5, [(4, 4), (2, 0)], causal=True)
        expanded = expand_blocks(chunk_labels(gold, 2), 2, 5, 5)
        assert all(i < 5 and j <= i for i, j in expanded.edge_set())


class TestFlopsAndSparsePath:
    def test_block_flops_below_dense(self):
        sm, gold = random_gold(n=16, seed=12)
        dense = dense_score_flops(16, 16, 6, causal=True)
        for z in (1, 2, 4):
            g = expand_blocks(chunk_labels(gold, z), z, 16, 16)
            assert graph_score_flops(g, 6) <= dense

    def test_equality_only_at_full_budget(self):
        full = AttentionGraph(4, 4, [(i, j) for i in range(4) for j in range(4)])
        assert graph_score_flops(full, 8) == dense_score_flops(4, 4, 8)
        partial = AttentionGraph(4, 4, [(0, 0)])
        assert graph_score_flops(partial, 8) < dense_score_flops(4, 4, 8)

    def test_smaller_budget_fewer_flops(self):
        rng = np.random.default_rng(13)
        Qb = rng.normal(size=(8, 3))
        Kb = rng.normal(size=(8, 3))
        g2 = expand_blocks(select_blocks_v1(Qb, Kb, BlockBudget(2, "v1")), 2, 16, 16)
        g6 = expand_blocks(select_blocks_v1(Qb, Kb, BlockBudget(6, "v1")), 2, 16, 16)
        assert graph_score_flops(g2, 4) < graph_score_flops(g6, 4)

    def test_csr_counts(self):
        g = AttentionGraph(3, 4, [(0, 1), (0, 3), (2, 0)])
        indptr, cols = csr_from_graph(g)
        np.testing.assert_array_equal(indptr, [0, 2, 2, 3])
        np.testing.assert_array_equal(cols, [1, 3, 0])

    def test_sparse_path_matches_dense_under_full_mask(self):
        for causal in (False, True):
            sm, gold = random_gold(n=10, causal=causal, seed=14)
            edges = [(i, j) for i in range(10) for j in range(10) if not causal or j <= i]
            full = AttentionGraph(10, 10, edges, causal=causal)
            np.testing.assert_allclose(
                sparse_attention_probs(sm, full), attention_probs(sm), atol=1e-9
            )

    def test_sparse_path_respects_support_subsets(self):
        sm, gold = random_gold(n=10, seed=15)
        np.testing.assert_allclose(
            sparse_attention_probs(sm, gold), attention_probs(sm), atol=1e-9
        )

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
    @pytest.mark.parametrize("causal", [False, True])
    def test_sparse_path_matches_dense_on_covering_graph(self, alpha, causal):
        params = EntmaxParams(alpha=alpha)
        rng = np.random.default_rng(16)
        n = 24
        for _ in range(5):
            sm = ScoreMatrix(rng.normal(size=(n, 8)) * 1.5, rng.normal(size=(n, 8)) * 1.5,
                             causal=causal)
            gold = extract_graph(sm, params)
            extra = rng.random((n, n)) < 0.2
            if causal:
                extra &= np.tri(n, dtype=bool)
            pred = graph_union(gold, AttentionGraph.from_dense(extra, causal=causal))
            assert pred.edge_count > gold.edge_count
            np.testing.assert_allclose(
                sparse_attention_probs(sm, pred, params), attention_probs(sm, params),
                rtol=0, atol=1e-9,
            )

    def test_causal_mismatch_rejected(self):
        sm, gold = random_gold(n=6, causal=True, seed=17)
        full = AttentionGraph.from_dense(np.ones((6, 6), dtype=bool))
        with pytest.raises(ValueError, match="causal"):
            sparse_attention_probs(sm, full)
        noncausal = ScoreMatrix(sm.Q, sm.K, causal=False)
        with pytest.raises(ValueError, match="causal"):
            sparse_attention_probs(noncausal, gold)


class TestBench:
    def test_record_and_counter_bounds(self):
        n, z, top_k = 64, 8, 2
        (rec,) = bench_masked_attention(n, 16, [z], [BlockBudget(top_k, "v1")], window=3,
                                        repeats=3, seed=1)
        nb = n // z
        assert rec.selected_blocks <= nb * top_k
        window_cells = 3 * n - 2  # |i-j| <= 1
        assert rec.flops_block <= (rec.selected_blocks * z * z + window_cells) * 2 * 16
        assert rec.flops_block <= rec.flops_dense
        assert 0.0 <= rec.recall <= 1.0 and 0.0 <= rec.sparsity <= 1.0
        assert rec.dense_median_ms > 0 and rec.block_median_ms > 0

    def test_full_budget_matches_dense_probs(self):
        n, d, z = 48, 12, 8
        rng = np.random.default_rng(2)
        sm = ScoreMatrix(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
        gold = extract_graph(sm)
        labels = chunk_labels(gold, z)
        Qb = chunk_means(sm.Q, z)
        Kb = chunk_means(sm.K, z)
        cg = select_blocks_v1(Qb, Kb, BlockBudget(labels.m, "v1"))
        expanded = expand_blocks(cg, z, n, n)
        assert expanded.edge_count == n * n
        np.testing.assert_allclose(
            sparse_attention_probs(sm, expanded), attention_probs(sm), atol=1e-9
        )

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            bench_masked_attention(16, 8, [4], [BlockBudget(1, "v1")], repeats=2)

    def test_v2_variant_runs(self):
        (rec,) = bench_masked_attention(32, 12, [8], [BlockBudget(2, "v2")], repeats=3, seed=3)
        assert rec.variant == "v2"

    def test_v2_top_k_above_centroids_rejected(self, monkeypatch):
        # n = 32 with z = 8 has 4 blocks, so v2 fits 4 centroids
        monkeypatch.setattr(blocks, "extract_graph", None)  # rejected before any work
        with pytest.raises(ValueError, match="v2 top_k 5 exceeds the 4 centroids"):
            bench_masked_attention(32, 8, [4, 8], [BlockBudget(5, "v2")], repeats=3)

    def test_v1_top_k_above_blocks_rejected(self, monkeypatch):
        # n = 32 with z = 8 has 4 key blocks; z = 4 has 8
        monkeypatch.setattr(blocks, "extract_graph", None)  # rejected before any work
        with pytest.raises(ValueError, match="v1 top_k 5 exceeds the 4 key blocks"):
            bench_masked_attention(32, 8, [4, 8], [BlockBudget(5, "v1")], repeats=3)

    def test_v2_top_k_at_centroid_count_selects_every_block_pair(self):
        (rec,) = bench_masked_attention(32, 8, [8], [BlockBudget(4, "v2")], repeats=3, seed=2)
        assert rec.selected_blocks == 4 * 4
        assert (rec.recall, rec.sparsity) == (1.0, 0.0)

    def test_set_up_once_per_call(self, monkeypatch):
        calls = {}

        def counted(name):
            real = getattr(blocks, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(blocks, name, wrapper)

        for name in ("extract_graph", "attention_probs", "train_projection", "kmeans_fit"):
            counted(name)
        budgets = [BlockBudget(k, v) for v in ("v1", "v2") for k in (1, 2)]
        records = bench_masked_attention(32, 8, [4, 8], budgets, repeats=3, seed=5)
        assert [(r.z, r.variant, r.top_k) for r in records] == [
            (z, b.variant, b.top_k_blocks) for z in (4, 8) for b in budgets
        ]
        assert calls == {"extract_graph": 1, "attention_probs": 3 + 1,
                         "train_projection": 2, "kmeans_fit": 2}

    def test_no_centroids_without_a_v2_budget(self, monkeypatch):
        monkeypatch.setattr(blocks, "kmeans_fit", None)
        assert len(bench_masked_attention(32, 8, [4, 8], [BlockBudget(1, "v1")], repeats=3)) == 2

    def test_selection_runs_inside_the_timed_call(self, monkeypatch):
        timing = []
        selected = {"timed": 0, "untimed": 0}
        real_time, real_v1, real_cluster = blocks._time_ms, blocks.select_blocks_v1, blocks.cluster_qk

        def time_ms(fn, repeats):
            timing.append(True)
            try:
                return real_time(fn, repeats)
            finally:
                timing.pop()

        def counting(real):
            def wrapper(*args, **kwargs):
                selected["timed" if timing else "untimed"] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(blocks, "_time_ms", time_ms)
        monkeypatch.setattr(blocks, "select_blocks_v1", counting(real_v1))
        monkeypatch.setattr(blocks, "cluster_qk", counting(real_cluster))
        repeats = 3
        bench_masked_attention(32, 8, [8], [BlockBudget(1, "v1"), BlockBudget(2, "v2")],
                               repeats=repeats, seed=6)
        # the untimed first call of each block timing gives the record's graph
        assert selected == {"timed": 2 * (repeats + 1), "untimed": 0}

    def test_records_match_single_budget_calls(self):
        budgets = [BlockBudget(2, "v1"), BlockBudget(1, "v2"), BlockBudget(3, "v2")]
        together = bench_masked_attention(48, 8, [8, 16], budgets, repeats=3, seed=7,
                                          causal=True)
        alone = [rec for z in (8, 16) for b in budgets
                 for rec in bench_masked_attention(48, 8, [z], [b], repeats=3, seed=7,
                                                   causal=True)]
        fields = ("variant", "z", "top_k", "flops_dense", "flops_block", "recall", "sparsity",
                  "selected_blocks")
        assert ([[getattr(r, f) for f in fields] for r in together]
                == [[getattr(r, f) for f in fields] for r in alone])

    def test_csv_columns(self, tmp_path):
        records = bench_masked_attention(32, 12, [8], [BlockBudget(2, "v1"), BlockBudget(1, "v2")],
                                         repeats=3, seed=4)
        path = tmp_path / "bench.csv"
        write_bench_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(BENCH_CSV_COLUMNS)
        assert lines[1].startswith("dense,32,12,")
        assert lines[2].startswith("v1,32,12,8,2,3,")
        assert lines[3].startswith("v2,32,12,8,1,3,")
        assert len(lines) == 4


class TestAudit:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
    def test_healthy_build_passes(self, alpha):
        assert audit_sparse_attention(seed=5, alpha=alpha) == []

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
    def test_detects_a_wrong_sparse_kernel(self, monkeypatch, alpha):
        real = _kernels.sparse_rows_entmax15
        monkeypatch.setattr(
            _kernels, "sparse_rows_entmax15", lambda *a: real(*a) * (1.0 + 1e-6)
        )
        failures = audit_sparse_attention(seed=5, alpha=alpha)
        assert [f["head"] for f in failures] == list(range(len(AUDIT_HEADS)))
        assert all(f["max_abs_diff"] > 1e-9 for f in failures)


@pytest.mark.parametrize("alpha", [1.0, 1.25, 2.0])
def test_attention_paths_solve_rows_in_batches_only(monkeypatch, alpha):
    # both attention paths solve rows through the batched kernels only
    def per_row(*args, **kwargs):
        raise AssertionError("per-row entmax called")

    monkeypatch.setattr(importlib.import_module("sparseattn.graph"), "masked_entmax",
                        per_row, raising=False)
    monkeypatch.setattr(importlib.import_module("sparseattn.blocks"), "entmax",
                        per_row, raising=False)
    params = EntmaxParams(alpha=alpha)
    for causal in (False, True):
        sm, _ = random_gold(n=12, causal=causal, seed=9)
        full = AttentionGraph.from_dense(np.tri(12, dtype=bool) if causal
                                         else np.ones((12, 12), dtype=bool), causal=causal)
        np.testing.assert_allclose(sparse_attention_probs(sm, full, params),
                                   attention_probs(sm, params), rtol=0, atol=1e-9)
