import numpy as np
import pytest

from sparseattn import (
    AttentionGraph,
    PairDataset,
    ProjectionHead,
    ScoreMatrix,
    TrainConfig,
    build_pair_dataset,
    draw_negatives,
    load_head,
    project_rows,
    save_head,
    train_projection,
)

from sparseattn.projection import _hinge

from oracles import central_difference_grad, pair_lists, train_projection_per_pair


def losses_of(q_proj, k_pos, k_neg, margin):
    """Per-row hinge losses of projected rows: ``_hinge`` with the identity map."""
    X = np.concatenate([np.asarray(a, dtype=np.float64) for a in (q_proj, k_pos, k_neg)])
    return _hinge(np.eye(X.shape[1]), X, margin)[0]


def grad_of(head, q, k_pos, k_neg, margin):
    """The summed W-gradient of the hinge losses of (B, d) rows."""
    return _hinge(head.W, np.concatenate([q, k_pos, k_neg]), margin)[1]


class _Draws:
    """Stands in for a Generator: ``integers(highs)`` returns ``pick(highs)``."""

    def __init__(self, pick):
        self.pick = pick

    def integers(self, highs):
        return self.pick(np.asarray(highs))


def two_blob_dataset(d=8, per_blob=12, gap=4.0, std=0.5, seed=0, scale=1.0):
    """Queries/keys in two well-separated Gaussian blobs; positives within-blob."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((2, d))
    centers[0, 0] = -gap / 2
    centers[1, 0] = gap / 2
    n = 2 * per_blob
    Q = np.vstack([centers[b] + rng.normal(0, std, (per_blob, d)) for b in (0, 1)]) * scale
    K = np.vstack([centers[b] + rng.normal(0, std, (per_blob, d)) for b in (0, 1)]) * scale
    edges = [(i, j) for i in range(n) for j in range(n) if (i < per_blob) == (j < per_blob)]
    graph = AttentionGraph(n, n, edges)
    return ScoreMatrix(Q, K), graph


class TestProjectionHead:
    def test_requires_reduction(self):
        with pytest.raises(ValueError):
            ProjectionHead(np.zeros((4, 4)), np.zeros(4))

    def test_project_zero_map(self):
        head = ProjectionHead(np.zeros((2, 5)), np.zeros(2))
        np.testing.assert_array_equal(project_rows(head, np.arange(5.0)[None, :]), [[0.0, 0.0]])

    def test_project_truncating_identity(self):
        head = ProjectionHead(np.eye(5)[:2], np.zeros(2))
        np.testing.assert_array_equal(project_rows(head, np.eye(5)[:1]), [[1.0, 0.0]])

    def test_project_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 7))
        b = rng.normal(size=3)
        X = rng.normal(size=(4, 7))
        head = ProjectionHead(W, b)
        expected = np.array(
            [[sum(W[a, c] * x[c] for c in range(7)) + b[a] for a in range(3)] for x in X]
        )
        np.testing.assert_allclose(project_rows(head, X), expected, atol=1e-12)

    def test_project_rows_matches_row_by_row(self):
        rng = np.random.default_rng(2)
        head = ProjectionHead(rng.normal(size=(3, 7)), rng.normal(size=3))
        X = rng.normal(size=(5, 7))
        np.testing.assert_allclose(
            project_rows(head, X), np.vstack([project_rows(head, x[None, :]) for x in X]),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        head = ProjectionHead(np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(ValueError):
            project_rows(head, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            project_rows(head, np.zeros(5))


class TestHingeLoss:
    def test_equal_keys_gives_margin(self):
        k = np.array([[1.0, 2.0], [-3.0, 0.5]])
        np.testing.assert_allclose(losses_of(np.zeros((2, 2)), k, k, 0.7), [0.7, 0.7])

    def test_clamped_to_zero(self):
        # q == kP and ||q - kN||^2 = 2 * margin -> max(0, margin - 2 margin) = 0
        q = np.zeros((1, 2))
        kn = np.array([[np.sqrt(2.0), 0.0]])
        np.testing.assert_array_equal(losses_of(q, q, kn, 1.0), [0.0])

    def test_forced_arithmetic(self):
        loss = losses_of([[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], 1.0)
        np.testing.assert_allclose(loss, [1.0])

    def test_nonnegative_and_zero_condition(self):
        rng = np.random.default_rng(3)
        q, kp, kn = rng.normal(size=(3, 200, 4))
        margin = rng.uniform(0.1, 2.0)
        loss = losses_of(q, kp, kn, margin)
        assert loss.shape == (200,) and np.all(loss >= 0.0)
        for i in range(200):
            dp = sum((q[i, c] - kp[i, c]) ** 2 for c in range(4))
            dn = sum((q[i, c] - kn[i, c]) ** 2 for c in range(4))
            assert loss[i] == pytest.approx(max(0.0, margin + dp - dn), abs=1e-12)
            assert (loss[i] == 0.0) == (dn >= dp + margin)


def _total_loss(W, b, q, kp, kn, margin):
    head = ProjectionHead(W, b)
    proj = [project_rows(head, X) for X in (q, kp, kn)]
    return float(losses_of(*proj, margin).sum())


class TestHingeGrad:
    def test_zero_on_flat_side(self):
        rng = np.random.default_rng(4)
        head = ProjectionHead(rng.normal(size=(2, 6)), np.zeros(2))
        q = rng.normal(size=(3, 6))
        kn = q + 100.0  # negatives far away -> loss 0
        assert not grad_of(head, q, q, kn, 1.0).any()

    def test_zero_map_sits_at_margin(self):
        head = ProjectionHead(np.zeros((2, 6)), np.zeros(2))
        rng = np.random.default_rng(5)
        q, kp, kn = rng.normal(size=(3, 4, 6))
        proj = [project_rows(head, X) for X in (q, kp, kn)]
        np.testing.assert_array_equal(losses_of(*proj, 1.0), 1.0)
        assert not grad_of(head, q, kp, kn, 1.0).any()

    def test_matches_finite_differences(self):
        # batches of 1-4 rows, every row off the hinge; the summed
        # gradient matches central differences of the summed loss
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            B = int(rng.integers(1, 5))
            W = rng.normal(size=(3, 6)) * 0.5
            b = rng.normal(size=3) * 0.1
            q, kp, kn = rng.normal(size=(3, B, 6))
            margin = 1.0
            head = ProjectionHead(W, b)
            qp, pp, np_ = (project_rows(head, X) for X in (q, kp, kn))
            slack = margin + np.sum((qp - pp) ** 2, axis=1) - np.sum((qp - np_) ** 2, axis=1)
            if np.any(np.abs(slack) <= 1e-3):  # too close to the hinge
                continue
            checked += 1
            gW = grad_of(head, q, kp, kn, margin)
            assert gW.shape == W.shape
            num = central_difference_grad(lambda Wx: _total_loss(Wx, b, q, kp, kn, margin), W)
            denom = np.maximum(1.0, np.maximum(np.abs(gW), np.abs(num)))
            assert np.max(np.abs(gW - num) / denom) < 1e-5
            assert np.all(losses_of(qp, pp, np_, margin) >= 0.0)

    def test_bias_gradient_identically_zero(self):
        # b cancels in every distance: the loss is flat in b, which is why
        # training keeps b at 0 and _hinge returns the W-gradient only
        rng = np.random.default_rng(7)
        W = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        q, kp, kn = rng.normal(size=(3, 6, 5))
        assert _total_loss(W, b, q, kp, kn, 5.0) > 0.0  # on the slope of the hinge
        num = central_difference_grad(lambda bx: _total_loss(W, bx, q, kp, kn, 5.0), b)
        np.testing.assert_allclose(num, 0.0, atol=1e-6)


class TestPairDataset:
    def test_build_filters_short_instances(self):
        sm, g = two_blob_dataset(per_blob=4)  # n = 8 < 21
        with pytest.raises(ValueError):
            build_pair_dataset([sm], [g])
        ds = build_pair_dataset([sm], [g], min_len=1)
        assert len(ds) == g.edge_count

    def test_positives_match_edges(self):
        sm, g = two_blob_dataset(per_blob=3, seed=2)
        ds = build_pair_dataset([sm], [g], min_len=1)
        assert len(ds) == g.edge_count
        for q, k, (i, j) in zip(ds.q_rows, ds.k_rows, g.edges):
            np.testing.assert_array_equal(ds.Q[q], sm.Q[i])
            np.testing.assert_array_equal(ds.K[k], sm.K[j])

    def test_eligible_keys_are_unconnected_keys(self):
        # two instances: key rows of the second are offset by the first's m;
        # draw t (clipped to the pool) must be the t-th unconnected key
        pairs = [two_blob_dataset(per_blob=3, seed=s) for s in (12, 13)]
        g0 = pairs[0][1]
        pairs[0] = (pairs[0][0], AttentionGraph(g0.n, g0.m, g0.edges[::2]))
        mats, graphs = [sm for sm, _ in pairs], [g for _, g in pairs]
        ds = build_pair_dataset(mats, graphs, min_len=1)
        _, _, keys, query_ids, eligible = pair_lists(mats, graphs)
        pools = [eligible[qid] for qid in query_ids]
        assert len(pools) == len(ds)
        for t in range(6):
            kept, negs = draw_negatives(ds, np.arange(len(ds)), _Draws(lambda h: np.minimum(t, h - 1)))
            np.testing.assert_array_equal(kept, [len(pool) > 0 for pool in pools])
            want = [pool[min(t, len(pool) - 1)] for pool in pools if pool]
            np.testing.assert_array_equal(negs, want)
            np.testing.assert_array_equal(ds.K[negs], keys[want])

    def test_pairs_must_be_sorted_runs_in_range(self):
        Q, K = np.zeros((2, 3)), np.zeros((4, 3))
        lo, hi = [0, 2], [2, 4]
        PairDataset(Q, K, [0, 0, 1], [0, 1, 3], lo, hi)
        for q_rows, k_rows in [([1, 0], [2, 0]), ([0, 0], [1, 0]), ([0, 0], [1, 1]),
                               ([0], [2]), ([2], [0]), ([0, 1], [0])]:
            with pytest.raises(ValueError):
                PairDataset(Q, K, q_rows, k_rows, lo, hi)
        for key_lo, key_hi in [([0, 2], [2, 5]), ([0, 3], [2, 2]), ([-1, 2], [2, 4])]:
            with pytest.raises(ValueError):
                PairDataset(Q, K, [0], [0], key_lo, key_hi)

    def test_single_eligible_key(self):
        # query 0 connected to every key but the last -> that key always drawn
        n = 5
        edges = [(0, j) for j in range(n - 1)] + [(i, j) for i in range(1, n) for j in range(n)]
        g = AttentionGraph(n, n, edges)
        rng = np.random.default_rng(8)
        sm = ScoreMatrix(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)))
        ds = build_pair_dataset([sm], [g], min_len=1)
        # the first n-1 positives belong to query 0
        kept, negs = draw_negatives(ds, np.arange(n - 1), np.random.default_rng(0))
        assert kept.all()
        np.testing.assert_array_equal(ds.K[negs], np.tile(sm.K[n - 1], (n - 1, 1)))

    def test_fully_connected_query_skips(self):
        g = AttentionGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        rng = np.random.default_rng(9)
        sm = ScoreMatrix(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
        ds = build_pair_dataset([sm], [g], min_len=1)
        # pairs 0 and 1 belong to query 0, which sees every key
        kept, negs = draw_negatives(ds, np.array([0, 2, 1, 2]), np.random.default_rng(0))
        np.testing.assert_array_equal(kept, [False, True, False, True])
        np.testing.assert_array_equal(negs, [1, 1])

    def test_seeded_draw_sequence_repeats(self):
        # one batched draw repeats for a seed and equals one scalar draw per
        # kept pair, in order, from the same stream
        sm, g = two_blob_dataset(per_blob=4, seed=3)
        ds = build_pair_dataset([sm], [g], rng_seed=11, min_len=1)
        pairs = np.random.default_rng(1).integers(len(ds), size=40)
        kept1, negs1 = draw_negatives(ds, pairs, np.random.default_rng(11))
        kept2, negs2 = draw_negatives(ds, pairs, np.random.default_rng(11))
        np.testing.assert_array_equal(kept1, kept2)
        np.testing.assert_array_equal(negs1, negs2)
        _, _, _, query_ids, eligible = pair_lists([sm], [g])
        scalar = np.random.default_rng(11)
        expected = []
        for p in pairs:
            pool = eligible[query_ids[p]]
            expected.append(pool[scalar.integers(len(pool))])
        np.testing.assert_array_equal(negs1, expected)

    def test_uniform_sampling(self):
        # 4 eligible keys -> each frequency near 1/4 over 10k draws
        n = 5
        edges = [(0, 0)] + [(i, j) for i in range(1, n) for j in range(n)]
        g = AttentionGraph(n, n, edges)
        rng = np.random.default_rng(10)
        sm = ScoreMatrix(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)))
        ds = build_pair_dataset([sm], [g], rng_seed=0, min_len=1)
        kept, negs = draw_negatives(ds, np.zeros(10000, dtype=np.int64), np.random.default_rng(0))
        assert kept.all()
        counts = np.bincount(negs, minlength=n)
        freqs = counts[1:] / 10000
        assert counts[0] == 0
        assert np.all((freqs >= 0.22) & (freqs <= 0.28))


class TestDrawOrder:
    """``train_projection`` draws an epoch's negatives in one
    ``Generator.integers(highs)`` call and its checkpoints assume that call
    yields the stream of one scalar ``integers(high)`` per entry.  A numpy
    that breaks this fails here instead of silently moving checkpoints."""

    @pytest.mark.parametrize(
        "highs",
        [
            [1, 1, 1],
            [1, 5, 1, 1, 2, 1, 7, 1],
            list(range(1, 300)),
            [2**31 - 1, 2**32, 2**32 + 1, 1, 3, 2**40, 1, 2**62, 17],
            [1] * 50 + [2**33] * 50 + [3] * 50,
        ],
        ids=["ones", "ones-mixed", "ramp", "large", "blocks"],
    )
    def test_batched_integers_match_scalar_draws(self, highs):
        for seed in range(5):
            batched = np.random.default_rng(seed)
            scalar = np.random.default_rng(seed)
            got = batched.integers(np.array(highs, dtype=np.int64))
            want = [scalar.integers(h) for h in highs]
            np.testing.assert_array_equal(got, want)
            # both leave the stream at the same place
            assert batched.integers(2**40) == scalar.integers(2**40)

    def test_random_bounds(self):
        rng = np.random.default_rng(99)
        highs = rng.integers(1, 2 ** rng.integers(1, 63, size=5000))
        batched = np.random.default_rng(7).integers(highs)
        scalar = np.random.default_rng(7)
        np.testing.assert_array_equal(batched, [scalar.integers(h) for h in highs])


class TestTrainProjection:
    def test_identical_positives_orthogonal_negatives_improve(self):
        # positives are (x, x) pairs, negatives orthogonal; scaled small so
        # the initial loss sits at the margin
        rng = np.random.default_rng(12)
        P = 64
        X = np.zeros((P, 6))
        X[:, 0] = rng.uniform(0.1, 0.3, P)
        X[:, 1] = rng.uniform(-0.3, 0.3, P)
        negs = np.zeros((8, 6))
        negs[:, 2] = rng.uniform(0.1, 0.3, 8)
        # query p's key range is its own copy of [X[p], negs]: the negatives
        # of every pair are the eight orthogonal keys
        K = np.concatenate([np.vstack([x, negs]) for x in X])
        rows = np.arange(P)
        ds = PairDataset(X, K, rows, 9 * rows, 9 * rows, 9 * rows + 9, rng_seed=1)
        hist = []
        train_projection(ds, TrainConfig(epochs=5, rng_seed=1), r=2, loss_history=hist)
        tenth = max(1, len(hist) // 10)
        assert np.mean(hist[-tenth:]) < np.mean(hist[:tenth])
        assert np.mean(hist[-tenth:]) <= np.mean(hist[:tenth])  # the stated contract

    def test_two_blob_separation(self):
        sm, g = two_blob_dataset(seed=4)
        ds = build_pair_dataset([sm], [g], rng_seed=4, min_len=1)
        head = train_projection(ds, TrainConfig(rng_seed=4), r=2)
        kept, negs = draw_negatives(ds, np.arange(len(ds)), np.random.default_rng(5))
        assert kept.all()
        qp = project_rows(head, ds.Q[ds.q_rows])
        d_pos = np.linalg.norm(qp - project_rows(head, ds.K[ds.k_rows]), axis=1)
        d_neg = np.linalg.norm(qp - project_rows(head, ds.K[negs]), axis=1)
        assert np.mean(d_pos < d_neg) >= 0.95
        # mean positive distance < mean negative distance in projected space
        Qp, Kp = project_rows(head, sm.Q), project_rows(head, sm.K)
        dense = g.to_dense()
        dists = np.linalg.norm(Qp[:, None, :] - Kp[None, :, :], axis=2)
        assert dists[dense].mean() < dists[~dense].mean()

    def test_zero_learning_rate_is_noop(self):
        sm, g = two_blob_dataset(per_blob=4, seed=6)
        ds = build_pair_dataset([sm], [g], rng_seed=6, min_len=1)
        cfg = TrainConfig(learning_rate=0.0, rng_seed=6)
        head = train_projection(ds, cfg, r=2)
        init = np.random.default_rng(6).uniform(
            -1 / np.sqrt(ds.d), 1 / np.sqrt(ds.d), size=(2, ds.d)
        )
        np.testing.assert_array_equal(head.W, init)
        np.testing.assert_array_equal(head.b, 0.0)

    def test_deterministic_parameters(self):
        sm, g = two_blob_dataset(per_blob=6, seed=7)
        heads = []
        for _ in range(2):
            ds = build_pair_dataset([sm], [g], rng_seed=7, min_len=1)
            heads.append(train_projection(ds, TrainConfig(rng_seed=7), r=3))
        assert np.array_equal(heads[0].W, heads[1].W)
        assert np.array_equal(heads[0].b, heads[1].b)

    def test_multiple_negatives_per_positive(self):
        sm, g = two_blob_dataset(per_blob=4, seed=8)
        ds = build_pair_dataset([sm], [g], rng_seed=8, min_len=1)
        hist = []
        train_projection(
            ds, TrainConfig(negatives_per_positive=3, rng_seed=8), r=2, loss_history=hist
        )
        assert hist  # training consumed triples

    @staticmethod
    def _graph_instances():
        # two instances; queries 0 and 3 of the first see every key
        (sm0, g0), (sm1, g1) = two_blob_dataset(per_blob=5, seed=14), two_blob_dataset(
            per_blob=4, seed=15
        )
        full = [(i, j) for i in (0, 3) for j in range(g0.m)]
        g0 = AttentionGraph(g0.n, g0.m, np.vstack([g0.edges, full]))
        return [sm0, sm1], [g0, g1]

    @staticmethod
    def _saturated_instances():
        # 43 pairs over 6 queries, of which only queries 1 and 4 have
        # negatives: with batches of 2, many batches draw none
        rng = np.random.default_rng(17)
        missing = {1: (0, 2, 5), 4: (3, 7)}
        edges = [(i, j) for i in range(6) for j in range(8) if j not in missing.get(i, ())]
        sm = ScoreMatrix(rng.normal(size=(6, 9)), rng.normal(size=(8, 9)))
        return [sm], [AttentionGraph(6, 8, edges)]

    @pytest.mark.parametrize(
        "dataset, epochs, per, batch_size",
        [("graph", 1, 1, 16), ("graph", 3, 3, 7), ("graph", 2, 2, 5), ("saturated", 3, 3, 2)],
    )
    def test_matches_per_pair_oracle(self, dataset, epochs, per, batch_size):
        mats, graphs = (self._graph_instances() if dataset == "graph"
                        else self._saturated_instances())
        ds = build_pair_dataset(mats, graphs, rng_seed=18, min_len=1)
        assert len(ds) % batch_size  # every epoch ends on a short batch
        cfg = TrainConfig(
            epochs=epochs, negatives_per_positive=per, batch_size=batch_size, rng_seed=19
        )
        hist = []
        head = train_projection(ds, cfg, r=3, loss_history=hist)
        queries, pos_keys, keys, query_ids, eligible = pair_lists(mats, graphs)
        assert any(not e for e in eligible)
        W, want = train_projection_per_pair(
            queries, pos_keys, keys, query_ids, eligible, r=3, margin=cfg.margin,
            learning_rate=cfg.learning_rate, epochs=epochs, batch_size=batch_size,
            negatives_per_positive=per, rng_seed=cfg.rng_seed, negative_seed=ds.rng_seed,
        )
        np.testing.assert_allclose(head.W, W, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(head.b, 0.0)
        assert len(hist) == len(want)
        np.testing.assert_allclose(hist, want, rtol=0, atol=1e-12)
        if dataset == "saturated":  # some batches took no step
            assert len(hist) < epochs * -(-len(ds) // batch_size)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_pair_dataset([], [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        head = ProjectionHead(rng.normal(size=(4, 9)), rng.normal(size=4))
        path = tmp_path / "head.txt"
        save_head(head, path)
        loaded = load_head(path)
        assert np.array_equal(loaded.W, head.W)
        assert np.array_equal(loaded.b, head.b)
        header = path.read_text().splitlines()[0]
        assert header == "9 4"  # 'd r'

    def test_malformed_checkpoint(self, tmp_path):
        from sparseattn import DataError

        path = tmp_path / "bad.txt"
        path.write_text("9 4\n1 2 3\n")
        with pytest.raises(DataError):
            load_head(path)
