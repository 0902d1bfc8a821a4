import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseattn import (
    AttentionGraph,
    ConfigError,
    KMeansConfig,
    PatternGrid,
    SweepArtifacts,
    SweepRecord,
    SyntheticSpec,
    aggregate_records,
    build_pair_dataset,
    extract_graph,
    generate_instances,
    gold_sparsity_of,
    graph_union,
    kmeans_fit,
    pareto_frontier,
    per_method_frontiers,
    project_rows,
    read_sweep_csv,
    recall,
    report,
    run_sweep,
    sparsity,
    train_projection,
    write_sweep_csv,
)
from sparseattn import sweep
from sparseattn.projection import TrainConfig

from oracles import pareto_brute_force, run_sweep_uncached


def point(s, r):
    """A record with only the coordinates the frontier reads."""
    return SweepRecord("m", {}, 0, 0, s, r)


class TestParetoFrontier:
    def test_forced_example(self):
        pts = [point(0.5, 0.9), point(0.6, 0.8), point(0.55, 0.7)]
        assert pareto_frontier(pts) == [pts[0], pts[1]]

    def test_single_point(self):
        pts = [point(0.3, 0.4)]
        assert pareto_frontier(pts) == pts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([])

    def test_duplicates_survive_together(self):
        pts = [point(0.5, 0.9), point(0.5, 0.9), point(0.5, 0.8)]
        assert pareto_frontier(pts) == [pts[0], pts[1]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = [
                point(float(s), float(r))
                for s, r in rng.random((int(rng.integers(1, 60)), 2))
            ]
            got = pareto_frontier(pts)
            want = pareto_brute_force(pts)
            assert sorted((p.sparsity, p.recall) for p in got) == sorted(
                (p.sparsity, p.recall) for p in want
            )
            # no output point is dominated, every output point is an input
            for p in got:
                assert p in pts

    def test_sorted_by_sparsity(self):
        rng = np.random.default_rng(2)
        pts = [point(float(s), float(r)) for s, r in rng.random((40, 2))]
        front = pareto_frontier(pts)
        assert [p.sparsity for p in front] == sorted(p.sparsity for p in front)


def small_setup(num_instances=3, n=16, d=8, seed=0, causal=False):
    spec = SyntheticSpec(
        n=n, m=n, d=d, num_instances=num_instances, num_clusters=2,
        cluster_std=0.15, center_scale=1.2, seed=seed, causal=causal,
    )
    mats = generate_instances(spec)
    golds = [extract_graph(sm) for sm in mats]
    ds = build_pair_dataset(mats, golds, rng_seed=seed, min_len=1)
    head = train_projection(ds, TrainConfig(rng_seed=seed), r=4)
    arts = SweepArtifacts(heads={(0, 0): head})
    pooled = np.vstack(
        [np.vstack([project_rows(head, sm.Q), project_rows(head, sm.K)]) for sm in mats]
    )
    for B in (2, 4):
        arts.centroids[(0, 0, B)] = kmeans_fit(pooled, B, KMeansConfig(seed=seed))
    return mats, golds, arts


class TestRunSweep:
    def test_window_only_at_max_width(self):
        mats, golds, arts = small_setup()
        recs = run_sweep(
            mats, ["window"], pattern_grid=PatternGrid(windows=(31,)), artifacts=arts
        )
        assert len(recs) == 1
        assert recs[0].sparsity == 0.0
        assert recs[0].recall == 1.0

    def test_distance_below_min_distance(self):
        mats, golds, arts = small_setup()
        recs = run_sweep(
            mats, ["distance"], grids={"distance": {"t": [0.0]}},
            pattern_grid=PatternGrid(windows=(0,)), artifacts=arts,
        )
        assert recs[0].recall == 0.0
        assert recs[0].sparsity == 1.0

    def test_record_count_enumeration(self):
        mats, golds, arts = small_setup(num_instances=4)
        recs = run_sweep(
            mats,
            ["distance", "clustering"],
            grids={"distance": {"t": [1.0, 2.0]}, "clustering": {"B": [2, 4], "k": [1]}},
            pattern_grid=PatternGrid(windows=(0,)),
            artifacts=arts,
        )
        # 2 methods x 2 settings x 1 window x 1 head = 4 records
        assert len(recs) == 4
        assert all(rec.layer == 0 and rec.head == 0 for rec in recs)

    def test_missing_artifact_raises_config_error(self):
        mats, golds, arts = small_setup()
        with pytest.raises(ConfigError, match="projection"):
            run_sweep(mats, ["distance"], pattern_grid=PatternGrid(windows=(0,)))
        arts_no_centroids = SweepArtifacts(heads=small_setup()[2].heads)
        with pytest.raises(ConfigError, match="centroids"):
            run_sweep(
                mats, ["clustering"], grids={"clustering": {"B": [8], "k": [1]}},
                pattern_grid=PatternGrid(windows=(0,)), artifacts=arts_no_centroids,
            )
        # the centroid count comes from grid key B (clustering) or c (routing)
        for method, grid, B in (("clustering", {"B": [2, 8], "k": [1]}, 8),
                                ("routing", {"c": [4, 6]}, 6)):
            with pytest.raises(ConfigError) as err:
                run_sweep(mats, [method], grids={method: grid},
                          pattern_grid=PatternGrid(windows=(0,)), artifacts=arts)
            assert str(err.value) == f"method '{method}' needs centroids B={B} for layer/head (0, 0)"

    def test_unknown_method(self):
        mats, golds, arts = small_setup()
        with pytest.raises(ConfigError) as err:
            run_sweep(mats, ["sliding"], artifacts=arts)
        assert str(err.value) == (
            "unknown method 'sliding'; choose from ('window', 'distance', 'quantization', "
            "'clustering', 'routing', 'lsh', 'bigbird', 'longformer')")
        with pytest.raises(ConfigError, match="repeat"):
            run_sweep(mats, ["window", "window"], artifacts=arts)

    def test_default_grids_pass_their_own_checks(self):
        for method, spec in sweep.METHODS.items():
            for name, (kind, least, values) in spec.grid.items():
                assert sweep.check_value(name, values, [kind], least) == tuple(values)
            if spec.centroids:
                assert spec.centroids in spec.grid
        sweep.validate_grids(list(sweep.METHODS), {
            method: {name: values for name, (*_, values) in spec.grid.items()}
            for method, spec in sweep.METHODS.items()})

    @pytest.mark.parametrize("grids", [
        {"distance": {"tt": [1.0]}}, {"clusterin": {"B": [4]}}, {"distance": {"t": []}},
        {"distance": {"t": 1.0}}, {"distance": [1.0]}, [("distance", {"t": [1.0]})],
        {"quantization": {"beta": [2.5]}}, {"quantization": {"beta": ["2"]}},
        {"quantization": {"beta": [2, 2]}}, {"distance": {"t": [-1.0]}},
        {"distance": {"t": [float("nan")]}}, {"bigbird": {"num_blocks": [True]}},
    ])
    def test_invalid_grid_raises_config_error(self, grids):
        mats, golds, arts = small_setup()
        with pytest.raises(ConfigError):
            run_sweep(mats, ["distance"], grids=grids, artifacts=arts)

    def test_deterministic_and_parallel_identical(self, tmp_path):
        mats, golds, arts = small_setup()
        kwargs = dict(
            grids={"clustering": {"B": [2, 4], "k": [1]},
                   "bigbird": {"num_blocks": [4]},
                   "lsh": {"num_buckets": [2], "rounds": [1]}},
            pattern_grid=PatternGrid(windows=(0, 3)),
            artifacts=arts,
            seed=7,
        )
        methods = ["window", "clustering", "bigbird", "lsh"]
        seq = run_sweep(mats, methods, workers=1, **kwargs)
        par = run_sweep(mats, methods, workers=3, **kwargs)
        assert seq == par
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(seq, p1)
        write_sweep_csv(par, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multi_head_records(self):
        spec = SyntheticSpec(n=12, m=12, d=6, num_heads=2, num_instances=2, seed=3)
        mats = generate_instances(spec)
        recs = run_sweep(mats, ["window"], pattern_grid=PatternGrid(windows=(1, 3)))
        assert len(recs) == 4  # 2 windows x 2 heads
        assert {(r.layer, r.head) for r in recs} == {(0, 0), (0, 1)}

    def test_longformer_globals_increase_recall(self):
        mats, golds, arts = small_setup()
        recs = run_sweep(
            mats, ["longformer"], grids={"longformer": {"num_globals": [0, 8]}},
            pattern_grid=PatternGrid(windows=(0,)), artifacts=arts,
        )
        by_g = {rec.hyperparams["num_globals"]: rec for rec in recs}
        assert by_g[8].recall >= by_g[0].recall
        assert by_g[8].sparsity <= by_g[0].sparsity


ALL_METHODS = ["window", "distance", "quantization", "clustering", "routing", "lsh",
               "bigbird", "longformer"]
FULL_GRIDS = {
    "distance": {"t": [1.0, 2.5]},
    "quantization": {"beta": [1, 3]},
    "clustering": {"B": [2, 4], "k": [1, 2]},
    "routing": {"c": [2, 4]},
    "lsh": {"num_buckets": [2, 4], "rounds": [1, 2]},
    "bigbird": {"num_blocks": [3, 500]},
    "longformer": {"num_globals": [0, 3]},
}


class TestAgainstUncachedSweep:
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("global_mode", ["random", "prefix"])
    def test_records_and_csv_bytes_equal(self, tmp_path, causal, global_mode):
        # n = 13 gives 169 cells, not a multiple of 8, so a mask's last
        # byte is padded
        for n in (16, 13):
            self._check_against_uncached(tmp_path, small_setup(n=n, causal=causal), global_mode)

    @staticmethod
    def _check_against_uncached(tmp_path, setup, global_mode):
        mats, _, arts = setup
        global_counts, seed = (0, 2), 11
        # n <= 16, so window 17 covers every row; the last order is shuffled,
        # and the reference runs its windows in sorted order
        for windows in ((0, 3), (0, 3, 7), (17, 3, 0, 7)):
            want = run_sweep_uncached(mats, ALL_METHODS, FULL_GRIDS, sorted(windows),
                                      global_counts, global_mode, arts, alpha=1.5, seed=seed)
            want_csv = tmp_path / "want.csv"
            write_sweep_csv(want, want_csv)
            grid = PatternGrid(windows=windows, global_counts=global_counts,
                               global_mode=global_mode)
            for workers in (1, 2):
                got = run_sweep(mats, ALL_METHODS, grids=FULL_GRIDS, pattern_grid=grid,
                                artifacts=arts, alpha=1.5, seed=seed, workers=workers)
                assert got == want
                got_csv = tmp_path / f"got{workers}.csv"
                write_sweep_csv(got, got_csv)
                assert got_csv.read_bytes() == want_csv.read_bytes()


class TestSharedPredictions:
    @pytest.mark.parametrize("windows, global_counts", [((0,), (0,)), ((0, 3, 7, 17), (0, 2))],
                             ids=["one-point", "eight-points"])
    def test_deterministic_predictors_run_once_per_instance(self, monkeypatch, windows,
                                                           global_counts):
        mats, _, arts = small_setup(num_instances=2)
        calls = Counter()
        for name in ("distance_pairing", "cluster_qk", "quantize_qk", "routing_assign",
                     "lsh_assign", "bigbird_random_blocks"):
            def counted(*args, _fn=getattr(sweep, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(sweep, name, counted)
        run_sweep(mats, ALL_METHODS, grids=FULL_GRIDS, artifacts=arts,
                  pattern_grid=PatternGrid(windows=windows, global_counts=global_counts))
        per_instance = len(mats)
        per_cell = len(windows) * len(global_counts) * len(mats)
        assert calls == {
            "distance_pairing": 2 * per_instance,
            "quantize_qk": 2 * per_instance,
            "cluster_qk": 4 * per_instance,
            "routing_assign": 2 * 2 * per_instance,  # queries and keys
            "lsh_assign": 4 * 2 * per_cell,  # queries and keys
            "bigbird_random_blocks": 2 * per_cell,
        }


@st.composite
def _graph_triple(draw, relation, causal):
    """Learned, pattern and gold graphs over one random shape; ``relation``
    ties the learned graph to the pattern."""
    n = draw(st.integers(1, 9))
    m = n if causal else draw(st.integers(1, 9).filter(lambda m: m != n))
    cells = [(i, j) for i in range(n) for j in range(m) if not causal or j <= i]
    subset = st.sets(st.sampled_from(cells))
    learned, pattern = draw(subset), draw(subset)
    gold = draw(st.sets(st.sampled_from(cells), min_size=1))
    if relation == "empty L":
        learned = set()
    elif relation == "empty P":
        pattern = set()
    elif relation == "P in L":
        learned |= pattern
    elif relation == "L in P":
        pattern |= learned
    return tuple(AttentionGraph(n, m, sorted(edges), causal=causal)
                 for edges in (learned, pattern, gold))


class TestCountScoring:
    @pytest.mark.parametrize("relation", ["any", "empty L", "empty P", "P in L", "L in P"])
    @pytest.mark.parametrize("causal", [False, True], ids=["n!=m", "causal"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_scores_of_the_materialised_union(self, relation, causal, data):
        L, P, G = data.draw(_graph_triple(relation, causal))
        learned, pattern, gold_mask = (sweep._mask(g) for g in (L, P, G))
        assert [sweep._popcount(mask) for mask in (learned, pattern, gold_mask)] == [
            g.edge_count for g in (L, P, G)]
        union = graph_union(L, P)
        assert (sweep._union_scores(learned, pattern, gold_mask, G)
                == (sparsity(union), recall(union, G)))
        # the pattern-only methods pass no learned graph: P is scored alone
        assert sweep._union_scores(None, pattern, gold_mask, G) == (sparsity(P), recall(P, G))


class TestPatternGridValidation:
    @pytest.mark.parametrize("kwargs", [
        {"windows": "37"}, {"windows": 3}, {"windows": (0, 2)}, {"windows": (-1,)},
        {"windows": (3.0,)}, {"windows": (True,)}, {"windows": ()},
        {"global_counts": (-1,)}, {"global_counts": "2"}, {"global_counts": (0.5,)},
        {"global_mode": "first"}, {"windows": (3, 3)}, {"global_counts": (0, 0)},
        {"global_counts": ()}, {"global_counts": (np.float64(1.0),)},
    ])
    def test_invalid_settings_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            PatternGrid(**kwargs)

    def test_lists_become_int_tuples(self):
        grid = PatternGrid(windows=[0, np.int64(3)], global_counts=[2])
        assert grid.windows == (0, 3) and grid.global_counts == (2,)
        assert all(type(w) is int for w in grid.windows)


class TestReports:
    def _records(self):
        mats, golds, arts = small_setup()
        return (
            run_sweep(
                mats,
                ["window", "distance"],
                grids={"distance": {"t": [1.0, 3.0]}},
                pattern_grid=PatternGrid(windows=(0, 3)),
                artifacts=arts,
            ),
            mats,
            golds,
        )

    def test_csv_round_trip(self, tmp_path):
        recs, _, _ = self._records()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(recs, path)
        assert read_sweep_csv(path) == recs

    def test_frontier_points_are_records(self):
        recs, _, _ = self._records()
        agg = aggregate_records(recs)
        for method, front in per_method_frontiers(recs).items():
            for p in front:
                assert p in agg
                assert p.method == method
                assert not any(
                    q.sparsity >= p.sparsity and q.recall >= p.recall
                    and (q.sparsity > p.sparsity or q.recall > p.recall)
                    for q in agg if q.method == method
                )

    def test_report_files(self, tmp_path):
        recs, mats, golds = self._records()
        gold_s = float(np.mean([sparsity(g) for g in golds]))
        summary = report(recs, per_method_frontiers(recs), tmp_path, gold_s)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "pareto.csv").exists()
        with open(tmp_path / "summary.json") as fh:
            loaded = json.load(fh)
        assert loaded == summary
        assert loaded["gold_sparsity"] == gold_s
        assert loaded["gold_sparsity"] == gold_sparsity_of(mats)
        assert set(loaded["methods"]) == {"window", "distance"}

    def test_aggregate_means(self):
        recs = [
            SweepRecord("m", {"x": 1}, 0, 0, 0.4, 0.8),
            SweepRecord("m", {"x": 1}, 0, 1, 0.6, 0.6),
        ]
        agg = aggregate_records(recs)
        assert len(agg) == 1
        assert agg[0].sparsity == pytest.approx(0.5)
        assert agg[0].recall == pytest.approx(0.7)
        assert (agg[0].layer, agg[0].head) == (-1, -1)

    def test_record_bounds_validated(self):
        with pytest.raises(ValueError):
            SweepRecord("m", {}, 0, 0, 1.5, 0.5)
