import json

import numpy as np
import pytest

from sparseattn import (
    ConfigError,
    KMeansConfig,
    ParetoPoint,
    PatternGrid,
    SweepArtifacts,
    SweepRecord,
    SyntheticSpec,
    aggregate_records,
    build_pair_dataset,
    extract_graph,
    generate_instances,
    gold_sparsity_of,
    kmeans_fit,
    pareto_frontier,
    per_method_frontiers,
    project_rows,
    read_sweep_csv,
    report,
    run_sweep,
    sparsity,
    train_projection,
    write_sweep_csv,
)
from sparseattn.projection import TrainConfig

from oracles import pareto_brute_force


class TestParetoFrontier:
    def test_forced_example(self):
        pts = [ParetoPoint(0.5, 0.9), ParetoPoint(0.6, 0.8), ParetoPoint(0.55, 0.7)]
        assert pareto_frontier(pts) == [pts[0], pts[1]]

    def test_single_point(self):
        pts = [ParetoPoint(0.3, 0.4)]
        assert pareto_frontier(pts) == pts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([])

    def test_duplicates_survive_together(self):
        pts = [ParetoPoint(0.5, 0.9), ParetoPoint(0.5, 0.9), ParetoPoint(0.5, 0.8)]
        assert pareto_frontier(pts) == [pts[0], pts[1]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = [
                ParetoPoint(float(s), float(r))
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
        pts = [ParetoPoint(float(s), float(r)) for s, r in rng.random((40, 2))]
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
        with pytest.raises(ConfigError, match="unknown method"):
            run_sweep(mats, ["sliding"], artifacts=arts)

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
