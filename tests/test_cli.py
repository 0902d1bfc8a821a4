import json
import os

import numpy as np
import pytest

from sparseattn import cli, read_graph, read_sweep_csv, sparsity


@pytest.fixture()
def exp(tmp_path):
    """A small end-to-end experiment directory (gen through fit-kmeans)."""
    cfg = {
        "n": 16, "d": 8, "num_instances": 3, "num_clusters": 2,
        "cluster_std": 0.15, "center_scale": 1.2,
        "min_len": 1,
        "B_list": [2, 4],
        "methods": ["window", "distance", "clustering"],
        "grids": {
            "distance": {"t": [1.0, 3.0]},
            "clustering": {"B": [2, 4], "k": [1]},
        },
        "windows": [0, 3],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "exp")
    base = ["--config", str(cfg_path), "--out", out, "--seed", "5"]
    for cmd in ("gen", "extract", "train-proj", "fit-kmeans"):
        assert cli.main([cmd] + base) == 0
    return tmp_path, cfg_path, out, base


class TestPipeline:
    def test_artifacts_exist(self, exp):
        _, _, out, _ = exp
        assert os.path.exists(os.path.join(out, "data", "manifest.json"))
        assert os.path.exists(os.path.join(out, "graphs", "meta.json"))
        assert os.path.exists(os.path.join(out, "proj", "head_l0_h0.txt"))
        assert os.path.exists(os.path.join(out, "kmeans", "c_l0_h0_B2.txt"))

    def test_sweep_and_pareto(self, exp):
        _, _, out, base = exp
        assert cli.main(["sweep"] + base) == 0
        for name in ("sweep.csv", "pareto.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        records = read_sweep_csv(os.path.join(out, "sweep.csv"))
        assert {r.method for r in records} == {"window", "distance", "clustering"}
        assert cli.main(["pareto"] + base) == 0

    def test_summary_gold_sparsity_matches_graph_files(self, exp):
        _, _, out, base = exp
        assert cli.main(["sweep"] + base) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "graphs", "meta.json")) as fh:
            meta = json.load(fh)
        recomputed = float(np.mean([
            sparsity(read_graph(os.path.join(out, "graphs", entry["path"])))
            for entry in meta["graphs"]
        ]))
        assert summary["gold_sparsity"] == pytest.approx(recomputed, abs=1e-15)

    def test_sweep_deterministic_bytes(self, exp):
        tmp_path, cfg_path, out, base = exp
        assert cli.main(["sweep"] + base) == 0
        first = open(os.path.join(out, "sweep.csv"), "rb").read()
        assert cli.main(["sweep"] + base) == 0
        assert open(os.path.join(out, "sweep.csv"), "rb").read() == first
        out2 = str(tmp_path / "exp2")
        args = ["sweep", "--config", str(cfg_path), "--out", out2, "--seed", "5",
                "--data", os.path.join(out, "data"),
                "--graphs", os.path.join(out, "graphs"),
                "--proj", os.path.join(out, "proj"),
                "--kmeans", os.path.join(out, "kmeans"),
                "--workers", "2"]
        assert cli.main(args) == 0
        assert open(os.path.join(out2, "sweep.csv"), "rb").read() == first

    def test_sweep_reads_only_graph_metadata(self, exp):
        # the gold graphs are re-extracted from Q/K; only meta.json is read
        _, _, out, base = exp
        assert cli.main(["sweep"] + base) == 0
        first = open(os.path.join(out, "sweep.csv"), "rb").read()
        graphs_dir = os.path.join(out, "graphs")
        for name in os.listdir(graphs_dir):
            if name != "meta.json":
                os.remove(os.path.join(graphs_dir, name))
        assert cli.main(["sweep"] + base) == 0
        assert open(os.path.join(out, "sweep.csv"), "rb").read() == first
        meta_path = os.path.join(graphs_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        del meta["gold_sparsity"]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert cli.main(["sweep"] + base) == 3
        os.remove(meta_path)
        assert cli.main(["sweep"] + base) == 3

    def test_extract_reads_a_data_directory_outside_out(self, exp, tmp_path):
        _, cfg_path, out, _ = exp
        out2 = tmp_path / "elsewhere"
        argv = ["extract", "--config", str(cfg_path), "--out", str(out2),
                "--data", os.path.join(out, "data")]
        assert cli.main(argv) == 0
        assert not (out2 / "data").exists()
        names = sorted(os.listdir(os.path.join(out, "graphs")))
        assert sorted(os.listdir(out2 / "graphs")) == names
        for name in names:
            with open(os.path.join(out, "graphs", name), "rb") as fh:
                assert (out2 / "graphs" / name).read_bytes() == fh.read(), name

    def test_pattern_only_sweep_needs_no_projection(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8, "d": 4, "methods": ["window", "longformer"], "windows": [0, 3],
            "grids": {"longformer": {"num_globals": [2]}},
        }))
        out = str(tmp_path / "exp")
        base = ["--config", str(cfg), "--out", out]
        assert cli.main(["gen"] + base) == 0
        assert cli.main(["extract"] + base) == 0
        assert cli.main(["sweep"] + base) == 0
        assert not os.path.exists(os.path.join(out, "proj"))
        records = read_sweep_csv(os.path.join(out, "sweep.csv"))
        assert {r.method for r in records} == {"window", "longformer"}

    def test_bench_and_verify(self, exp, tmp_path, capsys):
        _, _, out, base = exp
        bench_cfg = tmp_path / "bench.json"
        bench_cfg.write_text(json.dumps({
            "bench_n": 48, "bench_d": 12, "z_list": [8], "top_k_list": [2],
            "variants": ["v1"], "repeats": 3,
        }))
        assert cli.main(["bench", "--config", str(bench_cfg), "--out", out, "--seed", "1"]) == 0
        lines = open(os.path.join(out, "bench.csv")).read().splitlines()
        assert lines[0].startswith("variant,n,d,z,top_k,window,median_ms")
        assert len(lines) == 3  # header + dense + v1
        capsys.readouterr()
        assert cli.main(["verify", "--seed", "2", "--out", out]) == 0
        assert capsys.readouterr().out == (
            "verify: OK: 5 sparse-attention heads (1,099 rows), zero violations\n")


class TestExitCodes:
    def test_unknown_generator_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"generator": "magic"}))
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["gen", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_tensor_is_data_error(self, exp):
        _, _, out, base = exp
        victim = os.path.join(out, "data", "l0_h0_i0_q.txt")
        with open(victim) as fh:
            lines = fh.read().splitlines()
        with open(victim, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        assert cli.main(["extract"] + base) == 3

    _SWEEP_HEADER = b"method,hyperparams,layer,head,sparsity,recall\n"

    @pytest.mark.parametrize("text, line", [
        # the header of sweep.csv before its always-empty runtime_ms column was dropped
        (b"method,hyperparams,layer,head,sparsity,recall,runtime_ms\n"
         b"window,window=0,0,0,0.5,0.5,\n", 1),
        (_SWEEP_HEADER + b"window,window=0,0,0,0.5,0.5\nwindow,window=0,0,0,half,0.5\n", 3),
        (_SWEEP_HEADER + b"window,window=0,0,0,1.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0,0,0.5,-0.1\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0,0,nan,0.5\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0.5,0,0.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0,h,0.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0,0,0.5,0.5\nwindow,window=\xc3\xa9,0,0,0.5,0.5\n", 3),
        (_SWEEP_HEADER + b"window," + b"w" * 200_000 + b",0,0,0.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,window=0,0,0,0.5,0.5\nclustering,t,0,0,0.5,0.5\n", 3),
        (_SWEEP_HEADER + b"window,=1,0,0,0.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,w=1|w=2,0,0,0.5,0.5\n", 2),
        (_SWEEP_HEADER + b"window,w=1|,0,0,0.5,0.5\n", 2),
    ], ids=["seven-columns", "unparsable-float", "sparsity-above-1", "negative-recall",
            "nan-sparsity", "fractional-layer", "non-integer-head", "non-ascii-byte",
            "field-above-csv-limit", "hyperparam-without-equals", "empty-hyperparam-key",
            "repeated-hyperparam-key", "empty-hyperparam-part"])
    def test_seven_column_sweep_csv_is_data_error(self, tmp_path, capsys, text, line):
        records = tmp_path / "sweep.csv"
        records.write_bytes(text)
        assert cli.main(["pareto", "--records", str(records), "--out", str(tmp_path / "o")]) == 3
        assert f"{records}:{line}: " in capsys.readouterr().err

    def test_corrupt_centroid_file_is_data_error(self, exp):
        _, _, out, base = exp
        with open(os.path.join(out, "kmeans", "c_l0_h0_B2.txt"), "a") as fh:
            fh.write("1 2\n")  # one row more than the header promises
        assert cli.main(["sweep"] + base) == 3

    @pytest.mark.parametrize("cmd, edit", [
        ("train-proj", lambda meta: {**meta, "graphs": [
            {k: v for k, v in meta["graphs"][0].items() if k != "path"}] + meta["graphs"][1:]}),
        ("train-proj", lambda meta: {**meta, "graphs": 5}),
        ("train-proj", lambda meta: {**meta, "graphs": ["g.txt"] + meta["graphs"][1:]}),
        ("train-proj", lambda meta: {**meta, "graphs": [{**meta["graphs"][0], "path": 123}]}),
        ("train-proj", lambda meta: [meta]),
        ("sweep", lambda meta: {**meta, "gold_sparsity": "a"}),
        ("sweep", lambda meta: {**meta, "gold_sparsity": 1.5}),
        ("sweep", lambda meta: {**meta, "gold_sparsity": float("nan")}),
        ("sweep", lambda meta: {**meta, "gold_sparsity": True}),
        ("train-proj", lambda meta: {**meta, "graphs": [
            {**meta["graphs"][0], "layer": 0.7}] + meta["graphs"][1:]}),
        ("train-proj", lambda meta: {**meta, "graphs": [
            {**meta["graphs"][0], "head": True}] + meta["graphs"][1:]}),
        ("train-proj", lambda meta: {**meta, "graphs": [
            {**meta["graphs"][0], "instance": 1.0}] + meta["graphs"][1:]}),
        ("sweep", lambda meta: {**meta, "alpha": "a"}),
        ("sweep", lambda meta: {k: v for k, v in meta.items() if k != "alpha"}),
        ("sweep", lambda meta: {**meta, "alpha": 0.5}),
        ("sweep", lambda meta: {**meta, "alpha": float("inf")}),
        ("sweep", lambda meta: {**meta, "alpha": True}),
        ("sweep", lambda meta: {**meta, "alpha": 10**400}),
    ], ids=["entry-without-path", "graphs-not-a-list", "entry-not-an-object",
            "path-not-a-string", "not-an-object", "string-gold-sparsity",
            "gold-sparsity-above-1", "nan-gold-sparsity", "bool-gold-sparsity",
            "float-layer", "bool-head", "float-instance", "string-alpha", "no-alpha",
            "alpha-below-1", "infinite-alpha", "bool-alpha", "alpha-beyond-float"])
    def test_malformed_graph_metadata_is_data_error(self, exp, capsys, cmd, edit):
        _, _, out, base = exp
        meta_path = os.path.join(out, "graphs", "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        with open(meta_path, "w") as fh:
            json.dump(edit(meta), fh)
        capsys.readouterr()
        assert cli.main([cmd] + base) == 3
        assert meta_path in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "sweep.csv"))

    def test_fit_bins_is_gone(self, exp):
        _, _, _, base = exp
        assert cli.main(["fit-bins"] + base) == 2

    def test_bench_runs_at_any_alpha(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "bench_n": 32, "bench_d": 8, "z_list": [8], "top_k_list": [2],
            "variants": ["v1"], "repeats": 3,
        }))
        for alpha in ("2", "1.25"):
            out = tmp_path / alpha
            argv = ["bench", "--alpha", alpha, "--config", str(cfg), "--out", str(out)]
            assert cli.main(argv) == 0, alpha
            assert len((out / "bench.csv").read_text().splitlines()) == 3, alpha

    def test_sweep_alpha_must_match_extract_alpha(self, exp):
        _, _, out, base = exp
        assert cli.main(["extract", "--alpha", "1.25"] + base) == 0
        assert cli.main(["sweep", "--alpha", "1.5"] + base) == 2
        assert not os.path.exists(os.path.join(out, "summary.json"))

    def test_causal_flag_contradicting_data_is_config_error(self, exp):
        _, _, out, base = exp  # the fixture's data is not causal
        before = open(os.path.join(out, "graphs", "g_l0_h0_i0.txt"), "rb").read()
        for cmd in ("extract", "train-proj", "fit-kmeans", "sweep"):
            assert cli.main([cmd, "--causal"] + base) == 2, cmd
        assert open(os.path.join(out, "graphs", "g_l0_h0_i0.txt"), "rb").read() == before
        assert not os.path.exists(os.path.join(out, "summary.json"))

    def test_causal_flag_matching_data_is_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, "d": 4, "causal": True}))
        base = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(["gen"] + base) == 0
        assert cli.main(["extract", "--causal"] + base) == 0
        assert read_graph(str(tmp_path / "o" / "graphs" / "g_l0_h0_i0.txt")).causal

    def test_sweep_without_artifacts_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8, "d": 4, "min_len": 1, "methods": ["distance"], "windows": [0],
        }))
        out = str(tmp_path / "exp")
        base = ["--config", str(cfg), "--out", out]
        assert cli.main(["gen"] + base) == 0
        assert cli.main(["extract"] + base) == 0
        assert cli.main(["sweep"] + base) == 2  # no trained projection

    @pytest.mark.parametrize("extra, setting", [
        (["--workers", "0"], {}),
        (["--workers", "-2"], {}),
        ([], {"global_counts": [-1]}),
        ([], {"windows": "37"}),
        ([], {"windows": [0, 2]}),
        ([], {"grids": {"distance": {"tt": [1.0]}}}),
        ([], {"grids": {"clusterin": {"B": [4]}}}),
        ([], {"grids": {"distance": {"t": []}}}),
        ([], {"grids": {"distance": {"t": 1.0}}}),
        ([], {"lerning_rate": 0.01}),
        ([], {"causal": "false"}),
        ([], {"epochs": 1.9}),
        ([], {"epochs": 2.0}),
        ([], {"n": 8.0}),
        ([], {"margin": True}),
        ([], {"B_list": []}),
        ([], {"B_list": [2, 2]}),
        ([], {"grids": {"quantization": {"beta": [2.5]}}}),
        ([], {"grids": {"quantization": {"beta": ["2"]}}}),
        ([], {"grids": {"quantization": {"beta": [2, 2]}}}),
        ([], {"windows": [3, 3]}),
        ([], {"kmeans_sample": -1}),
        ([], {"seed": 1.5}),
        ([], {"workers": "2"}),
        ([], {"methods": ["window", "window"]}),
        ([], {"grids": {"clustering": {"B": [2], "k": [3]}}}),
    ], ids=["workers-0", "workers-negative", "negative-globals", "windows-string", "even-window",
            "unknown-parameter", "unknown-method-grid", "empty-grid", "scalar-grid",
            "unknown-key", "string-for-bool", "float-for-int", "integral-float-for-int",
            "float-size", "bool-for-number", "empty-list", "repeated-list-element",
            "fractional-grid-int", "string-grid-int", "repeated-grid-value", "repeated-window",
            "negative-kmeans-sample",
            "fractional-seed", "string-workers", "repeated-method", "clustering-k-above-B"])
    def test_invalid_sweep_setting_rejected_before_any_work(self, exp, monkeypatch, extra, setting):
        tmp_path, cfg_path, out, _ = exp
        cfg = json.loads(cfg_path.read_text())
        cfg.update(setting)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep read its data before rejecting the setting")

        monkeypatch.setattr(cli, "load_qk", no_work)
        monkeypatch.setattr(cli, "run_sweep", no_work)
        argv = ["sweep", "--config", str(bad), "--out", out, "--seed", "5"] + extra
        assert cli.main(argv) == 2
        assert not os.path.exists(os.path.join(out, "sweep.csv"))

    @pytest.mark.parametrize("setting", [
        {"lerning_rate": 0.01}, {"causal": "false"}, {"epochs": 1.9},
        {"grids": {"quantization": {"beta": [2.5]}}},
        {"variants": ["v1", "v3"]}, {"repeats": 2}, {"bench_d": 1}, {"bench_window": 2},
        {"z_list": [0]}, {"top_k_list": [0]}, {"kmeans_sample": 2, "B_list": [4]},
        {"bench_n": 32, "bench_d": 8, "z_list": [8], "top_k_list": [8], "variants": ["v2"],
         "repeats": 3},
        {"bench_n": 32, "bench_d": 8, "z_list": [8], "top_k_list": [8], "variants": ["v1"],
         "repeats": 3},
    ], ids=["unknown-key", "string-for-bool", "float-for-int", "float-in-int-grid",
            "unknown-variant", "two-repeats", "one-bench-dim", "even-bench-window",
            "zero-block-size", "zero-top-k", "kmeans-sample-below-B", "v2-top-k-above-centroids",
            "v1-top-k-above-blocks"])
    @pytest.mark.parametrize("cmd", ["gen", "train-proj", "fit-kmeans", "bench", "verify"])
    def test_bad_config_rejected_before_any_output(self, tmp_path, monkeypatch, cmd, setting):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{cmd} started work before rejecting the config")

        for name in ("load_qk", "generate_instances", "bench_masked_attention",
                     "audit_sparse_attention"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "out"
        assert cli.main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_trials_flag_is_gone(self, tmp_path, capsys):
        assert cli.main(["verify", "--trials", "5", "--out", str(tmp_path / "o")]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_trials_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trials": 5}))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key 'trials'" in capsys.readouterr().err

    def test_verify_reports_sparse_attention_violations_with_exit_4(self, tmp_path, monkeypatch,
                                                                     capsys):
        monkeypatch.setattr(
            cli, "audit_sparse_attention",
            lambda seed, alpha: [{"head": 3, "n": 512, "causal": False, "check": "cover",
                                  "max_abs_diff": 0.5}],
        )
        assert cli.main(["verify", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().out.splitlines() == [
            "verify: FAIL: 1/5 sparse-attention heads violate sparse consistency",
            "  head 3 (cover): n=512 causal=False max diff 0.5"]

    def test_parser_is_built_once_and_keeps_no_values(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "audit_sparse_attention",
                            lambda seed, alpha: seen.append((seed, alpha)) or [])
        assert cli.main(["verify", "--seed", "3", "--alpha", "1.25"]) == 0
        assert cli.main(["verify"]) == 0
        assert cli.main(["verify", "--alpha", "2"]) == 0
        assert seen == [(3, 1.25), (0, 1.5), (0, 2.0)]
        assert cli.build_parser() is cli.build_parser()
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()


class TestConfigKeys:
    @pytest.mark.parametrize("name", ["SWEEP_CONFIG", "FIT_CONFIG"])
    @pytest.mark.parametrize("cmd", ["gen", "extract", "train-proj", "fit-kmeans", "sweep",
                                     "pareto", "bench", "verify"])
    def test_every_stage_accepts_the_benchmark_configs(self, tmp_path, monkeypatch, cmd, name):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import workloads

        setting = getattr(workloads, name)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(setting))
        cfg = cli._common(cli.build_parser().parse_args([cmd, "--config", str(path)]))
        assert cfg.n == cfg.m == setting["n"]
        assert cfg.B_list == tuple(setting["B_list"])

    def test_defaults_and_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        out = str(tmp_path / "o")
        path.write_text(json.dumps({"n": 12, "seed": 3, "out": out, "causal": False}))
        args = ["sweep", "--config", str(path), "--seed", "4", "--causal", "--workers", "2"]
        cfg = cli._common(cli.build_parser().parse_args(args))
        assert (cfg.n, cfg.m, cfg.seed, cfg.causal, cfg.workers) == (12, 12, 4, True, 2)
        assert (cfg.alpha, cfg.epochs, cfg.kmeans_n_init) == (1.5, 1, 10)
        assert cfg.data == os.path.join(out, "data") and cfg.records == os.path.join(out, "sweep.csv")
        with pytest.raises(AttributeError):
            cfg.n = 13

    def test_sweep_defaults(self):
        # worked out from the method table: every method, every centroid count of its grids
        assert sorted(cli.KEYS["methods"][1]) == sorted([
            "window", "distance", "quantization", "clustering", "routing", "lsh", "bigbird",
            "longformer"])
        assert cli.KEYS["B_list"][1] == (2, 4, 6, 8, 10, 12, 16, 20)
