"""Command-line pipeline: generate or load data, extract gold graphs, fit
the learned predictors, sweep the hyperparameter grids, and report.

All subcommands share --seed/--alpha/--causal/--config/--out; extra knobs
live in the JSON config file (flat key/value object, unknown keys ignored).
Stages after 'gen' take the causal flag from the data manifest and reject a
--causal that contradicts it.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 contract
violation detected by ``verify``.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from .blocks import (
    AUDIT_HEADS,
    BlockBudget,
    audit_sparse_attention,
    bench_masked_attention,
    write_bench_csv,
)
from .data import SyntheticSpec, generate_instances, load_qk, save_qk
from .entmax import EntmaxParams, audit_sparse_consistency
from .errors import ConfigError, ContractViolation, DataError
from .graph import extract_graph, read_graph, sparsity, write_graph
from .kmeans import KMeansConfig, kmeans_fit, load_centroids, save_centroids
from .projection import TrainConfig, build_pair_dataset, load_head, project_rows, save_head, train_projection
from .sweep import (
    DEFAULT_GRIDS,
    PatternGrid,
    SweepArtifacts,
    _validate_grids,
    per_method_frontiers,
    read_sweep_csv,
    report,
    run_sweep,
    write_pareto_csv,
)

_PROJ_RE = re.compile(r"head_l(\d+)_h(\d+)\.txt$")
_KMEANS_RE = re.compile(r"c_l(\d+)_h(\d+)_B(\d+)\.txt$")


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _opt(args, cfg, name, default):
    val = getattr(args, name, None)
    if val is not None:
        return val
    return cfg.get(name, default)


def _common(args):
    cfg = _load_config(args.config)
    seed = int(_opt(args, cfg, "seed", 0))
    alpha = float(_opt(args, cfg, "alpha", 1.5))
    causal = bool(cfg.get("causal", False)) or bool(args.causal)
    out = args.out or cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    return cfg, seed, alpha, causal, out


def _data_path(args, cfg, out):
    return _opt(args, cfg, "data", os.path.join(out, "data"))


def _load_instances(args, cfg, out, causal):
    """The data manifest's instances.  Their own causal flags decide the
    masking, so a requested ``--causal`` (or ``causal: true``) must match
    every one of them."""
    mats = load_qk(_data_path(args, cfg, out))
    flat = [sm for sm in mats if not sm.causal]
    if causal and flat:
        sm = flat[0]
        raise ConfigError(
            f"causal attention requested, but {len(flat)} instance(s) in the data "
            f"manifest are not causal (first: layer {sm.layer} head {sm.head} "
            f"instance {sm.instance})"
        )
    return mats


def _load_meta(graphs_dir):
    """The ``meta.json`` that 'extract' writes next to the gold graphs."""
    meta_path = os.path.join(graphs_dir, "meta.json")
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{meta_path}: graph metadata not found (run 'extract' first)") from None
    except ValueError as exc:  # invalid JSON or a non-ASCII byte
        raise DataError(f"{meta_path}: invalid JSON ({exc}) (run 'extract' first)") from None
    if not isinstance(meta, dict) or not meta.get("graphs") or "gold_sparsity" not in meta:
        raise DataError(f"{meta_path}: no graphs or gold_sparsity listed (run 'extract' first)")
    return meta


def _load_graphs(graphs_dir):
    graphs = {}
    for entry in _load_meta(graphs_dir)["graphs"]:
        try:
            key = (int(entry["layer"]), int(entry["head"]), int(entry["instance"]))
            path = os.path.join(graphs_dir, entry["path"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{os.path.join(graphs_dir, 'meta.json')}: malformed graph entry ({exc!r})") from None
        graphs[key] = read_graph(path)
    return graphs


def cmd_gen(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    fields = {
        k: cfg[k]
        for k in (
            "n", "m", "d", "generator", "num_heads", "num_instances",
            "num_clusters", "cluster_std", "center_scale", "rank", "path",
        )
        if k in cfg
    }
    if "m" not in fields and "n" in fields:
        fields["m"] = fields["n"]
    spec = SyntheticSpec(alpha=alpha, causal=causal, seed=seed, **fields)
    mats = generate_instances(spec)
    manifest = save_qk(mats, _data_path(args, cfg, out))
    print(f"gen: wrote {len(mats)} instances to {manifest}")
    return 0


def cmd_extract(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    mats = _load_instances(args, cfg, out, causal)
    graphs_dir = _opt(args, cfg, "graphs", os.path.join(out, "graphs"))
    os.makedirs(graphs_dir, exist_ok=True)
    params = EntmaxParams(alpha=alpha)
    entries = []
    sparsities = []
    for sm in mats:
        g = extract_graph(sm, params)
        fname = f"g_l{sm.layer}_h{sm.head}_i{sm.instance}.txt"
        write_graph(g, os.path.join(graphs_dir, fname))
        entries.append(
            {"layer": sm.layer, "head": sm.head, "instance": sm.instance,
             "path": fname, "causal": sm.causal}
        )
        sparsities.append(sparsity(g))
    meta = {
        "alpha": alpha,
        "gold_sparsity": float(np.mean(sparsities)),
        "graphs": entries,
    }
    with open(os.path.join(graphs_dir, "meta.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"extract: {len(entries)} graphs, gold sparsity {meta['gold_sparsity']:.4f}")
    return 0


def _instances_by_head(mats):
    by_head = {}
    for sm in mats:
        by_head.setdefault((sm.layer, sm.head), []).append(sm)
    return by_head


def cmd_train_proj(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    mats = _load_instances(args, cfg, out, causal)
    graphs = _load_graphs(_opt(args, cfg, "graphs", os.path.join(out, "graphs")))
    proj_dir = _opt(args, cfg, "proj", os.path.join(out, "proj"))
    os.makedirs(proj_dir, exist_ok=True)
    train_cfg = TrainConfig(
        margin=float(cfg.get("margin", 1.0)),
        learning_rate=float(cfg.get("learning_rate", 0.01)),
        epochs=int(cfg.get("epochs", 1)),
        batch_size=int(cfg.get("batch_size", 16)),
        negatives_per_positive=int(cfg.get("negatives_per_positive", 1)),
        rng_seed=seed,
    )
    r = int(cfg.get("r", 4))
    min_len = int(cfg.get("min_len", 21))
    for (layer, head), group in sorted(_instances_by_head(mats).items()):
        try:
            gold = [graphs[(layer, head, sm.instance)] for sm in group]
        except KeyError as exc:
            raise DataError(f"missing gold graph for layer/head/instance {exc}") from None
        ds = build_pair_dataset(group, gold, rng_seed=seed, min_len=min_len)
        trained = train_projection(ds, train_cfg, r=r)
        save_head(trained, os.path.join(proj_dir, f"head_l{layer}_h{head}.txt"))
        print(f"train-proj: layer {layer} head {head}: {len(ds)} pairs -> r={r}")
    return 0


def _load_proj_dir(proj_dir):
    heads = {}
    try:
        names = sorted(os.listdir(proj_dir))
    except FileNotFoundError:
        raise ConfigError(f"projection directory not found: {proj_dir} (run 'train-proj')") from None
    for name in names:
        match = _PROJ_RE.match(name)
        if match:
            heads[(int(match.group(1)), int(match.group(2)))] = load_head(
                os.path.join(proj_dir, name)
            )
    return heads


def _pooled_projected(mats, head):
    parts = []
    for sm in mats:
        parts.append(project_rows(head, sm.Q))
        parts.append(project_rows(head, sm.K))
    return np.vstack(parts)


def cmd_fit_kmeans(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    mats = _load_instances(args, cfg, out, causal)
    heads = _load_proj_dir(_opt(args, cfg, "proj", os.path.join(out, "proj")))
    km_dir = _opt(args, cfg, "kmeans", os.path.join(out, "kmeans"))
    os.makedirs(km_dir, exist_ok=True)
    default_bs = sorted(set(DEFAULT_GRIDS["clustering"]["B"]) | set(DEFAULT_GRIDS["routing"]["c"]))
    b_list = [int(b) for b in cfg.get("B_list", default_bs)]
    km_cfg = KMeansConfig(
        n_init=int(cfg.get("kmeans_n_init", 10)),
        max_iter=int(cfg.get("kmeans_max_iter", 300)),
        seed=seed,
    )
    sample = int(cfg.get("kmeans_sample", 0))  # 0 = use everything
    for (layer, head_idx), group in sorted(_instances_by_head(mats).items()):
        if (layer, head_idx) not in heads:
            raise ConfigError(f"no projection for layer {layer} head {head_idx}")
        pooled = _pooled_projected(group, heads[(layer, head_idx)])
        if 0 < sample < pooled.shape[0]:
            idx = np.random.default_rng(seed).choice(pooled.shape[0], sample, replace=False)
            pooled = pooled[np.sort(idx)]
        for B in b_list:
            centroids = kmeans_fit(pooled, B, km_cfg)
            save_centroids(
                centroids, os.path.join(km_dir, f"c_l{layer}_h{head_idx}_B{B}.txt")
            )
        print(f"fit-kmeans: layer {layer} head {head_idx}: B in {b_list} on {pooled.shape[0]} points")
    return 0


def _load_kmeans_dir(km_dir):
    centroids = {}
    if not os.path.isdir(km_dir):
        return centroids
    for name in sorted(os.listdir(km_dir)):
        match = _KMEANS_RE.match(name)
        if match:
            key = (int(match.group(1)), int(match.group(2)), int(match.group(3)))
            centroids[key] = load_centroids(os.path.join(km_dir, name))
    return centroids


def cmd_sweep(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    methods = cfg.get("methods", list(DEFAULT_GRIDS))
    grids = cfg.get("grids", {})
    _validate_grids(methods, grids)
    pattern_grid = PatternGrid(
        windows=cfg.get("windows", PatternGrid().windows),
        global_counts=cfg.get("global_counts", (0,)),
        global_mode=cfg.get("global_mode", "random"),
    )
    workers = int(_opt(args, cfg, "workers", 1))
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    mats = _load_instances(args, cfg, out, causal)
    meta = _load_meta(_opt(args, cfg, "graphs", os.path.join(out, "graphs")))
    if meta.get("alpha") != alpha:
        raise ConfigError(
            f"gold graphs were extracted at alpha {meta.get('alpha')}, the sweep runs at "
            f"alpha {alpha}; re-run 'extract' with --alpha {alpha}"
        )
    artifacts = SweepArtifacts(
        heads=_load_proj_dir(_opt(args, cfg, "proj", os.path.join(out, "proj"))),
        centroids=_load_kmeans_dir(_opt(args, cfg, "kmeans", os.path.join(out, "kmeans"))),
    )
    records = run_sweep(
        mats, methods, grids=grids, pattern_grid=pattern_grid,
        artifacts=artifacts, alpha=alpha, seed=seed, workers=workers,
    )
    frontiers = per_method_frontiers(records)
    report(records, frontiers, out, meta["gold_sparsity"])
    print(f"sweep: {len(records)} records over {len(methods)} methods -> {out}/sweep.csv")
    return 0


def cmd_pareto(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    path = _opt(args, cfg, "records", os.path.join(out, "sweep.csv"))
    records = read_sweep_csv(path)
    if not records:
        raise DataError(f"{path}: no records")
    frontiers = per_method_frontiers(records)
    dest = os.path.join(out, "pareto.csv")
    write_pareto_csv(frontiers, dest)
    total = sum(len(f) for f in frontiers.values())
    print(f"pareto: {total} frontier points across {len(frontiers)} methods -> {dest}")
    return 0


def cmd_bench(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    params = EntmaxParams(alpha=alpha)
    n = int(cfg.get("bench_n", 256))
    d = int(cfg.get("bench_d", 64))
    z_list = [int(z) for z in cfg.get("z_list", [8, 16])]
    top_k_list = [int(k) for k in cfg.get("top_k_list", [2, 4, 8])]
    variants = list(cfg.get("variants", ["v1", "v2"]))
    window = int(cfg.get("bench_window", 3))
    repeats = int(cfg.get("repeats", 5))
    records = []
    for z in z_list:
        for variant in variants:
            for top_k in top_k_list:
                rec = bench_masked_attention(
                    n, d, z, BlockBudget(top_k, variant),
                    window=window, repeats=repeats, seed=seed, causal=causal,
                    params=params,
                )
                records.append(rec)
                print(
                    f"bench: {variant} z={z} top_k={top_k}: "
                    f"dense {rec.dense_median_ms:.2f} ms, block {rec.block_median_ms:.2f} ms, "
                    f"recall {rec.recall:.3f}, sparsity {rec.sparsity:.3f}"
                )
    dest = os.path.join(out, "bench.csv")
    write_bench_csv(records, dest)
    print(f"bench: wrote {dest}")
    return 0


def cmd_verify(args) -> int:
    cfg, seed, alpha, causal, out = _common(args)
    trials = int(_opt(args, cfg, "trials", 1000))
    failures = audit_sparse_consistency(trials=trials, seed=seed, alpha=alpha)
    head_failures = audit_sparse_attention(seed=seed, alpha=alpha)
    heads = len(AUDIT_HEADS)
    if failures or head_failures:
        print(
            f"verify: FAIL: {len(failures)}/{trials} dominating-mask trials and "
            f"{len(head_failures)}/{heads} sparse-attention heads violate sparse consistency"
        )
        for f in failures[:10]:
            print(f"  trial {f['trial']}: n={f['n']} extra_bits={f['extra_bits']}")
        for f in head_failures:
            print(f"  head {f['head']}: n={f['n']} causal={f['causal']} "
                  f"max diff {f['max_abs_diff']:.3g}")
        return 4
    print(f"verify: OK: {trials} random dominating-mask trials and {heads} "
          f"sparse-attention heads, zero violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0)")
    common.add_argument("--alpha", type=float, default=None, help="entmax alpha (default 1.5)")
    common.add_argument("--causal", action="store_true", help="use causal (decoder) attention")
    common.add_argument("--config", default="", help="JSON config file")
    common.add_argument("--out", default="", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="sparseattn",
        description="Predict and evaluate entmax attention sparsity patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic instances")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", parents=[common], help="extract gold graphs from Q/K")
    p.add_argument("--data", default=None, help="data manifest or directory")
    p.add_argument("--graphs", default=None, help="graph output directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train-proj", parents=[common], help="train per-head projections")
    p.add_argument("--data", default=None)
    p.add_argument("--graphs", default=None)
    p.add_argument("--proj", default=None, help="projection output directory")
    p.set_defaults(func=cmd_train_proj)

    p = sub.add_parser("fit-kmeans", parents=[common], help="fit centroids per head")
    p.add_argument("--data", default=None)
    p.add_argument("--proj", default=None)
    p.add_argument("--kmeans", default=None, help="centroid output directory")
    p.set_defaults(func=cmd_fit_kmeans)

    p = sub.add_parser("sweep", parents=[common], help="run the hyperparameter sweep")
    p.add_argument("--data", default=None)
    p.add_argument("--graphs", default=None)
    p.add_argument("--proj", default=None)
    p.add_argument("--kmeans", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes over which the (method, params) groups are spread")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pareto", parents=[common], help="recompute frontiers from sweep.csv")
    p.add_argument("--records", default=None, help="path to sweep.csv")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("bench", parents=[common], help="block-attention micro-benchmark")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", parents=[common], help="sparse-consistency audit")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
