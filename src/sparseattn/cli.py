"""Command-line pipeline: generate or load data, extract gold graphs, fit
the learned predictors, sweep the hyperparameter grids, and report.

All subcommands share --seed/--alpha/--causal/--config/--out; extra knobs
live in the JSON config file, a flat object over the keys of ``KEYS``.  Every
stage accepts every key, and rejects an unknown key or a value of the wrong
type or range before it reads any data.
Stages after 'gen' take the causal flag from the data manifest and reject a
--causal that contradicts it.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 contract
violation detected by ``verify``.
"""

import argparse
import functools
import json
import os
import re
import sys
from collections import namedtuple
from dataclasses import fields

import numpy as np

from .blocks import (
    AUDIT_HEADS,
    BlockBudget,
    audit_sparse_attention,
    bench_masked_attention,
    check_bench_budgets,
    write_bench_csv,
)
from ._textio import index_entries, read_json, write_json
from .data import SyntheticSpec, generate_instances, load_qk, save_qk
from .entmax import EntmaxParams
from .errors import ConfigError, DataError
from .graph import extract_graph, read_graph, sparsity, write_graph
from .kmeans import KMeansConfig, kmeans_fit, load_centroids, save_centroids
from .predictors import PatternConfig
from .projection import TrainConfig, build_pair_dataset, load_head, project_rows, save_head, train_projection
from .sweep import (
    METHODS,
    PatternGrid,
    SweepArtifacts,
    check_value,
    per_method_frontiers,
    read_sweep_csv,
    report,
    run_sweep,
    validate_grids,
    write_pareto_csv,
)

_PROJ_RE = re.compile(r"head_l(\d+)_h(\d+)\.txt$")
_KMEANS_RE = re.compile(r"c_l(\d+)_h(\d+)_B(\d+)\.txt$")


def _rows(cls, prefix="", skip=()):
    """Config rows ``prefix + field: (type, default)`` of a dataclass's fields."""
    return {prefix + f.name: (f.type, f.default) for f in fields(cls) if f.name not in skip}


# Every key of the JSON config: (type, default).  ``[type]`` is a non-empty
# list without repeats; a None default is worked out from other keys.  A
# key that also has a flag takes the flag's value when the flag is given.
KEYS = {
    **_rows(SyntheticSpec),  # seed and causal are shared by all stages
    "alpha": (float, 1.5),
    "m": (int, None),  # n
    "out": (str, "."),
    # None: <out>/<key>, and <out>/sweep.csv for records
    **{key: (str, None) for key in ("data", "graphs", "proj", "kmeans", "records")},
    **_rows(TrainConfig, skip={"rng_seed"}),
    "r": (int, 4), "min_len": (int, 21),
    **_rows(KMeansConfig, "kmeans_", skip={"seed"}),
    "kmeans_sample": (int, 0),  # 0: every point
    # every centroid count of the default grids
    "B_list": ([int], tuple(sorted({B for spec in METHODS.values() if spec.centroids
                                    for B in spec.grid[spec.centroids][-1]}))),
    "methods": ([str], tuple(METHODS)),
    "grids": (dict, {}),
    "windows": ([int], PatternGrid.windows),
    "global_counts": ([int], PatternGrid.global_counts),
    "global_mode": (str, PatternGrid.global_mode),
    "workers": (int, 1),
    "bench_n": (int, 256), "bench_d": (int, 64), "bench_window": (int, 3), "repeats": (int, 5),
    "z_list": ([int], (8, 16)), "top_k_list": ([int], (2, 4, 8)), "variants": ([str], ("v1", "v2")),
}

# least value of a number, or of each element of a list of numbers
_LEAST = {"seed": 0, "alpha": 1, "r": 1, "kmeans_sample": 0, "B_list": 1, "workers": 1, "bench_n": 1,
           "bench_d": 2, "z_list": 1, "repeats": 3}

Config = namedtuple("Config", KEYS)


def _common(args) -> Config:
    """The JSON config file, with the flags given on the command line over
    it and the defaults of ``KEYS`` under it.  Every value in the file and
    every flag is checked, also a file value that a flag overrides, and so
    are the ranges of every stage's settings; then the output directory is
    made."""
    given = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(given, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    flags = [(key, val) for key in KEYS if (val := getattr(args, key, None)) is not None]
    vals = {key: default for key, (_, default) in KEYS.items()}
    for key, val in [*given.items(), *flags]:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}; the README lists every key")
        vals[key] = check_value(key, val, KEYS[key][0], _LEAST.get(key))
    if vals["m"] is None:
        vals["m"] = vals["n"]
    for key in ("data", "graphs", "proj", "kmeans"):
        vals[key] = vals[key] or os.path.join(vals["out"], key)
    vals["records"] = vals["records"] or os.path.join(vals["out"], "sweep.csv")
    cfg = Config(**vals)
    # the range checks of every stage, so that no stage accepts what a later one rejects
    _build(SyntheticSpec, cfg)
    _build(TrainConfig, cfg, rng_seed=cfg.seed)
    _build(KMeansConfig, cfg, "kmeans_", seed=cfg.seed)
    if 0 < cfg.kmeans_sample < max(cfg.B_list):
        raise ConfigError(f"kmeans_sample must be 0 (every point) or at least the largest B "
                          f"of B_list, {max(cfg.B_list)}, got {cfg.kmeans_sample}")
    validate_grids(cfg.methods, cfg.grids)
    PatternGrid(cfg.windows, cfg.global_counts, cfg.global_mode)
    check_bench_budgets(cfg.bench_n, cfg.z_list, _bench_budgets(cfg))
    PatternConfig(window=cfg.bench_window)
    os.makedirs(cfg.out, exist_ok=True)
    return cfg


def _build(cls, cfg, prefix="", **given):
    """``cls`` from its rows of ``cfg``, with the fields in ``given`` set to those values."""
    return cls(**{f.name: getattr(cfg, prefix + f.name) for f in fields(cls) if f.name not in given},
               **given)


def _load_instances(cfg):
    """The data manifest's instances.  Their own causal flags decide the
    masking, so a requested ``--causal`` (or ``causal: true``) must match
    every one of them."""
    mats = load_qk(cfg.data)
    flat = [sm for sm in mats if not sm.causal]
    if cfg.causal and flat:
        sm = flat[0]
        raise ConfigError(
            f"causal attention requested, but {len(flat)} instance(s) in the data "
            f"manifest are not causal (first: layer {sm.layer} head {sm.head} "
            f"instance {sm.instance})"
        )
    return mats


def _load_meta(graphs_dir):
    """The ``meta.json`` that 'extract' writes next to the gold graphs, and
    its checked graph entries."""
    meta_path = os.path.join(graphs_dir, "meta.json")
    meta = read_json(meta_path)
    entries = index_entries(meta, "graphs", meta_path)
    for key, least, most, what in (("gold_sparsity", 0, 1, "in [0, 1]"),
                                   ("alpha", 1, sys.float_info.max, "finite and >= 1")):
        val = meta.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not least <= val <= most:
            raise DataError(f"{meta_path}: {key} {val!r} is not a number {what}")
    return meta, entries


def cmd_gen(args) -> int:
    cfg = _common(args)
    mats = generate_instances(_build(SyntheticSpec, cfg))
    manifest = save_qk(mats, cfg.data)
    print(f"gen: wrote {len(mats)} instances to {manifest}")
    return 0


def cmd_extract(args) -> int:
    cfg = _common(args)
    mats = _load_instances(cfg)
    os.makedirs(cfg.graphs, exist_ok=True)
    params = EntmaxParams(alpha=cfg.alpha)
    entries = []
    sparsities = []
    for sm in mats:
        g = extract_graph(sm, params)
        fname = f"g_l{sm.layer}_h{sm.head}_i{sm.instance}.txt"
        write_graph(g, os.path.join(cfg.graphs, fname))
        entries.append(
            {"layer": sm.layer, "head": sm.head, "instance": sm.instance,
             "path": fname, "causal": sm.causal}
        )
        sparsities.append(sparsity(g))
    meta = {
        "alpha": cfg.alpha,
        "gold_sparsity": float(np.mean(sparsities)),
        "graphs": entries,
    }
    write_json(os.path.join(cfg.graphs, "meta.json"), meta)
    print(f"extract: {len(entries)} graphs, gold sparsity {meta['gold_sparsity']:.4f}")
    return 0


def _instances_by_head(mats):
    by_head = {}
    for sm in mats:
        by_head.setdefault((sm.layer, sm.head), []).append(sm)
    return by_head


def cmd_train_proj(args) -> int:
    cfg = _common(args)
    train_cfg = _build(TrainConfig, cfg, rng_seed=cfg.seed)
    mats = _load_instances(cfg)
    graphs = {key: read_graph(os.path.join(cfg.graphs, entry["path"]))
              for key, entry in _load_meta(cfg.graphs)[1]}
    os.makedirs(cfg.proj, exist_ok=True)
    for (layer, head), group in sorted(_instances_by_head(mats).items()):
        try:
            gold = [graphs[(layer, head, sm.instance)] for sm in group]
        except KeyError as exc:
            raise DataError(f"missing gold graph for layer/head/instance {exc}") from None
        ds = build_pair_dataset(group, gold, rng_seed=cfg.seed, min_len=cfg.min_len)
        trained = train_projection(ds, train_cfg, r=cfg.r)
        save_head(trained, os.path.join(cfg.proj, f"head_l{layer}_h{head}.txt"))
        print(f"train-proj: layer {layer} head {head}: {len(ds)} pairs -> r={cfg.r}")
    return 0


def _load_dir(path, pattern, load, stage):
    """``load`` of every file in ``path`` whose name matches ``pattern``,
    keyed by the integers the pattern captures."""
    if not os.path.isdir(path):
        raise ConfigError(f"directory not found: {path} (run '{stage}')")
    return {tuple(map(int, match.groups())): load(os.path.join(path, name))
            for name in sorted(os.listdir(path)) if (match := pattern.match(name))}


def _pooled_projected(mats, head):
    parts = []
    for sm in mats:
        parts.append(project_rows(head, sm.Q))
        parts.append(project_rows(head, sm.K))
    return np.vstack(parts)


def cmd_fit_kmeans(args) -> int:
    cfg = _common(args)
    km_cfg = _build(KMeansConfig, cfg, "kmeans_", seed=cfg.seed)
    mats = _load_instances(cfg)
    heads = _load_dir(cfg.proj, _PROJ_RE, load_head, "train-proj")
    os.makedirs(cfg.kmeans, exist_ok=True)
    for (layer, head_idx), group in sorted(_instances_by_head(mats).items()):
        if (layer, head_idx) not in heads:
            raise ConfigError(f"no projection for layer {layer} head {head_idx}")
        pooled = _pooled_projected(group, heads[(layer, head_idx)])
        if 0 < cfg.kmeans_sample < pooled.shape[0]:
            idx = np.random.default_rng(cfg.seed).choice(pooled.shape[0], cfg.kmeans_sample, replace=False)
            pooled = pooled[np.sort(idx)]
        for B in cfg.B_list:
            centroids = kmeans_fit(pooled, B, km_cfg)
            save_centroids(
                centroids, os.path.join(cfg.kmeans, f"c_l{layer}_h{head_idx}_B{B}.txt")
            )
        print(f"fit-kmeans: layer {layer} head {head_idx}: B in {list(cfg.B_list)} on {pooled.shape[0]} points")
    return 0


def cmd_sweep(args) -> int:
    cfg = _common(args)
    pattern_grid = PatternGrid(cfg.windows, cfg.global_counts, cfg.global_mode)
    mats = _load_instances(cfg)
    meta, _ = _load_meta(cfg.graphs)
    if meta["alpha"] != cfg.alpha:
        raise ConfigError(
            f"gold graphs were extracted at alpha {meta['alpha']}, the sweep runs at "
            f"alpha {cfg.alpha}; re-run 'extract' with --alpha {cfg.alpha}"
        )
    swept = [METHODS[method] for method in cfg.methods]  # load only what a swept method uses
    heads = (_load_dir(cfg.proj, _PROJ_RE, load_head, "train-proj")
             if any(spec.projects for spec in swept) else {})
    centroids = (_load_dir(cfg.kmeans, _KMEANS_RE, load_centroids, "fit-kmeans")
                 if any(spec.centroids for spec in swept) else {})
    records = run_sweep(
        mats, cfg.methods, grids=cfg.grids, pattern_grid=pattern_grid,
        artifacts=SweepArtifacts(heads, centroids), alpha=cfg.alpha, seed=cfg.seed,
        workers=cfg.workers,
    )
    frontiers = per_method_frontiers(records)
    report(records, frontiers, cfg.out, meta["gold_sparsity"])
    print(f"sweep: {len(records)} records over {len(cfg.methods)} methods -> {cfg.out}/sweep.csv")
    return 0


def cmd_pareto(args) -> int:
    cfg = _common(args)
    records = read_sweep_csv(cfg.records)
    if not records:
        raise DataError(f"{cfg.records}: no records")
    frontiers = per_method_frontiers(records)
    dest = os.path.join(cfg.out, "pareto.csv")
    write_pareto_csv(frontiers, dest)
    total = sum(len(f) for f in frontiers.values())
    print(f"pareto: {total} frontier points across {len(frontiers)} methods -> {dest}")
    return 0


def _bench_budgets(cfg):
    return [BlockBudget(top_k, variant) for variant in cfg.variants for top_k in cfg.top_k_list]


def cmd_bench(args) -> int:
    cfg = _common(args)
    records = bench_masked_attention(
        cfg.bench_n, cfg.bench_d, cfg.z_list, _bench_budgets(cfg), window=cfg.bench_window,
        repeats=cfg.repeats, seed=cfg.seed, causal=cfg.causal, params=EntmaxParams(alpha=cfg.alpha),
    )
    for rec in records:
        print(
            f"bench: {rec.variant} z={rec.z} top_k={rec.top_k}: "
            f"dense {rec.dense_median_ms:.2f} ms, block {rec.block_median_ms:.2f} ms, "
            f"recall {rec.recall:.3f}, sparsity {rec.sparsity:.3f}"
        )
    dest = os.path.join(cfg.out, "bench.csv")
    write_bench_csv(records, dest)
    print(f"bench: wrote {dest}")
    return 0


def cmd_verify(args) -> int:
    cfg = _common(args)
    failures = audit_sparse_attention(seed=cfg.seed, alpha=cfg.alpha)
    heads = len(AUDIT_HEADS)
    if failures:
        print(f"verify: FAIL: {len({f['head'] for f in failures})}/{heads} sparse-attention heads "
              f"violate sparse consistency")
        for f in failures:
            print(f"  head {f['head']} ({f['check']}): n={f['n']} causal={f['causal']} "
                  f"max diff {f['max_abs_diff']:.3g}")
        return 4
    rows = sum(n for n, _ in AUDIT_HEADS)
    print(f"verify: OK: {heads} sparse-attention heads ({rows:,} rows), zero violations")
    return 0


# subcommand: (function, help, the config keys that it also takes as flags)
_COMMANDS = {
    "gen": (cmd_gen, "generate synthetic instances", ()),
    "extract": (cmd_extract, "extract gold graphs from Q/K", ("data", "graphs")),
    "train-proj": (cmd_train_proj, "train per-head projections", ("data", "graphs", "proj")),
    "fit-kmeans": (cmd_fit_kmeans, "fit centroids per head", ("data", "proj", "kmeans")),
    "sweep": (cmd_sweep, "run the hyperparameter sweep",
              ("data", "graphs", "proj", "kmeans", "workers")),
    "pareto": (cmd_pareto, "recompute frontiers from sweep.csv", ("records",)),
    "bench": (cmd_bench, "block-attention micro-benchmark", ()),
    "verify": (cmd_verify, "sparse-consistency audit of every attention path", ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0)")
    common.add_argument("--alpha", type=float, default=None, help="entmax alpha (default 1.5)")
    common.add_argument("--causal", action="store_true", default=None,
                        help="use causal (decoder) attention")
    common.add_argument("--config", default="", help="JSON config file")
    common.add_argument("--out", default=None, help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="sparseattn",
        description="Predict and evaluate entmax attention sparsity patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (func, help_, keys) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_)
        for key in keys:
            p.add_argument(f"--{key}", type=KEYS[key][0], default=None,
                           help=f"overrides the config key {key!r}")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
