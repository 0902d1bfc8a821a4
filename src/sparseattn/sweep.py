"""Sweep orchestration: evaluate every (method, hyperparameter, pattern)
cell over a set of instances, collect per-head sparsity/recall records,
and reduce them to Pareto frontiers and report files.

Cells are independent; with ``workers > 1`` they run in separate processes.
Per-cell RNG streams are derived from the master seed and the cell key, and
records are sorted canonically before writing, so parallel execution cannot
change any output byte.

What cells share is computed once per ``run_sweep`` call and dropped when
it returns: the gold graphs and projected queries/keys of every instance,
and each pattern graph without random global tokens.
"""

import csv
import json
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .entmax import EntmaxParams
from .errors import ConfigError
from .graph import extract_graph, graph_union, recall, sparsity
from .kmeans import Centroids
from .predictors import (
    PatternConfig,
    bigbird_random_blocks,
    buckets_to_graph,
    cluster_qk,
    distance_pairing,
    lsh_assign,
    quantize_qk,
    routing_assign,
    window_global_graph,
)
from .projection import ProjectionHead, project_rows

METHODS = (
    "window",
    "distance",
    "quantization",
    "clustering",
    "routing",
    "lsh",
    "bigbird",
    "longformer",
)

_NEEDS_PROJECTION = {"distance", "quantization", "clustering", "routing", "lsh"}

# methods whose prediction draws from the per-(cell, instance) RNG
_DRAWS = {"lsh", "bigbird"}

# grid parameter that names the centroid count B of a centroid-based method
_CENTROID_GRID_KEY = {"clustering": "B", "routing": "c"}

DEFAULT_GRIDS = {
    "distance": {"t": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]},
    "quantization": {"beta": [1, 2, 3, 4, 5]},
    "clustering": {"B": [2, 4, 6, 8, 10, 12, 16, 20], "k": [1, 2]},
    "window": {},
    "bigbird": {"num_blocks": [2, 4, 6, 8, 10, 12, 16, 20]},
    "longformer": {"num_globals": [2, 4, 6, 8, 10, 12, 16, 20]},
    "lsh": {"num_buckets": [2, 4, 6, 8, 10, 12], "rounds": [1]},
    "routing": {"c": [2, 4, 6, 8, 10]},
}

DEFAULT_WINDOWS = (0, 1, 3, 5, 7, 9, 11, 15, 19, 23, 27)

SWEEP_CSV_COLUMNS = ["method", "hyperparams", "layer", "head", "sparsity", "recall", "runtime_ms"]
PARETO_CSV_COLUMNS = ["method", "hyperparams", "sparsity", "recall"]


@dataclass(frozen=True)
class SweepRecord:
    method: str
    hyperparams: dict
    layer: int
    head: int
    sparsity: float
    recall: float
    runtime_ms: float = None

    def __post_init__(self):
        if not (0.0 <= self.sparsity <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ValueError("sparsity and recall must lie in [0, 1]")


@dataclass(frozen=True)
class ParetoPoint:
    sparsity: float
    recall: float


def _int_list(name, values) -> tuple:
    """``values`` as a tuple of ints; a list or tuple of integers, else ConfigError."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class PatternGrid:
    windows: tuple = DEFAULT_WINDOWS
    global_counts: tuple = (0,)
    global_mode: str = "random"  # which tokens become global: random | prefix

    def __post_init__(self):
        if self.global_mode not in ("random", "prefix"):
            raise ConfigError(f"global_mode must be random or prefix, got {self.global_mode!r}")
        windows = _int_list("windows", self.windows)
        if not windows:
            raise ConfigError("pattern grid needs at least one window size")
        if any(w < 0 or (w > 0 and w % 2 == 0) for w in windows):
            raise ConfigError(f"windows must be 0 or odd positive integers, got {list(windows)}")
        global_counts = _int_list("global_counts", self.global_counts)
        if any(g < 0 for g in global_counts):
            raise ConfigError(f"global_counts must be nonnegative integers, got {list(global_counts)}")
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "global_counts", global_counts)


@dataclass
class SweepArtifacts:
    """Fitted inputs a method may require: projections per (layer, head) and
    centroids per (layer, head, B)."""

    heads: dict = field(default_factory=dict)
    centroids: dict = field(default_factory=dict)


def _grid_for(method: str, grids: dict) -> dict:
    """User grid for a method, with defaults filling any missing parameter."""
    return {**DEFAULT_GRIDS[method], **grids.get(method, {})}


def _hp_str(hp: dict) -> str:
    parts = []
    for key in sorted(hp):
        v = hp[key]
        if isinstance(v, float):
            parts.append(f"{key}={v!r}")
        else:
            parts.append(f"{key}={v}")
    return "|".join(parts)


def _record_key(rec: SweepRecord):
    return (rec.method, _hp_str(rec.hyperparams), rec.layer, rec.head)


def _build_cells(methods, grids, pattern_grid: PatternGrid):
    cells = []
    for method in methods:
        grid = _grid_for(method, grids)
        names = sorted(grid)
        combos = [dict(zip(names, vals))
                  for vals in product(*(grid[name] for name in names))] or [{}]
        # longformer's own hyperparameter is the global-token count
        g_axis = (0,) if method == "longformer" else pattern_grid.global_counts
        for params in combos:
            for w in pattern_grid.windows:
                for g in g_axis:
                    cells.append((method, params, w, g))
    return cells


def _validate_artifacts(instances, methods, grids, artifacts: SweepArtifacts):
    keys = sorted({(sm.layer, sm.head) for sm in instances})
    dims = {(sm.layer, sm.head): sm.d for sm in instances}
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
        grid = _grid_for(method, grids)
        if method in _NEEDS_PROJECTION:
            for key in keys:
                if key not in artifacts.heads:
                    raise ConfigError(
                        f"method {method!r} needs a projection for layer/head {key}"
                    )
                if artifacts.heads[key].d != dims[key]:
                    raise ConfigError(
                        f"projection for layer/head {key} expects d={artifacts.heads[key].d}, "
                        f"data has d={dims[key]}"
                    )
        if method in _CENTROID_GRID_KEY:
            for B in grid[_CENTROID_GRID_KEY[method]]:
                for key in keys:
                    if key + (int(B),) not in artifacts.centroids:
                        raise ConfigError(
                            f"method {method!r} needs centroids B={B} for layer/head {key}"
                        )


@dataclass
class _SweepState:
    """Everything the cells of one ``run_sweep`` call share.

    ``projections[idx]`` holds instance idx's projected (Q, K), or None when
    no swept method projects; ``patterns`` memoises the pattern graph per
    (PatternConfig, n, m) as cells ask for it.
    """

    instances: list
    golds: list
    artifacts: SweepArtifacts
    projections: list
    seed: int
    global_mode: str
    patterns: dict = field(default_factory=dict)

    def pattern(self, pc: PatternConfig, n, m):
        key = (pc, n, m)
        graph = self.patterns.get(key)
        if graph is None:
            graph = self.patterns[key] = window_global_graph(n, m, pc)
        return graph


def _predict(method, params, sm, artifacts, proj, rng):
    """The learned graph of one instance, or None for the pattern-only
    methods (window, longformer)."""
    key = (sm.layer, sm.head)
    if method in _NEEDS_PROJECTION:
        Qp, Kp = proj
    if method == "window" or method == "longformer":
        return None
    if method == "distance":
        return distance_pairing(Qp, Kp, params["t"], causal=sm.causal)
    if method == "quantization":
        qa, ka = quantize_qk(Qp, Kp, params["beta"])
        return buckets_to_graph(qa, ka, causal=sm.causal)
    if method == "clustering":
        centroids: Centroids = artifacts.centroids[key + (int(params["B"]),)]
        qa, ka = cluster_qk(Qp, Kp, centroids, params["k"])
        return buckets_to_graph(qa, ka, causal=sm.causal)
    if method == "routing":
        centroids = artifacts.centroids[key + (int(params["c"]),)]
        topk = -(-sm.n // int(params["c"]))  # balanced: ceil(n / c) per centroid
        qa = routing_assign(Qp, centroids, min(topk, sm.n))
        ka = routing_assign(Kp, centroids, min(topk, sm.m))
        return buckets_to_graph(qa, ka, causal=sm.causal)
    if method == "lsh":
        hash_seed = int(rng.integers(2**63))
        qa = lsh_assign(Qp, params["rounds"], params["num_buckets"], seed=hash_seed)
        ka = lsh_assign(Kp, params["rounds"], params["num_buckets"], seed=hash_seed)
        return buckets_to_graph(qa, ka, causal=sm.causal)
    if method == "bigbird":
        return bigbird_random_blocks(
            sm.n, sm.m, params["num_blocks"], block_size=1,
            seed=int(rng.integers(2**63)), causal=sm.causal,
        )
    raise ConfigError(f"unknown method {method!r}")


def _eval_cell(cell, state: _SweepState):
    method, params, w, g_axis = cell
    g_count = int(params["num_globals"]) if method == "longformer" else g_axis
    random_globals = g_count > 0 and state.global_mode == "random"
    # the per-(cell, instance) generator, made only where it is drawn from
    crc = None
    if random_globals or method in _DRAWS:
        crc = zlib.crc32(f"{method}|{_hp_str(params)}|w={w}|g={g_axis}".encode())
    sums = {}
    for idx, (sm, gold) in enumerate(zip(state.instances, state.golds)):
        rng = None if crc is None else np.random.default_rng((state.seed, crc, idx))
        limit = min(sm.n, sm.m)
        take = min(g_count, limit)
        if random_globals:  # drawn per (cell, instance): nothing to share
            globals_ = tuple(int(t) for t in rng.choice(limit, size=take, replace=False))
            pc = PatternConfig(window=w, global_tokens=globals_, causal=sm.causal)
            pattern = window_global_graph(sm.n, sm.m, pc)
        else:
            pc = PatternConfig(window=w, global_tokens=tuple(range(take)), causal=sm.causal)
            pattern = state.pattern(pc, sm.n, sm.m)
        learned = _predict(method, params, sm, state.artifacts, state.projections[idx], rng)
        combined = pattern if learned is None else graph_union(learned, pattern)
        key = (sm.layer, sm.head)
        s_sum, r_sum, count = sums.get(key, (0.0, 0.0, 0))
        sums[key] = (s_sum + sparsity(combined), r_sum + recall(combined, gold), count + 1)
    hp = dict(params)
    hp["window"] = w
    if g_count > 0 and method != "longformer":
        hp["globals"] = g_count
        hp["global_mode"] = state.global_mode
    records = []
    for (layer, head), (s_sum, r_sum, count) in sorted(sums.items()):
        records.append(
            SweepRecord(method, hp, layer, head, s_sum / count, r_sum / count)
        )
    return records


# A pool worker's copy of the sweep state, set once by ``_init_worker``.
# Only pool processes set it, and they exit with the pool inside
# ``run_sweep``.
_worker_state = None


def _init_worker(state):
    global _worker_state
    _worker_state = state


def _eval_cell_in_worker(cell):
    return _eval_cell(cell, _worker_state)


def run_sweep(
    instances,
    methods,
    grids=None,
    pattern_grid: PatternGrid = PatternGrid(),
    artifacts: SweepArtifacts = None,
    alpha: float = 1.5,
    seed: int = 0,
    workers: int = 1,
):
    """Evaluate every cell; returns canonically sorted SweepRecords.

    Ground-truth graphs are extracted once per instance with the given
    alpha, and queries/keys are projected once per instance.  Raises
    ConfigError before any evaluation if a method lacks its fitted
    artifacts.  With ``workers > 1`` each pool process receives the shared
    state once, through the pool's initializer.
    """
    instances = list(instances)
    if not instances:
        raise ConfigError("no instances to sweep")
    grids = dict(grids or {})
    artifacts = artifacts or SweepArtifacts()
    methods = list(methods)
    _validate_artifacts(instances, methods, grids, artifacts)
    cells = _build_cells(methods, grids, pattern_grid)
    params = EntmaxParams(alpha=alpha)
    golds = [extract_graph(sm, params) for sm in instances]
    if _NEEDS_PROJECTION.intersection(methods):
        projections = []
        for sm in instances:
            head: ProjectionHead = artifacts.heads[(sm.layer, sm.head)]
            projections.append((project_rows(head, sm.Q), project_rows(head, sm.K)))
    else:
        projections = [None] * len(instances)
    state = _SweepState(instances, golds, artifacts, projections, seed, pattern_grid.global_mode)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(state,)) as pool:
            per_cell = list(pool.map(_eval_cell_in_worker, cells))
    else:
        per_cell = [_eval_cell(cell, state) for cell in cells]
    records = [rec for cell_records in per_cell for rec in cell_records]
    records.sort(key=_record_key)
    return records


def gold_sparsity_of(instances, alpha: float = 1.5) -> float:
    """Mean sparsity of the ground-truth graphs themselves."""
    params = EntmaxParams(alpha=alpha)
    return float(np.mean([sparsity(extract_graph(sm, params)) for sm in instances]))


# ---------------------------------------------------------------------------
# Pareto reduction


def pareto_frontier(records):
    """Non-dominated subset in (sparsity, recall), sorted by sparsity.

    p dominates q iff p.sparsity >= q.sparsity and p.recall >= q.recall
    with at least one strict inequality; duplicated coordinate pairs do not
    dominate each other, so equal points survive together.
    """
    records = list(records)
    if not records:
        raise ValueError("pareto_frontier needs at least one record")
    order = sorted(range(len(records)), key=lambda i: -records[i].sparsity)
    best = -np.inf
    keep = []
    i = 0
    while i < len(order):
        s = records[order[i]].sparsity
        group = []
        while i < len(order) and records[order[i]].sparsity == s:
            group.append(order[i])
            i += 1
        gmax = max(records[g].recall for g in group)
        if gmax > best:
            keep.extend(g for g in group if records[g].recall == gmax)
            best = gmax
    keep.sort()  # stable: ties keep input order
    return sorted((records[g] for g in keep), key=lambda rec: rec.sparsity)


def aggregate_records(records):
    """Mean sparsity/recall per (method, hyperparams) across layers and heads.

    Aggregated records carry layer = head = -1.
    """
    groups = {}
    for rec in records:
        key = (rec.method, _hp_str(rec.hyperparams))
        s, r, count, hp = groups.get(key, (0.0, 0.0, 0, rec.hyperparams))
        groups[key] = (s + rec.sparsity, r + rec.recall, count + 1, hp)
    out = []
    for (method, _), (s, r, count, hp) in sorted(groups.items()):
        out.append(SweepRecord(method, hp, -1, -1, s / count, r / count))
    return out


def per_method_frontiers(records):
    """Frontier of the aggregated records of each method."""
    agg = aggregate_records(records)
    frontiers = {}
    for method in sorted({rec.method for rec in agg}):
        frontiers[method] = pareto_frontier([rec for rec in agg if rec.method == method])
    return frontiers


# ---------------------------------------------------------------------------
# Report files


def _fmt(v) -> str:
    return repr(float(v))


def write_sweep_csv(records, path):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.method, _hp_str(rec.hyperparams), rec.layer, rec.head,
                _fmt(rec.sparsity), _fmt(rec.recall),
                "" if rec.runtime_ms is None else _fmt(rec.runtime_ms),
            ])


def _parse_hp(text: str) -> dict:
    hp = {}
    if not text:
        return hp
    for part in text.split("|"):
        key, _, raw = part.partition("=")
        try:
            hp[key] = int(raw)
        except ValueError:
            try:
                hp[key] = float(raw)
            except ValueError:
                hp[key] = raw
    return hp


def read_sweep_csv(path):
    from .errors import DataError

    records = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_CSV_COLUMNS:
            raise DataError(f"{path}: unexpected sweep.csv header {header}")
        for row in reader:
            if len(row) != len(SWEEP_CSV_COLUMNS):
                raise DataError(f"{path}: malformed row {row}")
            records.append(
                SweepRecord(
                    method=row[0],
                    hyperparams=_parse_hp(row[1]),
                    layer=int(row[2]),
                    head=int(row[3]),
                    sparsity=float(row[4]),
                    recall=float(row[5]),
                    runtime_ms=None if row[6] == "" else float(row[6]),
                )
            )
    return records


def write_pareto_csv(frontiers, path):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARETO_CSV_COLUMNS)
        for method in sorted(frontiers):
            for rec in frontiers[method]:
                writer.writerow(
                    [method, _hp_str(rec.hyperparams), _fmt(rec.sparsity), _fmt(rec.recall)]
                )


def report(records, frontiers, out_dir, gold_sparsity: float):
    """Write sweep.csv, pareto.csv and summary.json under out_dir.

    The summary reports, per method, the best recall among aggregated
    records whose sparsity reaches the gold level (within a 0.02 slack
    below it), alongside that record's settings.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(records, os.path.join(out_dir, "sweep.csv"))
    write_pareto_csv(frontiers, os.path.join(out_dir, "pareto.csv"))
    summary = {"gold_sparsity": float(gold_sparsity), "methods": {}}
    for rec in aggregate_records(records):
        entry = summary["methods"].setdefault(
            rec.method, {"best_recall_at_gold_sparsity": None, "sparsity": None, "hyperparams": None}
        )
        if rec.sparsity >= gold_sparsity - 0.02:
            prev = entry["best_recall_at_gold_sparsity"]
            if prev is None or rec.recall > prev:
                entry.update(
                    best_recall_at_gold_sparsity=rec.recall,
                    sparsity=rec.sparsity,
                    hyperparams=_hp_str(rec.hyperparams),
                )
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary
