"""Sweep orchestration: evaluate every (method, hyperparameter, pattern)
cell over a set of instances, collect per-head sparsity/recall records,
and reduce them to Pareto frontiers and report files.

The unit of work is a (method, params) group.  It visits each instance
once and, there, every pattern point (window, global count) of its cells.
A method that draws nothing from the RNG (all but lsh and bigbird) thus
predicts its learned graph once per instance and shares it across every
window and global count.  Every graph a cell is scored on is held as a
bit mask, one bit per cell: a cell ORs its learned mask with its pattern
mask and scores the union by two popcounts, of the union and of the union
AND the gold mask.

Groups are independent; with ``workers > 1`` they run in separate processes.
Per-cell RNG streams are derived from the master seed and the cell key, and
records are sorted canonically before writing, so neither parallel
execution nor the order of the grids can change any output byte.

What groups share is computed once per ``run_sweep`` call and dropped when
it returns: the gold graph, its bit mask and the projected queries/keys of
every instance, and each pattern graph without random global tokens as its
bit mask.
"""

import math
import numbers
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from ._textio import read_csv, write_csv, write_json
from .entmax import EntmaxParams
from .errors import ConfigError, DataError
from .graph import admissible_count, extract_graph, sparsity
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


class Method(NamedTuple):
    """One predictor as the sweep runs it.

    ``grid`` maps each parameter to its element kind, least value and
    default values.  ``predict(params, sm, Qp, Kp, centroids, rng)`` is the
    learned graph of one instance, None for a pattern-only method.
    ``projects``: it predicts from the projected Q and K.  ``centroids``:
    the grid key that names the centroid count B.  ``draws``: it draws from
    the per-(cell, instance) RNG.
    """

    grid: dict
    predict: object = None
    projects: bool = False
    centroids: str = None
    draws: bool = False


def _routing(params, sm, Qp, Kp, centroids, rng):
    topk = -(-sm.n // int(params["c"]))  # balanced: ceil(n / c) per centroid
    return buckets_to_graph(routing_assign(Qp, centroids, min(topk, sm.n)),
                            routing_assign(Kp, centroids, min(topk, sm.m)), causal=sm.causal)


def _lsh(params, sm, Qp, Kp, centroids, rng):
    seed = int(rng.integers(2**63))  # one hash seed, shared by the Q and K hashes
    qa, ka = (lsh_assign(X, params["rounds"], params["num_buckets"], seed=seed) for X in (Qp, Kp))
    return buckets_to_graph(qa, ka, causal=sm.causal)


# every predictor of the sweep, in the order of the CLI's default and of messages
METHODS = {
    "window": Method({}),
    "distance": Method(
        {"t": (float, 0, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])},
        lambda p, sm, Qp, Kp, C, rng: distance_pairing(Qp, Kp, p["t"], causal=sm.causal),
        projects=True),
    "quantization": Method(
        {"beta": (int, 1, [1, 2, 3, 4, 5])},
        lambda p, sm, Qp, Kp, C, rng: buckets_to_graph(*quantize_qk(Qp, Kp, p["beta"]),
                                                       causal=sm.causal),
        projects=True),
    "clustering": Method(
        {"B": (int, 1, [2, 4, 6, 8, 10, 12, 16, 20]), "k": (int, 1, [1, 2])},
        lambda p, sm, Qp, Kp, C, rng: buckets_to_graph(*cluster_qk(Qp, Kp, C, p["k"]),
                                                       causal=sm.causal),
        projects=True, centroids="B"),
    "routing": Method({"c": (int, 1, [2, 4, 6, 8, 10])}, _routing, projects=True, centroids="c"),
    "lsh": Method({"num_buckets": (int, 1, [2, 4, 6, 8, 10, 12]), "rounds": (int, 1, [1])}, _lsh,
                  projects=True, draws=True),
    "bigbird": Method(
        {"num_blocks": (int, 0, [2, 4, 6, 8, 10, 12, 16, 20])},
        lambda p, sm, Qp, Kp, C, rng: bigbird_random_blocks(
            sm.n, sm.m, p["num_blocks"], block_size=1, seed=int(rng.integers(2**63)),
            causal=sm.causal),
        draws=True),
    "longformer": Method({"num_globals": (int, 0, [2, 4, 6, 8, 10, 12, 16, 20])}),
}

DEFAULT_WINDOWS = (0, 1, 3, 5, 7, 9, 11, 15, 19, 23, 27)

SWEEP_CSV_COLUMNS = ["method", "hyperparams", "layer", "head", "sparsity", "recall"]
PARETO_CSV_COLUMNS = ["method", "hyperparams", "sparsity", "recall"]


@dataclass(frozen=True)
class SweepRecord:
    method: str
    hyperparams: dict
    layer: int
    head: int
    sparsity: float
    recall: float

    def __post_init__(self):
        if not (0.0 <= self.sparsity <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ValueError("sparsity and recall must lie in [0, 1]")


def check_value(name, value, kind, least=None):
    """``value`` cast to ``kind`` (int, float, bool, str, dict, or ``[kind]``
    for a non-empty list without repeats, cast to a tuple), at least
    ``least`` if given; else ConfigError.  An int is an integer and not a
    bool; a float is a finite integer or float and not a bool."""
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        items = tuple(check_value(name, v, kind[0], least) for v in value)
        if len(set(items)) < len(items):
            raise ConfigError(f"{name} must not repeat an element, got {list(value)!r}")
        return items
    try:
        ok = (isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))
              and (kind is bool or not isinstance(value, bool))
              and (kind is not float or math.isfinite(value)))
    except OverflowError:  # an integer beyond the range of a float
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class PatternGrid:
    windows: tuple = DEFAULT_WINDOWS
    global_counts: tuple = (0,)
    global_mode: str = "random"  # which tokens become global: random | prefix

    def __post_init__(self):
        if self.global_mode not in ("random", "prefix"):
            raise ConfigError(f"global_mode must be random or prefix, got {self.global_mode!r}")
        windows = check_value("windows", self.windows, [int], 0)
        if any(w % 2 == 0 for w in windows if w > 0):
            raise ConfigError(f"windows must be 0 or odd positive integers, got {list(windows)}")
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "global_counts",
                           check_value("global_counts", self.global_counts, [int], 0))


@dataclass
class SweepArtifacts:
    """Fitted inputs a method may require: projections per (layer, head) and
    centroids per (layer, head, B)."""

    heads: dict = field(default_factory=dict)
    centroids: dict = field(default_factory=dict)


def _grid_for(method: str, grids: dict) -> dict:
    """User grid for a method, with defaults filling any missing parameter."""
    defaults = {name: values for name, (*_, values) in METHODS[method].grid.items()}
    return {**defaults, **grids.get(method, {})}


def validate_grids(methods, grids):
    """ConfigError unless the methods are known and distinct, every grid
    names a known method, only parameters of that method, and for each a
    non-empty list of distinct values of the parameter's type and range,
    and no clustering k exceeds the smallest B."""
    for method in check_value("methods", methods, [str]):
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    for method, grid in check_value("grids", grids, dict).items():
        if method not in METHODS:
            raise ConfigError(f"grid for unknown method {method!r}; choose from {tuple(METHODS)}")
        params = METHODS[method].grid
        for name, values in check_value(f"grid {method}", grid, dict).items():
            if name not in params:
                raise ConfigError(
                    f"method {method!r} has no parameter {name!r}; "
                    f"its parameters are {sorted(params)}"
                )
            kind, least, _ = params[name]
            check_value(f"grid {method}.{name}", values, [kind], least)
    clustering = _grid_for("clustering", grids)
    if max(clustering["k"]) > min(clustering["B"]):
        raise ConfigError(f"clustering k must be at most the smallest B, "
                          f"{min(clustering['B'])}, got {max(clustering['k'])}")


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


def _build_groups(methods, grids):
    """Every (method, params) pair of the grids, in grid order."""
    groups = []
    for method in methods:
        grid = _grid_for(method, grids)
        names = sorted(grid)
        combos = [dict(zip(names, vals))
                  for vals in product(*(grid[name] for name in names))] or [{}]
        groups.extend((method, params) for params in combos)
    return groups


def _validate_artifacts(instances, methods, grids, artifacts: SweepArtifacts):
    keys = sorted({(sm.layer, sm.head) for sm in instances})
    dims = {(sm.layer, sm.head): sm.d for sm in instances}
    for method in methods:
        spec = METHODS[method]
        if spec.projects:
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
        if spec.centroids:
            for B in _grid_for(method, grids)[spec.centroids]:
                for key in keys:
                    if key + (int(B),) not in artifacts.centroids:
                        raise ConfigError(
                            f"method {method!r} needs centroids B={B} for layer/head {key}"
                        )


# ---------------------------------------------------------------------------
# Scoring by popcount.  A mask holds a graph's cells as bits, 64 to a word:
# about n*m/8 bytes per graph, however many edges it has.


def _mask(graph) -> np.ndarray:
    """One bit of word ``lin // 64`` is set for each edge ``lin``; the
    padding bits of the last word are clear."""
    cells = np.zeros(-(-graph.n * graph.m // 64) * 64, bool)
    cells[graph._lin] = True
    return np.packbits(cells, bitorder="little").view(np.uint64)


def _popcount(mask) -> int:
    return int(np.bitwise_count(mask).sum())


def _union_scores(learned, pattern, gold_mask, gold):
    """``(sparsity, recall)`` of the union of the masks ``learned`` (None:
    no learned graph) and ``pattern`` against ``gold``, whose mask is
    ``gold_mask``.  The final expressions are those of ``graph.sparsity``
    and ``graph.recall``, so the values are equal bit for bit."""
    union = pattern if learned is None else learned | pattern
    edges, hits = _popcount(union), _popcount(union & gold_mask)
    return 1.0 - edges / admissible_count(gold.n, gold.m, gold.causal), hits / gold.edge_count


@dataclass
class _SweepState:
    """Everything the groups of one ``run_sweep`` call share.

    ``projections[idx]`` holds instance idx's projected (Q, K), or None when
    no swept method projects, and ``gold_masks[idx]`` the mask of its gold
    graph.  ``patterns`` memoises, as groups ask for them, the mask of each
    pattern graph without random global tokens per (PatternConfig, n, m).
    """

    instances: list
    golds: list
    gold_masks: list
    artifacts: SweepArtifacts
    projections: list
    seed: int
    pattern_grid: PatternGrid
    patterns: dict = field(default_factory=dict)

    def pattern(self, pc: PatternConfig, sm) -> np.ndarray:
        key = (pc, sm.n, sm.m)
        if key not in self.patterns:
            self.patterns[key] = _mask(window_global_graph(sm.n, sm.m, pc))
        return self.patterns[key]


def _learned(method, params, sm, artifacts, proj, rng):
    """The mask of one instance's learned graph, or None for a pattern-only
    method."""
    spec = METHODS[method]
    if spec.predict is None:
        return None
    Qp, Kp = proj if spec.projects else (None, None)
    centroids = (artifacts.centroids[(sm.layer, sm.head, int(params[spec.centroids]))]
                 if spec.centroids else None)
    return _mask(spec.predict(params, sm, Qp, Kp, centroids, rng))


def _eval_group(group, state: _SweepState):
    """Records of every cell of one (method, params) group.

    The group's cells are its pattern points (window, global count).  Each
    instance is visited once, and a method that draws nothing predicts its
    learned graph there once for all of the points.
    """
    method, params = group
    draws = METHODS[method].draws
    grid = state.pattern_grid
    # longformer's own hyperparameter is the global-token count
    g_axis = (0,) if method == "longformer" else grid.global_counts
    cells = []  # (window, global count, RNG key, hyperparams, per-head sums)
    for w, g in product(grid.windows, g_axis):
        g_count = int(params["num_globals"]) if method == "longformer" else g
        hp = dict(params, window=w)
        if g_count > 0 and method != "longformer":
            hp.update(globals=g_count, global_mode=grid.global_mode)
        crc = zlib.crc32(f"{method}|{_hp_str(params)}|w={w}|g={g}".encode())
        cells.append((w, g_count, crc, hp, {}))
    for idx, (sm, gold, gold_mask) in enumerate(zip(state.instances, state.golds,
                                                     state.gold_masks)):
        proj = state.projections[idx]
        if not draws:
            learned = _learned(method, params, sm, state.artifacts, proj, None)
        limit = min(sm.n, sm.m)
        for w, g_count, crc, _, sums in cells:
            take = min(g_count, limit)
            random_globals = g_count > 0 and grid.global_mode == "random"
            # the per-(cell, instance) generator, made only where it is drawn from
            rng = None
            if random_globals or draws:
                rng = np.random.default_rng((state.seed, crc, idx))
            if random_globals:  # drawn per (cell, instance): nothing to share
                globals_ = tuple(int(t) for t in rng.choice(limit, size=take, replace=False))
                pattern = _mask(window_global_graph(sm.n, sm.m,
                                                    PatternConfig(w, globals_, sm.causal)))
            else:
                pattern = state.pattern(PatternConfig(w, tuple(range(take)), sm.causal), sm)
            if draws:
                learned = _learned(method, params, sm, state.artifacts, proj, rng)
            s, r = _union_scores(learned, pattern, gold_mask, gold)
            key = (sm.layer, sm.head)
            s_sum, r_sum, count = sums.get(key, (0.0, 0.0, 0))
            sums[key] = (s_sum + s, r_sum + r, count + 1)
    records = []
    for *_, hp, sums in cells:
        for (layer, head), (s_sum, r_sum, count) in sorted(sums.items()):
            records.append(SweepRecord(method, hp, layer, head, s_sum / count, r_sum / count))
    return records


# A pool worker's copy of the sweep state, set once by ``_init_worker``.
# Only pool processes set it, and they exit with the pool inside
# ``run_sweep``.
_worker_state = None


def _init_worker(state):
    global _worker_state
    _worker_state = state


def _eval_group_in_worker(group):
    return _eval_group(group, _worker_state)


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
    ConfigError before any evaluation if a method or grid is invalid or a
    method lacks its fitted artifacts.  With ``workers > 1`` each pool
    process receives the shared state once, through the pool's initializer,
    and the (method, params) groups are spread over the pool.
    """
    instances = list(instances)
    if not instances:
        raise ConfigError("no instances to sweep")
    grids = {} if grids is None else grids
    methods = list(methods)
    validate_grids(methods, grids)
    artifacts = artifacts or SweepArtifacts()
    _validate_artifacts(instances, methods, grids, artifacts)
    groups = _build_groups(methods, grids)
    params = EntmaxParams(alpha=alpha)
    golds = [extract_graph(sm, params) for sm in instances]
    gold_masks = [_mask(gold) for gold in golds]
    if any(METHODS[method].projects for method in methods):
        projections = []
        for sm in instances:
            head: ProjectionHead = artifacts.heads[(sm.layer, sm.head)]
            projections.append((project_rows(head, sm.Q), project_rows(head, sm.K)))
    else:
        projections = [None] * len(instances)
    state = _SweepState(instances, golds, gold_masks, artifacts, projections, seed, pattern_grid)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(state,)) as pool:
            per_group = list(pool.map(_eval_group_in_worker, groups))
    else:
        per_group = [_eval_group(group, state) for group in groups]
    records = [rec for group_records in per_group for rec in group_records]
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
    write_csv(path, SWEEP_CSV_COLUMNS, (
        [rec.method, _hp_str(rec.hyperparams), rec.layer, rec.head, _fmt(rec.sparsity), _fmt(rec.recall)]
        for rec in records))


def _parse_hp(text: str) -> dict:
    """The hyperparameters that ``_hp_str`` wrote as ``text``."""
    hp = {}
    for part in text.split("|") if text else ():
        key, eq, raw = part.partition("=")
        if not eq or not key or key in hp:
            raise ValueError(f"hyperparams {text!r}: expected distinct key=value parts")
        try:
            hp[key] = int(raw)
        except ValueError:
            try:
                hp[key] = float(raw)
            except ValueError:
                hp[key] = raw
    return hp


def read_sweep_csv(path):
    """The records of a ``sweep.csv``; a malformed row is a DataError at
    its line."""
    records = []
    for line, row in read_csv(path, SWEEP_CSV_COLUMNS):
        try:
            records.append(SweepRecord(
                method=row[0], hyperparams=_parse_hp(row[1]), layer=int(row[2]),
                head=int(row[3]), sparsity=float(row[4]), recall=float(row[5])))
        except ValueError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    return records


def write_pareto_csv(frontiers, path):
    write_csv(path, PARETO_CSV_COLUMNS, (
        [method, _hp_str(rec.hyperparams), _fmt(rec.sparsity), _fmt(rec.recall)]
        for method in sorted(frontiers) for rec in frontiers[method]))


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
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary
