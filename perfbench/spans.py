"""Span tracing of sparseattn's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
sparseattn module that binds it (modules import each other's names
directly, so patching the defining module alone would miss most calls) and
``uninstall`` puts the originals back.  Each call records a span: name,
start, end, parent span, operation id and the time its child spans
covered.  Counts are recorded by the same wrappers.  Spans stay in memory
until ``write`` saves them when the run ends.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _manifest_bytes(path):
    """Bytes ``load_qk`` reads: the manifest plus every tensor file it lists."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    with open(path, "r", encoding="ascii") as fh:
        entries = json.load(fh)["matrices"]
    base = os.path.dirname(path)
    return os.path.getsize(path) + sum(os.path.getsize(os.path.join(base, e["path"]))
                                       for e in entries)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _sweep_counts(result):
    heads = {(rec.layer, rec.head) for rec in result}
    return {"sweep.records.count": len(result),
            "sweep.cells.count": len(result) // max(1, len(heads))}


# (module, attribute, metric stem, counts(args, kwargs, result, span) -> dict)
LAYERS = [
    ("_kernels", "sparse_rows_entmax15", "kernels.sparse_rows_entmax15",
     lambda a, k, r, s: {"kernels.sparse_rows_entmax15.cells": a[3].size}),
    ("_kernels", "entmax15_masked_rows", "kernels.entmax15_masked_rows",
     lambda a, k, r, s: {"kernels.entmax15_masked_rows.rows": a[0].shape[0]}),
    ("_kernels", "pairwise_sqdist", "kernels.pairwise_sqdist", None),
    ("_kernels", "kmeans_assign", "kernels.kmeans_assign",
     lambda a, k, r, s: {"kernels.kmeans_assign.calls": 1}),
    ("entmax", "masked_entmax", "entmax.masked_entmax",
     lambda a, k, r, s: {"entmax.masked_entmax.calls": 1}),
    ("graph", "graph_union", "graph.graph_union", None),
    ("graph", "recall", "graph.recall", None),
    ("graph", "sparsity", "graph.sparsity", None),
    ("graph", "extract_graph", "graph.extract_graph", None),
    ("graph", "write_graph", "graph.write_graph",
     lambda a, k, r, s: {"graph.write_graph.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("graph", "read_graph", "graph.read_graph",
     lambda a, k, r, s: {"graph.read_graph.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("graph", "attention_probs", "graph.attention_probs", None),
    ("predictors", "buckets_to_graph", "predictors.buckets_to_graph",
     lambda a, k, r, s: {"predictors.buckets_to_graph.mask_cells": a[0].n_tokens * a[1].n_tokens}),
    ("predictors", "combine_with_patterns", "predictors.combine_with_patterns", None),
    ("predictors", "window_global_graph", "predictors.window_global_graph", None),
    ("predictors", "distance_pairing", "predictors.distance_pairing", None),
    ("predictors", "quantize_qk", "predictors.quantize_qk", None),
    ("predictors", "cluster_qk", "predictors.cluster_qk", None),
    ("predictors", "routing_assign", "predictors.routing_assign", None),
    ("predictors", "lsh_assign", "predictors.lsh_assign", None),
    ("predictors", "bigbird_random_blocks", "predictors.bigbird_random_blocks", None),
    ("kmeans", "kmeans_fit", "kmeans.kmeans_fit",
     lambda a, k, r, s: {"kmeans.lloyd_steps.count":
                         s["assign_calls"] - _arg(a, k, 2, "cfg").n_init}),
    ("kmeans", "assign_topk_membership", "kmeans.assign_topk_membership", None),
    ("projection", "build_pair_dataset", "projection.build_pair_dataset",
     lambda a, k, r, s: {"projection.pairs.count": len(r)}),
    ("projection", "train_projection", "projection.train_projection", None),
    ("projection", "project_rows", "projection.project_rows",
     lambda a, k, r, s: {"projection.project_rows.calls": 1}),
    ("blocks", "csr_from_graph", "blocks.csr_from_graph", None),
    ("blocks", "sparse_attention_probs", "blocks.sparse_attention_probs",
     lambda a, k, r, s: {"blocks.score_flops.count": a[1].edge_count * 2 * a[0].d}),
    ("data", "load_qk", "data.load_qk",
     lambda a, k, r, s: {"data.load_qk.bytes": _manifest_bytes(_arg(a, k, 0, "path"))}),
    ("data", "save_qk", "data.save_qk", None),
    ("sweep", "run_sweep", "sweep.run_sweep", lambda a, k, r, s: _sweep_counts(r)),
    ("sweep", "report", "sweep.report", None),
    ("cli", "cmd_extract", "cli.extract", None),
    ("cli", "cmd_train_proj", "cli.train-proj", None),
    ("cli", "cmd_fit_kmeans", "cli.fit-kmeans", None),
    ("cli", "cmd_sweep", "cli.sweep", None),
]

GRAPH_INIT = ("graph.AttentionGraph",
              lambda a, k, r, s: {"graph.AttentionGraph.calls": 1,
                                  "graph.AttentionGraph.edges": a[0].edge_count})

# Per-layer metrics of a traced run: (name, unit).  ``.ms`` is self time.
PER_LAYER = sorted(
    [(stem + ".ms", "ms") for _, _, stem, _ in LAYERS] + [(GRAPH_INIT[0] + ".ms", "ms")]
    + [
        ("kernels.sparse_rows_entmax15.cells", "count"),
        ("kernels.entmax15_masked_rows.rows", "count"),
        ("kernels.kmeans_assign.calls", "count"),
        ("entmax.masked_entmax.calls", "count"),
        ("graph.AttentionGraph.calls", "count"),
        ("graph.AttentionGraph.edges", "count"),
        ("graph.write_graph.bytes", "bytes"),
        ("graph.read_graph.bytes", "bytes"),
        ("predictors.buckets_to_graph.mask_cells", "count"),
        ("kmeans.lloyd_steps.count", "count"),
        ("projection.pairs.count", "count"),
        ("projection.project_rows.calls", "count"),
        ("blocks.score_flops.count", "count"),
        ("blocks.useful_cell_ratio", "ratio"),
        ("data.load_qk.bytes", "bytes"),
        ("sweep.cells.count", "count"),
        ("sweep.records.count", "count"),
        ("trace.op_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
)


class Tracer:
    """Records spans and counts around the calls into sparseattn's layers.

    ``op`` labels the spans that follow: ``"setup"`` and ``"reference"``
    spans are counted once per run, an integer marks a timed operation.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = "setup"
        self.assign_calls = 0
        self._stack = []
        self._restore = []

    def _wrap(self, stem, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": stem, "op": tracer.op,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "child_s": 0.0, "assign_calls": tracer.assign_calls}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1]["child_s"] += span["end"] - span["start"]
            if stem == "kernels.kmeans_assign":
                tracer.assign_calls += 1
            if counts is not None:
                span["assign_calls"] = tracer.assign_calls - span["assign_calls"]
                for key, value in counts(args, kwargs, result, span).items():
                    tracer.counts[(span["op"], key)] += value
            return result

        return traced

    def install(self, package):
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(package.__name__ + ".")]
        for modname, attr, stem, counts in LAYERS:
            orig = getattr(sys.modules[f"{package.__name__}.{modname}"], attr)
            wrapper = self._wrap(stem, orig, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, orig))
        cls = package.AttentionGraph
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(GRAPH_INIT[0], cls.__init__, GRAPH_INIT[1])

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    def per_layer(self, n_ops):
        """Self time and counts of one set-up plus one mean operation."""
        values = defaultdict(float)

        def add(op, key, value):
            if isinstance(op, int):
                values[key] += value / n_ops
            else:
                values[key] += value

        for span in self.spans:
            add(span["op"], span["name"] + ".ms",
                1e3 * (span["end"] - span["start"] - span["child_s"]))
        for (op, key), value in self.counts.items():
            add(op, key, value)
        return values

    def write(self, path):
        """Save every span, one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps({k: span[k] for k in
                                     ("id", "name", "start", "end", "parent", "op")}) + "\n")
