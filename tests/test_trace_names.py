"""The names the traced benchmark (``perfbench/spans.py``) patches exist.

``python3 perfbench/run.py --trace 1`` looks each of them up with
``getattr``; a renamed or deleted function would break the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import sparseattn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    # submodules by their full names: ``sparseattn.entmax`` is the function
    missing = [
        f"{modname}.{attr}" for modname, attr, _, _ in _spans().LAYERS
        if not callable(getattr(importlib.import_module(f"sparseattn.{modname}"), attr, None))
    ]
    assert missing == []
    assert callable(sparseattn.AttentionGraph.__init__)
    assert isinstance(sparseattn.AttentionGraph.edge_count, property)
    assert isinstance(sparseattn.BucketAssignment.n_tokens, property)
