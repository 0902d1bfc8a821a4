"""Every file the package writes is written by ``_textio``.

The on-disk encodings (ASCII matrices, JSON, CSV) are decided in one
module, so no other package module may open a file for writing, call
``json.dump`` or make a ``csv.writer``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparseattn"


def _open_mode(call):
    """The mode string of an ``open(...)`` call, or "r" when not given as a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "r"


def _writers(source):
    """(line, description) of each write-mode ``open``, ``json.dump`` and
    ``csv.writer`` call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and set(_open_mode(node)) & set("wax+"):
            found.append((node.lineno, f"open(..., {_open_mode(node)!r})"))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and (func.value.id, func.attr) in {("json", "dump"), ("csv", "writer")}):
            found.append((node.lineno, f"{func.value.id}.{func.attr}"))
    return found


def test_only_textio_writes_files():
    sites = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_textio.py"
             for line, what in _writers(path.read_text(encoding="utf-8"))]
    assert sites == []


def test_guard_sees_each_kind_of_writer():
    source = ('open(p, "w")\nopen(p, mode="ab")\nopen(p, "r+")\nopen(p)\nopen(p, "rb")\n'
              'json.dump(d, fh)\ncsv.writer(fh)\njson.load(fh)\ncsv.reader(fh)\n')
    assert [line for line, _ in _writers(source)] == [1, 2, 3, 6, 7]
