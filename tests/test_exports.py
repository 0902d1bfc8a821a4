"""Every name the package exports is used by the program itself.

A name that only tests call is dead weight in the public API.  Each name
imported into ``sparseattn/__init__.py`` must be referenced, outside its
own definition, by a package module other than ``__init__.py`` or by a
module of ``perfbench/``.  The benchmark's trace binds some functions by
name, so a string equal to the name counts as a reference.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparseattn"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _referenced(paths):
    """Names read as a variable or an attribute, or spelled as a string."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_export_is_used_outside_tests():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = _referenced(modules + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(_exported() - used) == []
