"""Every name the package exports is used by the program itself.

A name that only tests call is dead weight in the public API.  Each name
imported into ``sparseattn/__init__.py`` must be referenced, outside its
own definition, by a package module other than ``__init__.py`` or by a
module of ``perfbench/``.  The benchmark's trace binds some functions by
name, so a string equal to the name counts as a reference.

Every module-level public function or class of those modules must be
referenced, beyond its own definition, by the same package modules or
perfbench under the same rule, so a helper whose last caller is gone
fails even when it was never exported.  Likewise every module-level
private function, class or constant of the package must be referenced by
the package beyond its own definition.
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


def _names_in(tree):
    """Names read as a variable or an attribute, or spelled as a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _referenced(paths):
    return set().union(*(_names_in(ast.parse(path.read_text(encoding="utf-8")))
                         for path in paths))


def _private_defined(stmt):
    """The private, non-dunder names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_export_is_used_outside_tests():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = _referenced(modules + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(_exported() - used) == []


def test_every_public_definition_is_used_outside_tests():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    statements = [(path.name, stmt) for path in modules
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names_in(stmt) for _, stmt in statements]
    names.append(_referenced(sorted((ROOT / "perfbench").glob("*.py"))))
    unused = [f"{module}:{stmt.name}" for i, (module, stmt) in enumerate(statements)
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")
              and not any(stmt.name in used for j, used in enumerate(names) if j != i)]
    assert unused == []


def test_every_private_name_is_used_in_the_package():
    statements = [stmt for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names_in(stmt) for stmt in statements]
    unused = {name for i, stmt in enumerate(statements) for name in _private_defined(stmt)
              if not any(name in used for j, used in enumerate(names) if j != i)}
    assert sorted(unused) == []
