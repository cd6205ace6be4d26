"""Every name a module imports is used.

CI has no lint step, so this scan stands in for one: in every
non-``__init__`` module of ``src/repro``, each module-level import (and
each import under a module-level ``if TYPE_CHECKING:``) must bind a name
that the module reads as an ``ast.Name`` or names as a whole
identifier inside a string constant (a quoted annotation, ``__all__``).
Package ``__init__`` modules are skipped: re-exporting is what their
imports are for.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _module_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            yield from (child for child in node.body
                        if isinstance(child, (ast.Import, ast.ImportFrom)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    unused = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in names:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 50
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []
