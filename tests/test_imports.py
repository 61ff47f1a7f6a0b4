"""No module of oscat imports a name it does not use.

A module-level import must be used by name in its module, or be re-exported
through the module's `__all__`; `from __future__` imports are exempt.  A
leftover import is what a deletion tends to leave behind.
"""
import ast
from pathlib import Path

import pytest

import oscat

ROOT = Path(oscat.__file__).parent
FILES = sorted(ROOT.rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_files_found():
    assert {"qglue.py", "osx.py", "diamond.py"} <= {f.name for f in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_detects_a_leftover():
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom .osx import dual, sum_1\n"
                     "__all__ = ['sum_1']\ndef f(x: 'int'):\n    return dual(x)\n")
    assert _unused_imports(tree) == [(2, "os")]
