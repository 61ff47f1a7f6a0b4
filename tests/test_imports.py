"""No module of oscat imports a name it does not use, or defines one nothing uses.

A module-level import must be used by name in its module, or be re-exported
through the module's `__all__`; `from __future__` imports are exempt.  A
module-level function or class must be referred to by name outside its own
body, in some oscat module, or be listed in its module's `__all__`.  Leftover
imports and definitions are what a deletion tends to leave behind.
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
    return sorted((line, name) for name, line in imported.items() if name not in used | _exported(tree))


def _exported(tree: ast.Module) -> set:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return exported


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names, attribute names and imported names that `tree` refers to outside `skip`."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _dead_definitions(trees: dict) -> list:
    """(file, line, name) of module-level functions and classes that no module refers to."""
    dead = []
    for path, tree in trees.items():
        elsewhere = _exported(tree).union(*(_names_used(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in elsewhere | _names_used(tree, skip=node):
                    dead.append((path, node.lineno, node.name))
    return dead


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


def test_no_dead_definition():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8")) for p in FILES}
    assert _dead_definitions(trees) == []


def test_detects_a_dead_definition():
    # a recursive function calls itself only inside its own body
    trees = {
        "a.py": ast.parse("__all__ = ['f']\ndef f():\n    return g()\ndef g():\n    return 1\n"
                          "def h(x):\n    return h(x - 1)\nclass K:\n    pass\n"),
        "b.py": ast.parse("from .a import K\n"),
    }
    assert _dead_definitions(trees) == [("a.py", 6, "h")]
