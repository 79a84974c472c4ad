"""Static hygiene of the package: no unused imports, a clean public name list."""

import ast
from pathlib import Path

import pytest

import fada

MODULES = sorted(p for p in Path(fada.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _names(tree):
    """Every name loaded in the tree, quoted forward references included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= _names(ast.parse(const.value, mode="eval"))
    return names


def unused_imports(source):
    """The names bound by imports in `source` that nothing refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    return sorted(imported - _names(tree))


def test_scanner_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Dict, List, Optional\n"
              "def f(x: 'Dict[int, int]') -> Optional[int]:\n"
              "    return None\n")
    assert unused_imports(source) == ["List", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_public_names_resolve_once():
    names = fada.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(fada, n)] == []
