"""Static hygiene of the package: no unused imports, no orphaned private
helpers, a clean public name list."""

import ast
from pathlib import Path

import pytest

import fada

PACKAGE = sorted(Path(fada.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def orphaned_helpers(sources):
    """The private non-dunder functions and methods, as 'module:name', that
    no code in `sources` (module name -> text) refers to outside their own
    definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = {}  # name -> ids of the nodes that refer to it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            refs.setdefault(name, []).append(id(node))
    orphans = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_private(node.name)):
                inside = {id(n) for n in ast.walk(node)}
                if all(r in inside for r in refs.get(node.name, [])):
                    orphans.append("%s:%s" % (module, node.name))
    return sorted(orphans)


def test_scanner_flags_orphaned_helpers():
    source = ("class C:\n"
              "    def _used(self):\n"
              "        return self._used_too()\n"
              "    def _used_too(self):\n"
              "        return 1\n"
              "    def _orphan(self):\n"
              "        return self._orphan()\n"
              "    def __repr__(self):\n"
              "        return ''\n"
              "def _loose():\n"
              "    pass\n"
              "def public():\n"
              "    return C()._used()\n")
    assert orphaned_helpers({"m": source}) == ["m:_loose", "m:_orphan"]
    assert orphaned_helpers({"m": source, "n": "from m import _loose\n"}) == ["m:_orphan"]


def test_no_orphaned_private_helpers():
    assert orphaned_helpers({p.stem: p.read_text() for p in PACKAGE}) == []


def test_public_names_resolve_once():
    names = fada.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(fada, n)] == []
