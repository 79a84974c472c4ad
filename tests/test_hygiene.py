"""Static hygiene of the package: no unused imports, no orphaned private
helpers, no public function that only tests call, no defaulted parameter
that only tests pass, no parameter that no body reads, no attribute that
nothing reads, a clean public name list."""

import ast
from pathlib import Path

import pytest

import fada

PACKAGE_DIR = Path(fada.__file__).resolve().parent
PACKAGE = sorted(PACKAGE_DIR.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
# the code whose calls justify library surface: a name or a value that only
# tests use does not; the package's __init__ re-exports names and calls none
CALLERS = sorted(p for d in ("src", "perfbench", "scripts")
                 for p in (ROOT / d).rglob("*.py")
                 if p != PACKAGE_DIR / "__init__.py")


def caller_sources():
    """The callers' texts, package modules by module name, the rest by path."""
    return {p.stem if p.parent == PACKAGE_DIR else str(p.relative_to(ROOT)): p.read_text()
            for p in CALLERS}


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


def uncalled_public_names(sources, defining):
    """The public functions and methods, as 'module:Class.name', of the
    modules `defining` among `sources` (module name -> text) that no code in
    `sources` names outside their own definition.

    A name counts as an identifier, an attribute, an imported name or a
    string constant equal to it, so a getattr by name or a patch list names
    its function too.  Dunder methods are called by the language."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = {}  # name -> ids of the nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, set()).add(id(node))
    found = []
    for module in defining:
        for fn, cls, _ in _functions(trees[module]):
            if fn.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(fn)}
            if refs.get(fn.name, set()) <= inside:
                found.append("%s:%s" % (module, "%s.%s" % (cls, fn.name) if cls else fn.name))
    return sorted(found)


def test_scanner_flags_uncalled_public_names():
    source = ("class C:\n"
              "    def used(self):\n"
              "        return self.helper()\n"
              "    def helper(self):\n"
              "        return 1\n"
              "    def recursive(self):\n"
              "        return self.recursive()\n"
              "    def by_string(self):\n"
              "        pass\n"
              "    def __repr__(self):\n"
              "        return ''\n"
              "def _private():\n"
              "    pass\n"
              "def loose():\n"
              "    pass\n")
    caller = "import m\nm.C().used()\ngetattr(m.C, 'by_string')\n"
    assert uncalled_public_names({"m": source, "n": caller}, ["m"]) == [
        "m:C.recursive", "m:loose"]
    assert uncalled_public_names({"m": source}, ["m"]) == [
        "m:C.by_string", "m:C.recursive", "m:C.used", "m:loose"]
    assert uncalled_public_names(
        {"m": source, "n": caller + "from m import loose\n"}, ["m"]) == ["m:C.recursive"]


# constructions of the paper that the library defines for its readers and
# the tests check, though no code of the package calls them -> why they stay
PAPER_API = {
    "algebra:TorusAlgebra.augmentation": "the counit of S, on which the Hopf structure rests",
    "algebra:TorusAlgebra.demazure": "the classical Demazure operator Delta_i on S",
    "algebra:TorusAlgebra.kappa": "kappa_i of the quadratic relation X_i^2 = kappa_i X_i",
    "algebra:TorusAlgebra.to_series": "an exact-backend element in the SER model of its law",
    "connective:ConnectiveContext.x_in_y": "the transition from the X- to the Y-basis",
    "connective:ConnectiveContext.y_w0_closed": "the closed form of Y_{w_0}",
    "connective:conjugation_check": "eta_{w_0} X_i eta_{w_0} = X_{-i*}",
    "connective:dual_y_vanishing_check": "Y_{w_0} kills the Y-flavor duals Y*_w",
    "duals:characteristic": "the characteristic map of S into the duals, w -> w(u)",
    "duals:pr_star": "the pull-back of a lattice function through pr",
    "duals:restrict_to_translations": "the restriction of a dual to the translations",
    "peterson:antipode": "the antipode of the Peterson subalgebra",
    "peterson:coproduct": "the coproduct of the Peterson subalgebra",
    "peterson:coproduct_multiply": "the product of the Peterson subalgebra's tensor square",
    "peterson:counit": "the counit of the Peterson subalgebra",
    "scalars:Scalar.substitute": "specializes c, as to the ADD (c = 0) and MUL (c = 1) models",
}


def test_every_public_name_has_a_caller():
    assert uncalled_public_names(caller_sources(),
                                 [p.stem for p in MODULES]) == sorted(PAPER_API)


def _functions(tree):
    """(function, class name or None, decorator names) for every function
    definition in the tree."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls, {d.id for d in child.decorator_list
                                   if isinstance(d, ast.Name)}
                yield from visit(child, None)
            else:
                yield from visit(child, cls)
    return visit(tree, None)


def dead_knobs(defining, calling):
    """The defaulted parameters, as 'module:function(param=)', of the
    functions in `defining` (module name -> text) that no call in `calling`
    (the same) passes, by keyword or by position.

    Calls match by name: f(...) and obj.f(...) call every function f, and
    C(...) calls C.__init__, as does cls(...) inside a classmethod of C.  A
    call with *args passes every position, one with **kwargs every name."""
    passed = {}  # callee name -> [positional count, keyword names]
    for text in calling.values():
        tree = ast.parse(text)
        classmethod_of = {}  # id of a node inside a classmethod -> its class
        for fn, cls, decorators in _functions(tree):
            if "classmethod" in decorators:
                classmethod_of.update((id(n), cls) for n in ast.walk(fn))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls" and id(call) in classmethod_of:
                name = classmethod_of[id(call)]
            seen = passed.setdefault(name, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            seen[0] = max(seen[0], float("inf") if starred else len(call.args))
            seen[1] |= {k.arg for k in call.keywords}
    knobs = []
    for module, text in defining.items():
        for fn, cls, decorators in _functions(ast.parse(text)):
            bound = cls is not None and "staticmethod" not in decorators
            name = cls if fn.name == "__init__" and cls else fn.name
            npos, keywords = passed.get(name, (0, set()))
            if None in keywords:
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for i, arg in defaulted:
                by_position = i is not None and npos + bound > i
                if not by_position and arg.arg not in keywords:
                    qual = "%s.%s" % (cls, fn.name) if cls else fn.name
                    knobs.append("%s:%s(%s=)" % (module, qual, arg.arg))
    return sorted(knobs)


def test_scanner_flags_dead_knobs():
    source = ("class C:\n"
              "    def __init__(self, a, b=1, c=2, d=3):\n"
              "        pass\n"
              "    @classmethod\n"
              "    def make(cls):\n"
              "        return cls(0, d=4)\n"
              "    def m(self, x=0, y=0, *, z=1):\n"
              "        pass\n"
              "    @staticmethod\n"
              "    def s(x=0):\n"
              "        pass\n"
              "def f(a, b=None, c=None):\n"
              "    return C(1, 2).m(3)\n"
              "def g(p=1, q=2):\n"
              "    pass\n"
              "def h(r=1):\n"
              "    pass\n")
    calls = ("from m import C, f, g, h\n"
             "f(1, c=2)\n"
             "C.s(5)\n"
             "g(*[1, 2])\n"
             "h(**{})\n")
    assert dead_knobs({"m": source}, {"m": source, "n": calls}) == [
        "m:C.__init__(c=)", "m:C.m(y=)", "m:C.m(z=)", "m:f(b=)"]
    # without the classmethod, nothing passes d
    assert "m:C.__init__(d=)" in dead_knobs(
        {"m": source}, {"m": source.replace("cls(0, d=4)", "None"), "n": calls})


# defaulted parameter -> why it stays though only tests pass it
KNOBS = {
    "polyops:pdiv_exact(poly=)":
        "the tests' general division oracle, against which the one-variable "
        "and chain divisions are checked, needs polynomial slots",
}


def test_no_dead_knobs():
    assert dead_knobs({p.stem: p.read_text() for p in PACKAGE},
                      caller_sources()) == sorted(KNOBS)


def unread_parameters(sources):
    """The parameters, as 'module:function(param)', that the body of their
    function (nested functions included) never reads, in `sources` (module
    name -> text); the self or cls of a method is not counted."""
    found = []
    for module, text in sources.items():
        for fn, cls, decorators in _functions(ast.parse(text)):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            if cls is not None and "staticmethod" not in decorators:
                params = params[1:]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            qual = "%s.%s" % (cls, fn.name) if cls else fn.name
            found += ["%s:%s(%s)" % (module, qual, a.arg) for a in params
                      if a.arg not in read]
    return sorted(found)


def test_scanner_flags_unread_parameters():
    source = ("class C:\n"
              "    def m(self, a, b):\n"
              "        return a\n"
              "    @staticmethod\n"
              "    def s(x, y):\n"
              "        return y\n"
              "    @classmethod\n"
              "    def k(cls, z):\n"
              "        return cls\n"
              "def f(p, *args, q, **kw):\n"
              "    def inner(r):\n"
              "        return p\n"
              "    return inner(q)\n"
              "def g(t):\n"
              "    t = 1\n")
    assert unread_parameters({"m": source}) == [
        "m:C.k(z)", "m:C.m(b)", "m:C.s(x)", "m:f(args)", "m:f(kw)", "m:g(t)",
        "m:inner(r)"]


# parameter -> why it stays
UNREAD = {
    "connective:bullet_yw0_check(window)":
        "the benchmark's connective workload passes it by position",
}


def test_every_parameter_is_read():
    assert unread_parameters({p.stem: p.read_text() for p in MODULES}) == sorted(UNREAD)


def test_public_names_resolve_once():
    names = fada.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(fada, n)] == []


# the one sum of maps: every other map, the twisted product included, is summed through it
ACCUMULATORS = ["twisted:row_sum"]


def _is_accumulation(node):
    """Whether `node` is the statement out[k] = out[k] + v if k in out else v."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.IfExp)):
        return False
    target, body, test = node.targets[0], node.value.body, node.value.test
    src = ast.unparse
    return (isinstance(body, ast.BinOp) and isinstance(body.op, ast.Add)
            and src(body.left) == src(target)
            and isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
            and src(test.left) == src(target.slice)
            and src(test.comparators[0]) == src(target.value))


def accumulation_loops(sources):
    """The functions, as 'module:Class.name', that sum into a dict by hand
    with out[k] = out[k] + v if k in out else v."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif _is_accumulation(child):
                found.add("%s:%s" % (module, ".".join(scope)))
            visit(child, module, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module, [])
    return sorted(found)


def test_scanner_flags_accumulation_loops():
    source = ("def f(pairs):\n"
              "    out = {}\n"
              "    for k, v in pairs:\n"
              "        out[k] = out[k] + v if k in out else v\n"
              "    return out\n"
              "class C:\n"
              "    def g(self, acc, k, v):\n"
              "        acc[k] = acc[k] + v if k in acc else v\n"
              "    def h(self, acc, k, v):\n"
              "        acc[k] = acc.get(k, 0) + v\n"
              "        acc[k] = acc[k] + v if k in self.other else v\n")
    assert accumulation_loops({"m": source}) == ["m:C.g", "m:f"]


def test_maps_are_summed_only_by_row_sum():
    assert accumulation_loops({p.stem: p.read_text() for p in PACKAGE}) == ACCUMULATORS


# private dict set up by an __init__ -> why it is not a `memo`
GROWING_TABLES = {
    "fgl:FormalGroupLaw._table": "grows degree by degree as the law is truncated higher",
}


def _is_empty_dict(node):
    return ((isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "dict" and not node.args and not node.keywords))


def hand_rolled_caches(sources):
    """The tables, as 'module:Class.attr', that a class keeps by hand: a
    private attribute that its __init__ sets to an empty dict, and a
    dataclass field built by default_factory=dict with init=False."""
    found = []
    for module, text in sources.items():
        for cls in (n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                value = getattr(node, "value", None)
                if (isinstance(node, ast.AnnAssign) and isinstance(value, ast.Call)
                        and getattr(value.func, "id", None) == "field"):
                    keywords = {k.arg: ast.unparse(k.value) for k in value.keywords}
                    if (keywords.get("default_factory") == "dict"
                            and keywords.get("init") == "False"):
                        found.append("%s:%s.%s" % (module, cls.name, node.target.id))
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    for stmt in ast.walk(node):
                        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                                   else [])
                        found += ["%s:%s.%s" % (module, cls.name, t.attr) for t in targets
                                  if isinstance(t, ast.Attribute) and _is_private(t.attr)
                                  and _is_empty_dict(stmt.value)]
    return sorted(found)


def test_scanner_flags_hand_rolled_caches():
    source = ("from dataclasses import dataclass, field\n"
              "class C:\n"
              "    def __init__(self):\n"
              "        self._cache = {}\n"
              "        self._typed: dict = dict()\n"
              "        self.public = {}\n"
              "        self._full = {1: 2}\n"
              "    def later(self):\n"
              "        self._late = {}\n"
              "@dataclass\n"
              "class D:\n"
              "    data: dict = field(default_factory=dict)\n"
              "    _seen: dict = field(default_factory=dict, init=False, repr=False)\n")
    assert hand_rolled_caches({"m": source}) == ["m:C._cache", "m:C._typed", "m:D._seen"]


def test_caches_go_through_memo():
    assert hand_rolled_caches({p.stem: p.read_text() for p in MODULES}) == sorted(GROWING_TABLES)


def write_only_attributes(defining, reading):
    """The attributes, as 'module:Class.attr', that a method of a class in
    `defining` (module name -> text) assigns on its self and that no code in
    `reading` (the same) loads, as any object's attribute."""
    read = {node.attr for text in reading.values() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for module, text in defining.items():
        for fn, cls, decorators in _functions(ast.parse(text)):
            if cls is None or not fn.args.args or decorators & {"staticmethod", "classmethod"}:
                continue
            me = fn.args.args[0].arg
            found |= {"%s:%s.%s" % (module, cls, node.attr) for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == me
                      and node.attr not in read}
    return sorted(found)


def test_scanner_flags_write_only_attributes():
    source = ("class C:\n"
              "    def __init__(self, x):\n"
              "        self.kept = x\n"
              "        self.lost = x\n"
              "        self.elsewhere, self.counted = x, 0\n"
              "    def bump(self):\n"
              "        self.counted += 1\n"
              "        return self.kept\n"
              "    @staticmethod\n"
              "    def s(other):\n"
              "        other.moved = 1\n"
              "def f(obj):\n"
              "    obj.loose = 1\n")
    assert write_only_attributes({"m": source}, {"m": source}) == [
        "m:C.counted", "m:C.elsewhere", "m:C.lost"]
    assert write_only_attributes({"m": source}, {"m": source, "n": "print(c.elsewhere)\n"}) == [
        "m:C.counted", "m:C.lost"]


def test_every_attribute_is_read():
    assert write_only_attributes({p.stem: p.read_text() for p in MODULES},
                                 caller_sources()) == []
