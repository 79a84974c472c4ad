"""Command-line surface: reproducible tables, checks and reports.

Every command emits either human-readable text or JSON with a stable field
order, so identical configurations produce byte-identical output.  Exit code
0 means the computation ran and every verification passed, 1 flags a
verification failure, and 2 a configuration problem.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import fgl as fgl_mod
from .a1hat import appendix_crosscheck, eta_sigma_closed, sigma_index
from .algebra import EXACT_BACKENDS, AlgebraElement, Localized, TorusAlgebra
from .connective import ConnectiveContext, check_recursion, hecke_action_check
from .duals import dual_x, gkm_check_big, gkm_check_small
from .errors import ConfigError, FadaError, MembershipError, WindowExceededError
from .peterson import PetersonContext, centralizer_report
from .roots import AffineElt, AffineWeylGroup, FiniteRootDatum, Window
from .twisted import ExpansionTables, TwistedAlgebra, braid_check

SCHEMA = 1


@dataclass
class JobConfig:
    """Parsed command-line state shared by all subcommands.  `root` is the
    --root descriptor until a step builds it, then the root datum."""

    root: object = "A1"
    fgl: object = "connective"
    torus: str = "small"
    window: int = 3
    degree: int = 8
    fmt: str = "json"
    extra: Dict[str, object] = field(default_factory=dict)


# -- config parsing --------------------------------------------------------


def _load_arg(text: object) -> object:
    """Inline JSON, @file reference, or a bare name."""
    if not isinstance(text, str):
        return text
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                return json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read %s: %s" % (text[1:], exc))
        except ValueError as exc:
            raise ConfigError("bad JSON in %s: %s" % (text[1:], exc))
    stripped = text.strip()
    if stripped[:1] in "[{\"":
        try:
            return json.loads(stripped)
        except ValueError as exc:
            raise ConfigError("bad inline JSON %r: %s" % (text, exc))
    return stripped


def build_datum(spec: object) -> FiniteRootDatum:
    if isinstance(spec, FiniteRootDatum):
        return spec
    spec = _load_arg(spec)
    if isinstance(spec, str):
        return FiniteRootDatum.from_type(spec)
    if isinstance(spec, dict):
        if "type" in spec:
            if not isinstance(spec["type"], str):
                raise ConfigError("root 'type' must be a name such as 'A2', not %s"
                                  % json.dumps(spec["type"]))
            return FiniteRootDatum.from_type(spec["type"])
        if "cartan" in spec:
            return FiniteRootDatum.from_cartan(spec["cartan"])
    raise ConfigError("root descriptor needs a 'type' name or a 'cartan' matrix")


def build_law(spec: object):
    """Resolve an FGL name or descriptor to (backend, law-or-None).  A law an
    exact backend realizes gets that backend unless the descriptor names one."""
    spec = _load_arg(spec)
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ConfigError("formal group law descriptor must be a name or object")
    law = fgl_mod.from_descriptor({k: v for k, v in spec.items() if k != "backend"})
    exact = {kind: backend for backend, kind in EXACT_BACKENDS.items()}
    backend = spec.get("backend")
    if backend is None:
        backend = exact.get(law.kind, "SER")
    if backend == "SER":
        return "SER", law
    if exact.get(law.kind) != backend:
        raise ConfigError("backend %r does not realize law %r" % (backend, law.kind))
    return backend, None


def make_algebra(cfg: JobConfig) -> TwistedAlgebra:
    datum = build_datum(cfg.root)
    backend, law = build_law(cfg.fgl)
    torus = TorusAlgebra(datum, backend, cfg.torus, fgl=law, precision=cfg.degree)
    return TwistedAlgebra(torus)


def parse_word(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text or text == "e":
        return ()
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError("cannot parse word %r; expected letters like '0,1,0'" % text)


# -- serialization ---------------------------------------------------------


def elem_json(e: AlgebraElement) -> List[object]:
    return [[list(k), str(c)] for k, c in sorted(e.coefficients().items())]


def loc_json(c: Union[AlgebraElement, Localized]) -> Dict[str, object]:
    if isinstance(c, AlgebraElement):
        return {"num": elem_json(c), "den": []}
    s = c.simplify()
    return {"num": elem_json(s.num), "den": [list(b) for b in s.den]}


def _shortlex(pair: Tuple[Tuple[int, ...], object]) -> Tuple[int, Tuple[int, ...]]:
    """Sort key of a (word, item) pair: word length, then the word."""
    return len(pair[0]), pair[0]


def _by_compat_word(window: Window, elements: Iterable[AffineElt]
                    ) -> List[Tuple[Tuple[int, ...], AffineElt]]:
    """(compat word, element) pairs in shortlex order of the words."""
    return sorted(((window.compat_word(w), w) for w in elements), key=_shortlex)


def coeffs_json(window: Window, table: Mapping[AffineElt, object]) -> List[object]:
    return [[list(word), loc_json(table[w])] for word, w in _by_compat_word(window, table)]


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        out: List[str] = []
        _json_chunks(payload, "", out)
        out.append("\n")
        sys.stdout.write("".join(out))
        return
    sys.stdout.write("".join(line + "\n" for line in _text_lines(payload, "")))


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_chunks(node: object, pad: str, out: List[str]) -> None:
    """The text of json.dumps(node, sort_keys=True, indent=2), appended to
    `out` in pieces.  With `indent` set, json.dumps runs its pure-Python
    encoder; this walk calls the C string escaper directly and leaves the
    other scalars to json.dumps, which prints them alike at any indent.
    Dict keys must be strings, as in every payload."""
    kind = type(node)
    if kind is str:
        out.append(_ESCAPE(node))
    elif kind is int:
        out.append(repr(node))
    elif isinstance(node, (dict, list, tuple)):
        if not node:
            out.append("{}" if isinstance(node, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(node, dict):
            opening, closing = "{\n" + inner, "\n" + pad + "}"
            entries = ((_ESCAPE(k) + ": ", v) for k, v in sorted(node.items()))
        else:
            opening, closing = "[\n" + inner, "\n" + pad + "]"
            entries = (("", v) for v in node)
        sep = opening
        for prefix, value in entries:
            out += (sep, prefix)
            _json_chunks(value, inner, out)
            sep = ",\n" + inner
        out.append(closing)
    else:
        out.append(json.dumps(node))


def _text_lines(node: object, pad: str) -> Iterable[str]:
    """The lines of the text format: a dict's keys in sorted order, each
    list item after "- ", and a nonempty dict or list indented under its key
    or item; an empty one prints as {} or []."""
    if isinstance(node, dict) and node:
        for key in sorted(node):
            value = node[key]
            if isinstance(value, (dict, list)) and value:
                yield "%s%s:" % (pad, key)
                yield from _text_lines(value, pad + "  ")
            else:
                yield "%s%s: %s" % (pad, key, next(_text_lines(value, "")))
    elif isinstance(node, list) and node:
        for value in node:
            lines = _text_lines(value, pad + "  ")
            yield pad + "- " + next(lines)[len(pad) + 2:]
            yield from lines
    else:
        yield pad + ("{}" if node == {} else "[]" if node == [] else str(node))


# -- subcommands -----------------------------------------------------------


def _expand_one_torus(cfg: JobConfig, torus_kind: str,
                      word: Optional[Tuple[int, ...]]) -> dict:
    local = JobConfig(cfg.root, cfg.fgl, torus_kind, cfg.window, cfg.degree)
    algebra = make_algebra(local)
    group = algebra.torus.group
    window = group.window(cfg.window)
    targets = window.elements
    if word is not None:
        x = group.from_word(word)
        window.require(x, "requested word")
        targets = (x,)
    rows = []
    for word, w in _by_compat_word(window, targets):
        rows.append({
            "word": list(word),
            "eta_in_x": coeffs_json(window, algebra.row("x", w)),
            "x_in_eta": coeffs_json(window, algebra.word_product("x", word).terms),
        })
    return {"torus": torus_kind, "rows": rows}


def cmd_expand(cfg: JobConfig) -> Tuple[dict, bool]:
    word = cfg.extra.get("word")
    cfg.root = build_datum(cfg.root)
    kinds = ("small", "big") if cfg.torus == "both" else (cfg.torus,)
    payload = {
        "window": cfg.window,
        "tables": [_expand_one_torus(cfg, kind, word) for kind in kinds],
    }
    return payload, True


def cmd_gkm(cfg: JobConfig) -> Tuple[dict, bool]:
    if cfg.torus == "big":
        # the big-torus conditions have degree 1 and no Grassmannian variant;
        # a --gkm-degree that passed the range check is at least 1
        for key in ("gkm_degree", "grassmannian"):
            if cfg.extra.get(key):
                raise ConfigError("--%s applies to the small torus only"
                                  % key.replace("_", "-"))
    algebra = make_algebra(cfg)
    group = algebra.torus.group
    window = group.window(cfg.window)
    tables = ExpansionTables(algebra, window)
    # the big-torus conditions have degree 1 (x_beta divides f(w) - f(s_beta w))
    degree_bound = 1 if cfg.torus == "big" else cfg.extra.get("gkm_degree", 2)
    grassmannian = cfg.extra["grassmannian"]
    reports = []
    ok = True
    for w in window.elements:
        f = dual_x(tables, w)
        if cfg.torus == "big":
            rep = gkm_check_big(f)
        else:
            rep = gkm_check_small(f, degree_bound, grassmannian=grassmannian)
        ok = ok and rep.passed
        reports.append({
            "word": list(window.compat_word(w)),
            "summary": rep.summary(),
            "checked": rep.checked,
            "skipped": len(rep.skipped),
            "passed": rep.passed,
            "violations": sorted(rep.describe(v) for v in rep.violations),
        })
    payload = {
        "torus": cfg.torus,
        "window": cfg.window,
        "degree_bound": degree_bound,
        "reports": reports,
        "checked": sum(r["checked"] for r in reports),
        "skipped": sum(r["skipped"] for r in reports),
        "all_passed": ok,
    }
    return payload, ok


def cmd_peterson(cfg: JobConfig) -> Tuple[dict, bool]:
    algebra = make_algebra(cfg)
    group = algebra.torus.group
    window = group.window(cfg.window)
    ctx = PetersonContext(algebra, window)
    u = group.from_word(cfg.extra["u"])
    ok = True
    problems: List[str] = []
    try:
        expansion = ctx.expansion(u)
        coeffs = [[list(word), elem_json(expansion.coeffs[v])]
                  for word, v in _by_compat_word(window, expansion.coeffs)]
    except MembershipError as exc:
        ok = False
        problems.append(str(exc))
        coeffs = []
    report = centralizer_report(algebra, ctx.element(u))
    if not (report.consistent and report.commutes):
        ok = False
        problems.extend(report.witnesses or ["centralizer criteria disagree"])
    payload = {
        "u": list(window.compat_word(u)),
        "coeffs": coeffs,
        "centralizer": report.commutes and report.consistent,
        "problems": sorted(problems),
    }
    length = cfg.extra.get("structure_length")
    if length is not None:
        pairs = []
        for pair in ctx.structure_constants(int(length)):
            ok = ok and pair.identity_holds
            pairs.append({
                "u": list(window.compat_word(pair.u)),
                "v": list(window.compat_word(pair.v)),
                "d": coeffs_json(window, pair.d_row),
                "peterson": coeffs_json(window, pair.frak_row),
                "identity_holds": pair.identity_holds,
            })
        payload["structure"] = pairs
    return payload, ok


def cmd_recurse(cfg: JobConfig) -> Tuple[dict, bool]:
    algebra = make_algebra(cfg)
    group = algebra.torus.group
    ctx = ConnectiveContext(algebra)
    window = group.window(cfg.window)
    out_window = group.window(cfg.window - 1)
    i = int(cfg.extra["i"])
    basis = cfg.extra["basis"]
    tables = ExpansionTables(algebra, window, basis.lower())
    word = cfg.extra.get("v")
    if word is not None:
        targets = [group.from_word(word)]
        if targets[0] not in out_window:
            raise WindowExceededError(
                "--v has length %d, but recurse checks lengths up to the window less "
                "one, %d; rerun with --window >= %d" % (len(word), cfg.window - 1, len(word) + 1))
    else:
        targets = list(out_window.elements)
    rows = []
    ok = True
    for word, v in _by_compat_word(out_window, targets):
        good = hecke_action_check(ctx, tables, window, out_window, i, v,
                                  basis=basis)
        ok = ok and good
        rows.append({"v": list(word), "ok": good})
    table_report = check_recursion(ctx, out_window, basis.lower(), letters=(i,))
    ok = ok and table_report.passed
    payload = {
        "basis": basis,
        "i": i,
        "window": cfg.window,
        "actions": rows,
        "table_recursion": {
            "checked": table_report.checked,
            "failures": sorted("row %s letter %d column %s" % (
                group.element_name(w), j, group.element_name(v))
                for w, j, v in table_report.failures),
        },
    }
    return payload, ok


def cmd_a1hat(cfg: JobConfig) -> Tuple[dict, bool]:
    choice = cfg.extra["c"]
    law = {"0": "additive", "1": "multiplicative", "generic": "connective"}[choice]
    kmax = cfg.extra["kmax"]
    local = JobConfig("A1", law, "small", kmax)
    algebra = make_algebra(local)
    group = algebra.torus.group
    table = []
    for k in range(-kmax, kmax + 1):
        closed = eta_sigma_closed(algebra, k)
        row = sorted((sigma_index(group, w), loc_json(c)) for w, c in closed.items())
        table.append({"k": k, "coeffs": [[j, c] for j, c in row]})
    report = appendix_crosscheck(algebra, kmax, degree_bound=cfg.extra["gkm_degree"])
    payload = {
        "c": choice,
        "kmax": kmax,
        "table": table,
        "crosscheck": {
            "summary": report.summary(),
            "mismatches": sorted("eta_{sigma_%d}: coefficient at %s differs"
                                 % (k, group.element_name(u)) for k, u in report.mismatches),
            "gkm_failing": sum(0 if r.passed else 1 for r in report.gkm),
        },
    }
    return payload, report.passed


def cmd_braid(cfg: JobConfig) -> Tuple[dict, bool]:
    algebra = make_algebra(cfg)
    i = int(cfg.extra["i"])
    j = int(cfg.extra["j"])
    report = braid_check(algebra, i, j)
    payload = {
        "i": report.i,
        "j": report.j,
        "order": report.order,
        "holds": report.holds,
        "witness": report.witness,
        "line": report.line(),
    }
    return payload, report.holds


# -- argument wiring -------------------------------------------------------


_COMMON = {
    "--root": dict(default="A1",
                   help="root datum: type name, inline JSON, or @file"),
    "--fgl": dict(default="connective",
                  help="formal group law: name, inline JSON, or @file"),
    "--torus": dict(default="small", choices=["small", "big"]),
    "--window": dict(type=int, default=3,
                     help="length bound L for the element window"),
    "--degree": dict(type=int, default=8,
                     help="truncation degree for series backends"),
    "--format": dict(dest="fmt", default="json", choices=["json", "text"]),
}


def _common(parser: argparse.ArgumentParser, *unread: str) -> None:
    """The shared options, except those the subcommand does not read."""
    for flag, spec in _COMMON.items():
        if flag not in unread:
            parser.add_argument(flag, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fada",
        description="exact computations in formal affine Demazure algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="eta <-> X change-of-basis tables")
    _common(p, "--torus")
    p.add_argument("--torus", default="small", choices=["small", "big", "both"],
                   help="both prints the small torus table, then the big one")
    p.add_argument("--word", help="restrict to one element given by its word")

    p = sub.add_parser("gkm", help="GKM divisibility checks on dual bases")
    _common(p)
    p.add_argument("--gkm-degree", type=int)
    p.add_argument("--grassmannian", action="store_true")

    p = sub.add_parser("peterson", help="Peterson basis expansions")
    _common(p)
    p.add_argument("--u", required=True, help="word of a minimal representative")
    p.add_argument("--structure-length", type=int)

    p = sub.add_parser("recurse", help="Hecke-type recursion verification")
    _common(p)
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--v", help="word of the dual basis index")
    p.add_argument("--basis", default="X", choices=["X", "Y"])

    # a1hat always builds A1 on the small torus, with the exact law --c names
    p = sub.add_parser("a1hat", help="rank-one closed-form tables")
    _common(p, "--root", "--fgl", "--torus", "--window", "--degree")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--c", default="generic", choices=["0", "1", "generic"])
    p.add_argument("--gkm-degree", type=int, default=2)

    p = sub.add_parser("braid-check", help="braid relation for Demazure products")
    _common(p, "--window")
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    return parser


_HANDLERS = {
    "expand": cmd_expand,
    "gkm": cmd_gkm,
    "peterson": cmd_peterson,
    "recurse": cmd_recurse,
    "a1hat": cmd_a1hat,
    "braid-check": cmd_braid,
}


def _check_generators(cfg: JobConfig) -> None:
    """Reject generator labels outside the affine Dynkin diagram of the root
    datum and words that are not reduced; the datum built for it is kept in
    `cfg.root`."""
    given = {key: cfg.extra[key] for key in ("i", "j", "word", "u", "v") if key in cfg.extra}
    if not given:
        return
    cfg.root = build_datum(cfg.root)
    group = AffineWeylGroup(cfg.root)
    labels = group.labels
    for key, value in given.items():
        for letter in value if isinstance(value, tuple) else (value,):
            if letter not in labels:
                raise ConfigError(
                    "--%s: generator label %d is not one of %s"
                    % (key, letter, ", ".join(str(k) for k in labels)))
        if isinstance(value, tuple) and group.length(group.from_word(value)) < len(value):
            raise ConfigError("--%s: %s is not a reduced word"
                              % (key, ",".join(map(str, value))))


# the least meaningful value of each numeric option
_LEAST = {"window": 0, "kmax": 0, "gkm_degree": 1, "structure_length": 0}
# recurse checks the row recursion on window L - 1, and below window 2 that
# window holds only the identity, whose row has no recursion to check
_LEAST_FOR = {"recurse": {"window": 2}}


def _check_ranges(command: str, values: Dict[str, object]) -> None:
    special = _LEAST_FOR.get(command, {})
    for key, least in dict(_LEAST, **special).items():
        value = values.get(key)
        if value is not None and value < least:
            where = " for %s" % command if key in special else ""
            raise ConfigError("--%s must be at least %d%s, not %d"
                              % (key.replace("_", "-"), least, where, value))


def config_from_args(args: argparse.Namespace) -> JobConfig:
    extra = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    for key in ("word", "u", "v"):
        if key in extra:
            extra[key] = parse_word(extra[key])
    _check_ranges(args.command, extra)
    base = {k: extra.pop(k) for k in ("root", "fgl", "torus", "window", "degree", "fmt")
            if k in extra}
    cfg = JobConfig(extra=extra, **base)
    _check_generators(cfg)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload, ok = _HANDLERS[args.command](cfg)
    except FadaError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    payload.update(schema=SCHEMA, command=args.command)
    emit(payload, cfg.fmt)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
