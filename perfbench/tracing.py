"""Module-boundary tracing for the benchmark's traced run.

``Tracer.install`` wraps public functions and class methods of the ``fada``
modules from outside: class methods are patched on their class (under every
name that binds them, such as ``__rmul__ = __mul__``), and module functions
in every ``fada`` module that binds them by name (``dual_x`` in
``connective``, ``a1hat`` and ``cli`` as well as in ``duals``).  ``uninstall``
restores every original.

Every wrapped call adds its duration to the module's self time minus the
time of the wrapped calls it made.  Calls of the coarse boundaries (one per
table, check, report) are also kept as spans -- name, start, end, parent
span and the benchmark's item id -- in memory, and written out at the end.
Hot arithmetic (scalar and polynomial products, localized sums) is counted
and timed the same way but not kept as spans, which would hold millions of
records.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from fada import (algebra, cli, connective, duals, fgl, peterson, polyops,
                  roots, scalars, twisted)

# (owner, attribute, counter name, keep spans, hook)
#   a hook(tracer, args, result) adds the counters of one call.  Targets
#   without a metric of their own (scalar and polynomial sums, localized
#   products and equality, ...) are wrapped so that their time counts as
#   their own module's self time rather than their caller's.
Target = Tuple[object, str, str, bool, Optional[Callable]]


def _pmul(tr, args, result):
    tr.counts["polyops.pmul.term_pairs"] += len(args[0]) * len(args[1])


def _pdiv(tr, args, result):
    tr.counts["polyops.pdiv_exact.num_terms"] += len(args[0])
    tr.counts["polyops.pdiv_exact.ok"] += result is not None


def _divide_once(tr, args, result):
    tr.counts["algebra.divide_once.ok"] += result is not None


def _simplify(tr, args, result):
    tr.counts["algebra.simplify.dens"] += len(args[0].den)
    tr.counts["algebra.simplify.cancelled"] += len(args[0].den) - len(result.den)


def _tables(tr, args, result):
    table = args[0]
    tr.counts["twisted.tables.rows"] += len(table.b)
    tr.counts["twisted.tables.entries"] += sum(len(row) for row in table.b.values())


def _twisted_mul(tr, args, result):
    left, right = args[0], args[0].algebra.coerce(args[1])
    tr.counts["twisted.mul.term_pairs"] += len(left.terms) * len(right.terms)


def _gkm(tr, args, result):
    tr.counts["duals.gkm.checked"] += result.checked
    tr.counts["duals.gkm.skipped"] += len(result.skipped)


TARGETS: List[Target] = [
    (roots.AffineWeylGroup, "window", "roots.window", True, None),
    (roots.AffineWeylGroup, "mul", "roots.mul", False, None),
    (roots.AffineWeylGroup, "length", "roots.length", False, None),
    (roots.AffineWeylGroup, "reduced_word", "roots.reduced_word", False, None),
    (roots.AffineWeylGroup, "bruhat_leq", "roots.bruhat_leq", False, None),
    (scalars.Scalar, "__mul__", "scalars.mul", False, None),
    (scalars.Scalar, "__add__", "scalars.add", False, None),
    (scalars.Scalar, "exact_div", "scalars.exact_div", False, None),
    (polyops, "pmul", "polyops.pmul", False, _pmul),
    (polyops, "padd", "polyops.padd", False, None),
    (polyops, "pdiv_exact", "polyops.pdiv_exact", False, _pdiv),
    (polyops, "psubstitute", "polyops.psubstitute", False, None),
    (polyops, "series_div_exact", "polyops.series_div_exact", False, None),
    (algebra.AlgebraElement, "__mul__", "algebra.elem_mul", False, None),
    (algebra.AlgebraElement, "__add__", "algebra.elem_add", False, None),
    (algebra.Localized, "__add__", "algebra.loc_add", False, None),
    (algebra.Localized, "__mul__", "algebra.loc_mul", False, None),
    (algebra.Localized, "__eq__", "algebra.loc_eq", False, None),
    (algebra.Localized, "simplify", "algebra.simplify", False, _simplify),
    (algebra.TorusAlgebra, "divide_once", "algebra.divide_once", False, _divide_once),
    (algebra.TorusAlgebra, "act_elem", "algebra.act_elem", False, None),
    (algebra.TorusAlgebra, "act_loc", "algebra.act_loc", False, None),
    (fgl.FormalGroupLaw, "add", "fgl.add", False, None),
    (twisted.ExpansionTables, "__init__", "twisted.tables", True, _tables),
    (twisted.ExpansionTables, "expand_in_x", "twisted.expand_in_x", True, None),
    (twisted.TwistedElement, "__mul__", "twisted.mul", False, _twisted_mul),
    (twisted.TwistedElement, "__add__", "twisted.add", False, None),
    (twisted, "braid_check", "twisted.braid_check", True, None),
    (duals, "dual_x", "duals.dual_x", True, None),
    (duals, "pair", "duals.pair", True, None),
    (duals, "gkm_check_small", "duals.gkm", True, _gkm),
    (duals, "w_invariance_report", "duals.w_invariance", True, None),
    (duals, "odot", "duals.odot", True, None),
    (duals, "bullet", "duals.bullet", True, None),
    (duals.DualElement, "__add__", "duals.dual_add", False, None),
    (duals.DualElement, "__eq__", "duals.dual_eq", False, None),
    (connective, "check_recursion", "connective.check_recursion", True, None),
    (connective, "hecke_action_check", "connective.hecke", True, None),
    (connective, "bullet_yw0_check", "connective.bullet_yw0", True, None),
    (connective.ConnectiveContext, "dual_y_in_x", "connective.dual_y_in_x", True, None),
    (connective.ConnectiveContext, "y_word", "connective.y_word", False, None),
    (peterson.PetersonContext, "__init__", "peterson.context", True, None),
    (peterson.PetersonContext, "expansion", "peterson.expansion", True, None),
    (peterson.PetersonContext, "structure_pair", "peterson.structure_pair", True, None),
    (peterson, "centralizer_report", "peterson.centralizer", True, None),
    (cli, "coeffs_json", "cli.coeffs_json", True, None),
]


class Tracer:
    """Counters, per-module self time and coarse spans of one traced job."""

    def __init__(self, item_of: Callable[[], int]):
        self.item_of = item_of
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # (name, start, end, parent span index or -1, item id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._child = [0.0]   # time of wrapped calls made by the open call
        self._open_span = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, keep: bool, hook):
        module = name.split(".", 1)[0]
        tracer = self
        calls, total, self_s = self.calls, self.total, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_child = tracer._child
            tracer._child = [0.0]
            parent = tracer._open_span
            if keep:
                item = tracer.item_of()
                index = len(tracer.spans)
                tracer.spans.append(None)
                tracer._open_span = index
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self_s[module] += dur - tracer._child[0]
                tracer._child = outer_child
                outer_child[0] += dur
                calls[name] += 1
                total[name] += dur
                if keep:
                    tracer.spans[index] = (name, t0, t1, parent, item)
                    tracer._open_span = parent
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        fada_modules = [m for n, m in sorted(sys.modules.items())
                        if (n == "fada" or n.startswith("fada.")) and m is not None]
        for owner, attr, name, keep, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, keep, hook)
            if isinstance(owner, type):
                # every alias of the method on its class (__rmul__ = __mul__)
                holders = [(owner, a) for a, v in list(vars(owner).items())
                           if v is original]
            else:
                holders = [(m, a) for m in fada_modules
                           for a, v in list(vars(m).items()) if v is original]
            for holder, a in holders:
                self._patches.append((holder, a, original))
                setattr(holder, a, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        return sorted((end - start) * 1e3 for n, start, end, _, _ in self.spans
                      if n == name)

    def metrics(self) -> Dict[str, float]:
        c, n, t, s = self.counts, self.calls, self.total, self.self_s
        gkm_ms = self.durations_ms("duals.gkm")
        gkm_pct, gkm_tail = tail_percentile(gkm_ms)
        pair_ms = self.durations_ms("peterson.structure_pair")
        gkm_seen = c["duals.gkm.checked"] + c["duals.gkm.skipped"]
        return {
            "roots.window_s": t["roots.window"],
            "roots.mul.calls": n["roots.mul"],
            "roots.length.calls": n["roots.length"],
            "roots.reduced_word.calls": n["roots.reduced_word"],
            "roots.bruhat_leq.calls": n["roots.bruhat_leq"],
            "roots.self_s": s["roots"],
            "scalars.mul.calls": n["scalars.mul"],
            "scalars.exact_div.calls": n["scalars.exact_div"],
            "scalars.self_s": s["scalars"],
            "polyops.pmul.calls": n["polyops.pmul"],
            "polyops.pmul.term_pairs": c["polyops.pmul.term_pairs"],
            "polyops.pdiv_exact.calls": n["polyops.pdiv_exact"],
            "polyops.pdiv_exact.ok_ratio": _ratio(c["polyops.pdiv_exact.ok"],
                                                  n["polyops.pdiv_exact"]),
            "polyops.pdiv_exact.num_terms": c["polyops.pdiv_exact.num_terms"],
            "polyops.psubstitute.calls": n["polyops.psubstitute"],
            "polyops.series_div_exact.calls": n["polyops.series_div_exact"],
            "polyops.self_s": s["polyops"],
            "algebra.elem_mul.calls": n["algebra.elem_mul"],
            "algebra.loc_add.calls": n["algebra.loc_add"],
            "algebra.simplify.calls": n["algebra.simplify"],
            "algebra.simplify.cancel_ratio": _ratio(c["algebra.simplify.cancelled"],
                                                    c["algebra.simplify.dens"]),
            "algebra.divide_once.calls": n["algebra.divide_once"],
            "algebra.divide_once.ok_ratio": _ratio(c["algebra.divide_once.ok"],
                                                   n["algebra.divide_once"]),
            "algebra.act_loc.calls": n["algebra.act_loc"],
            "algebra.self_s": s["algebra"],
            "fgl.add.calls": n["fgl.add"],
            "fgl.self_s": s["fgl"],
            "twisted.tables.calls": n["twisted.tables"],
            "twisted.tables_s": t["twisted.tables"],
            "twisted.tables.rows": c["twisted.tables.rows"],
            "twisted.tables.entries": c["twisted.tables.entries"],
            "twisted.mul.calls": n["twisted.mul"],
            "twisted.mul.term_pairs": c["twisted.mul.term_pairs"],
            "twisted.expand_in_x.calls": n["twisted.expand_in_x"],
            "twisted.self_s": s["twisted"],
            "duals.dual_x.calls": n["duals.dual_x"],
            "duals.gkm.calls": n["duals.gkm"],
            "duals.gkm.p50_ms": _median(gkm_ms),
            "duals.gkm.pNN_ms": gkm_tail,
            "duals.gkm.pNN_pct": gkm_pct,
            "duals.gkm.checked": c["duals.gkm.checked"],
            "duals.gkm.skip_ratio": _ratio(c["duals.gkm.skipped"], gkm_seen),
            "duals.odot.calls": n["duals.odot"],
            "duals.bullet.calls": n["duals.bullet"],
            "duals.self_s": s["duals"],
            "connective.check_recursion_s": t["connective.check_recursion"],
            "connective.hecke.calls": n["connective.hecke"],
            "connective.dual_y_in_x.calls": n["connective.dual_y_in_x"],
            "connective.self_s": s["connective"],
            "peterson.context_s": t["peterson.context"],
            "peterson.structure_pair.calls": n["peterson.structure_pair"],
            "peterson.structure_pair.p50_ms": _median(pair_ms),
            "peterson.centralizer.calls": n["peterson.centralizer"],
            "peterson.self_s": s["peterson"],
            "cli.coeffs_json_s": t["cli.coeffs_json"],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    k = len(values)
    mid = k // 2
    return values[mid] if k % 2 else (values[mid - 1] + values[mid]) / 2


def tail_percentile(values: List[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least ten samples above it, and
    its value; (0, 0.0) when there are too few samples for any."""
    k = len(values)
    best = (0, 0.0)
    for pct in range(50, 100):
        rank = -(-pct * k // 100)   # nearest-rank: ceil(pct * k / 100)
        if rank >= 1 and k - rank >= 10:
            best = (pct, values[rank - 1])
    return best
