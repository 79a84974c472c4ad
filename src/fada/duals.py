"""Window-limited duals of the affine Demazure algebra and GKM conditions.

A dual element is an S-valued (possibly localized) function on the elements of
a fixed length window of the affine Weyl group.  Two module structures act on
duals: the right-side action

    (z . f)[u]  =  sum_w  u(c_w) * f[u w]          (bullet)

and the left-side Hecke action

    (z o f)[u]  =  sum_v  c_v * v( f[v^{-1} u] )   (odot)

for z = sum_w c_w eta_w.  Both need the shifted arguments to stay inside the
window of f; otherwise a WindowExceededError pinpoints the length required.
`DualElement` is the one filter of dual values: it keeps every value that
is not a known zero (`Localized.is_zero`), so an unknown SER value, 0 + O(p)
over a denominator of degree above p, stays, and comparing it raises a
`PrecisionError` that names the precision needed.  `bullet`, `odot` and
`phi` hand it every value they form.  `pair` sums c_w f[w] over every w of
z; a point where f vanishes adds the ring's zero, which adds nothing when it
is an exact zero (`Localized.is_exact_zero`).  `bullet` and `odot` check
every shifted point against the window, then skip the points where f
vanishes when the ring's zero is exact, and act on no coefficient there.  A
zero that is not exact vanishes only through O(p) and lowers the certified
precision of the sum, so there every point is summed.

The small-torus GKM conditions ask, for every finite positive root alpha and
each degree d up to a chosen bound, that the d-th orbit difference
(1 - t_{alpha^v})^d f, and the (d-1)-th difference of f minus its reflected
orbit, lie in x_alpha^d S; the big-torus conditions are the classical
pairwise divisibility conditions along real affine reflections.  Both checks
simplify each value of the support once to a ring element and test
differences of those with `TorusAlgebra.divisible`, their one divisibility
test, whose verdicts the torus keeps by `memo` per (frozen terms,
precision, beta, d), so a difference that recurs on the torus is divided
once; when the ring's zero is exact an absent point is an exact zero, and a
difference that is one passes without a division.  On SER a zero is not
exact, so there the support is the whole window.  Both read the window's
structure by lattice arithmetic, with no group product: the small-torus
check walks the translation chains of `Window.root_steps`, where
t_mu (u t_a) = u t_{a + u^-1 mu} is a vector sum, and forms the orbit
differences only where the support reaches; the big-torus check reads its
pairs from `Window.reflection_pairs`, where s_{alpha + m delta} (u t_a) =
(s_alpha u) t_{a + m u^-1 alpha^v}, and visits those with an end in the
support.  What depends on the window alone is kept on it by `memo`: which
small-torus conditions are checked or skipped, per root, degree bound and
flag, and which pairs end at each position.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import AlgebraElement, Localized, TorusAlgebra
from .memo import memo
from .roots import AffineElt, Vec, Window
from .twisted import ExpansionTables, TwistedElement, combine_rows, row_sum


class DualElement:
    """A function from a window of affine Weyl elements to localized values."""

    __slots__ = ("torus", "window", "values")

    def __init__(self, torus: TorusAlgebra, window: Window, values: Dict[AffineElt, Localized]):
        self.torus = torus
        self.window = window
        self.values = {w: v for w, v in values.items() if not v.is_zero()}
        for w in self.values:
            window.require(w, "dual support")

    @staticmethod
    def zero(torus: TorusAlgebra, window: Window) -> "DualElement":
        return DualElement(torus, window, {})

    def get(self, w: AffineElt) -> Localized:
        self.window.require(w, "dual evaluation")
        if w in self.values:
            return self.values[w]
        return Localized(self.torus, self.torus.ring.zero())

    def __add__(self, other: "DualElement") -> "DualElement":
        return DualElement(self.torus, self.window,
                           row_sum(((1, self.values), (1, other.values))))

    def __sub__(self, other: "DualElement") -> "DualElement":
        return self + (-other)

    def __neg__(self) -> "DualElement":
        return DualElement(self.torus, self.window, {w: -v for w, v in self.values.items()})

    def scale(self, c) -> "DualElement":
        return DualElement(self.torus, self.window, {w: v * c for w, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, DualElement):
            return NotImplemented
        return not combine_rows(((1, self.values), (-1, other.values)))

    def __hash__(self):
        raise TypeError("DualElement is unhashable")

    def restrict(self, window: Window) -> "DualElement":
        vals = {w: v for w, v in self.values.items() if w in window}
        return DualElement(self.torus, window, vals)

    def __repr__(self):
        group = self.torus.group
        parts = []
        for w in sorted(self.values, key=group.length):
            parts.append("[%s] -> %r" % (group.element_name(w), self.values[w]))
        return "Dual{%s}" % ("; ".join(parts) if parts else "")


# -- dual basis and pairings -----------------------------------------------


def dual_x(tables: ExpansionTables, w: AffineElt) -> DualElement:
    """The functional dual to X_{I_w}: its value on eta_v is b_{v, I_w}, localized."""
    torus = tables.algebra.torus
    values = {}
    for v in tables.window.elements:
        c = tables.b[v].get(w)
        if c is not None:
            values[v] = Localized(torus, c)
    return DualElement(torus, tables.window, values)


def pair(z: TwistedElement, f: DualElement) -> Localized:
    """<z, f> = sum_w c_w f[w], left-linear over the localized ring."""
    out = Localized(f.torus, f.torus.ring.zero())
    for w, c in z.terms.items():
        out = out + c * f.get(w)
    return out


def bullet(z: TwistedElement, f: DualElement, out_window: Window) -> DualElement:
    """(z . f)[u] = sum_w u(c_w) f[uw]."""
    torus = f.torus
    group = torus.group
    zero = Localized(torus, torus.ring.zero())
    skip_zeros = zero.is_exact_zero()
    values: Dict[AffineElt, Localized] = {}
    for u in out_window.elements:
        acc = zero
        for w, c in z.terms.items():
            uw = group.mul(u, w)
            f.window.require(uw, "bullet shift u*w")
            if skip_zeros and uw not in f.values:
                continue
            acc = acc + torus.act_loc(u, c) * f.values.get(uw, zero)
        values[u] = acc.simplify()
    return DualElement(torus, out_window, values)


def odot(z: TwistedElement, f: DualElement, out_window: Window) -> DualElement:
    """(z o f)[u] = sum_v c_v v(f[v^{-1} u])."""
    torus = f.torus
    group = torus.group
    zero = Localized(torus, torus.ring.zero())
    skip_zeros = zero.is_exact_zero()
    values: Dict[AffineElt, Localized] = {}
    for u in out_window.elements:
        acc = zero
        for v, c in z.terms.items():
            shifted = group.mul(group.inv(v), u)
            f.window.require(shifted, "odot shift v^{-1}*u")
            if skip_zeros and shifted not in f.values:
                continue
            acc = acc + c * torus.act_loc(v, f.values.get(shifted, zero))
        values[u] = acc.simplify()
    return DualElement(torus, out_window, values)


def characteristic(torus: TorusAlgebra, u: AlgebraElement, window: Window) -> DualElement:
    """The characteristic function of u in S: w -> w(u)."""
    return phi(torus, torus.ring.one(), u, window)


def phi(torus: TorusAlgebra, a: AlgebraElement, b: AlgebraElement,
        window: Window) -> DualElement:
    """phi(a (x) b): w -> a * w(b), the coproduct-side characteristic map."""
    values = {w: Localized(torus, a * torus.act_elem(w, b)) for w in window.elements}
    return DualElement(torus, window, values)


# -- invariance ------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Failures are records (u, i), f[u] != f[u s_i]; `describe` turns one
    into text."""

    window: Window
    checked: int = 0
    skipped: int = 0
    failures: List[Tuple[AffineElt, int]] = field(default_factory=list)

    @property
    def invariant(self) -> bool:
        return not self.failures

    def describe(self, failure: Tuple[AffineElt, int]) -> str:
        u, i = failure
        name = self.window.group.element_name(u)
        return "f[%s] != f[%s s%d]" % (name, name, i)


def w_invariance_report(f: DualElement) -> InvarianceReport:
    """Constancy of f on cosets u W: f[u] == f[u s_i] for finite i.

    Pairs whose partner leaves the window are counted as skipped; invariance
    is certified only on the pairs both of whose members are enumerable.  A
    pair with neither point in the support of f is checked and passes with no
    arithmetic: both values are the ring's zero.
    """
    torus = f.torus
    group = torus.group
    rep = InvarianceReport(f.window)
    for u in f.window.elements:
        for i in range(1, torus.datum.rank + 1):
            us = group.mul(u, group.simple(i))
            if us not in f.window:
                rep.skipped += 1
                continue
            rep.checked += 1
            if (u in f.values or us in f.values) and not (f.get(u) == f.get(us)):
                rep.failures.append((u, i))
    return rep


# -- GKM conditions --------------------------------------------------------


class GkmRecord(NamedTuple):
    """One skipped or violated GKM condition.

    `root` is the finite positive root alpha of a small-torus condition, the
    real affine root beta of a big-torus one (whose other element is
    s_beta w), and None for a value that is not regular; `element` is the
    window element w the condition starts at.  `GkmReport.describe` turns a
    record into text.
    """

    root: Optional[object]
    degree: int
    element: AffineElt
    reason: str


NOT_REGULAR = "not regular"
ORBIT_LEAVES = "orbit leaves window"
REFLECTED_ORBIT_LEAVES = "reflected orbit leaves window"
BINOMIAL_SUM = "binomial sum"
REFLECTED_SUM = "reflected sum"
DIFFERENCE = "difference"


@dataclass
class GkmReport:
    torus_kind: str
    backend: str
    degree_bound: int
    window: Window
    checked: int = 0
    skipped: List[GkmRecord] = field(default_factory=list)
    violations: List[GkmRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return ("GKM(%s,%s,D=%d): %d conditions checked, %d skipped, %d violations"
                % (self.torus_kind, self.backend, self.degree_bound,
                   self.checked, len(self.skipped), len(self.violations)))

    def describe(self, record: GkmRecord) -> str:
        """The record as one line of text, elements named by least reduced
        word."""
        group = self.window.group
        name = group.element_name
        root, d, w, reason = record
        if reason == NOT_REGULAR:
            return "value at %s is not regular" % name(w)
        if reason == DIFFERENCE:
            partner = group.mul(group.affine_reflection(root), w)
            return "f[%s] - f[%s] not divisible by x_%r" % (name(w), name(partner), root)
        if reason in (ORBIT_LEAVES, REFLECTED_ORBIT_LEAVES):
            return "alpha=%r d=%d w=%s: %s" % (root, d, name(w), reason)
        return "%s for alpha=%r d=%d w=%s not in x^%d S" % (reason, root, d, name(w), d)


def _regular_values(f: DualElement, report: GkmReport) -> Optional[Dict[int, AlgebraElement]]:
    """The values of f by window position, each simplified once to a ring
    element; None when some value keeps a denominator, each such value
    recorded as a violation.  Every window element counts as checked, but
    when the ring's zero is exact only the support of f is read."""
    window = f.window
    report.checked += len(window.elements)
    if f.torus.ring.zero().is_exact_zero():
        support = sorted(map(window.index.__getitem__, f.values))
    else:
        support = range(len(window.elements))
    values = {}
    for k in support:
        w = window.elements[k]
        s = f.get(w).simplify()
        if s.den_map:
            report.violations.append(GkmRecord(None, 0, w, NOT_REGULAR))
        values[k] = s.num
    return None if report.violations else values


class _SmallPlan(NamedTuple):
    """What the small-torus conditions of one root alpha ask of a window,
    whatever the dual: for each position x, how many steps t^j x stay in the
    window (at most the degree bound) and the position whose t-step is x
    (None outside the window); the number of conditions checked when every
    one passes; and the skip records in (x, d) order."""

    reach: Tuple[int, ...]
    preds: Tuple[Optional[int], ...]
    checked: int
    skipped: Tuple[GkmRecord, ...]


def _mirror(reach: Sequence[int], reflect: Sequence[Optional[int]], k: int,
            d: int) -> Optional[int]:
    """The position of s_alpha x_k when its first d - 1 t-steps stay in the
    window, so that the reflected condition at (x_k, d) is checked; else None."""
    m = reflect[k]
    return None if m is None or reach[m] < d - 1 else m


@memo
def _small_plan(window: Window, alpha: Vec, degree_bound: int,
                grassmannian: bool) -> _SmallPlan:
    """The plan of `gkm_check_small` for one root, built once per window and
    (alpha, degree bound, grassmannian), and kept on the window by `memo`."""
    shift, reflect = window.root_steps(alpha)
    reach = [0] * len(shift)
    for _ in range(degree_bound):
        reach = [0 if j is None else 1 + reach[j] for j in shift]
    preds: List[Optional[int]] = [None] * len(shift)
    for k, j in enumerate(shift):
        if j is not None:
            preds[j] = k
    checked, skipped = 0, []
    for k, w in enumerate(window.elements):
        for d in range(1, degree_bound + 1):
            if reach[k] < d:
                skipped.append(GkmRecord(alpha, d, w, ORBIT_LEAVES))
            elif grassmannian:
                checked += 1
            elif _mirror(reach, reflect, k, d) is None:
                checked += 1
                skipped.append(GkmRecord(alpha, d, w, REFLECTED_ORBIT_LEAVES))
            else:
                checked += 2
    return _SmallPlan(tuple(reach), tuple(preds), checked, tuple(skipped))


def gkm_check_small(f: DualElement, degree_bound: int,
                    grassmannian: bool = False) -> GkmReport:
    """Small-torus GKM conditions up to the degree bound.

    Let t = t_{alpha^v} act on functions by (t g)[w] = g[t w].  For each
    finite positive root alpha, each window element w and each
    1 <= d <= degree_bound:

      * the orbit difference ((1 - t)^d f)[w] must lie in x_alpha^d S;
      * unless `grassmannian`, so must the reflected difference
        ((1 - t)^{d-1} h)[w] with h[t^j w] = f[t^j w] - f[t^j s_alpha w].
        The reflected orbit translates the reflected point: the pairing
        argument is eta_{t^j} eta_{s_alpha} eta_w, not s_alpha applied after
        the translation.

    Which conditions are checked, and which are skipped because their points
    leave the window, depends on the window alone: `_small_plan` builds the
    counts and skip records once per root, kept on the window by `memo`, and
    each report gets a fresh list.  A skipped condition is never treated as
    zero.  With D_0 = f, D_k[x] = D_{k-1}[x] - D_{k-1}[t x] is formed only
    where x or t x carries a nonzero D_{k-1}, exact zeros dropped.  Then
    ((1 - t)^d f)[w] = D_d[w] and the reflected difference is
    D_{d-1}[w] - D_{d-1}[s_alpha w].  Only nonzero differences are divided,
    in (alpha, w, d) order, binomial condition first, so the first violation
    and any `PrecisionError` are those of a walk over the whole window; on
    SER, where no zero is exact, that is the walk.  A binomial violation
    leaves its reflected condition unchecked.  Each test goes through
    `TorusAlgebra.divisible`, whose verdict memo on the torus, keyed by
    (frozenset of the difference's packed terms, its precision, beta, d),
    answers a difference already divided on this torus, by this or an
    earlier dual, without dividing again.
    """
    torus = f.torus
    window = f.window
    report = GkmReport(torus.torus, torus.ring.backend, degree_bound, window)
    values = _regular_values(f, report)
    if values is None:
        return report

    zero = torus.ring.zero()
    for alpha in torus.datum.positive_roots:
        beta = (alpha, 0)
        shift, reflect = window.root_steps(alpha)
        plan = _small_plan(window, alpha, degree_bound, grassmannian)
        reach, preds = plan.reach, plan.preds
        diffs = [values]
        for d in range(1, degree_bound + 1):
            prev, diff = diffs[-1], {}
            for k in {x for j in prev for x in (j, preds[j])
                      if x is not None and reach[x] >= d}:
                g = prev.get(k, zero) - prev.get(shift[k], zero)
                if not g.is_exact_zero():
                    diff[k] = g
            diffs.append(diff)
        visit = set().union(*diffs)
        if not grassmannian:
            visit.update(reflect[k] for k in list(visit) if reflect[k] is not None)
        report.checked += plan.checked
        unchecked = set()
        for k in sorted(visit):
            w = window.elements[k]
            for d in range(1, reach[k] + 1):
                m = None if grassmannian else _mirror(reach, reflect, k, d)
                if not torus.divisible(diffs[d].get(k, zero), beta, d):
                    report.violations.append(GkmRecord(alpha, d, w, BINOMIAL_SUM))
                    if m is not None:
                        report.checked -= 1
                    elif not grassmannian:
                        unchecked.add(GkmRecord(alpha, d, w, REFLECTED_ORBIT_LEAVES))
                elif m is not None and not torus.divisible(
                        diffs[d - 1].get(k, zero) - diffs[d - 1].get(m, zero), beta, d):
                    report.violations.append(GkmRecord(alpha, d, w, REFLECTED_SUM))
        report.skipped.extend((r for r in plan.skipped if r not in unchecked) if unchecked
                              else plan.skipped)
    return report


@memo
def _pairs_at(window: Window) -> Tuple[Tuple[int, ...], ...]:
    """For each window position, the numbers of the `Window.reflection_pairs`
    that end there, kept on the window by `memo`."""
    at: List[List[int]] = [[] for _ in window.elements]
    for n, (a, b, _) in enumerate(window.reflection_pairs()):
        at[a].append(n)
        at[b].append(n)
    return tuple(map(tuple, at))


def gkm_check_big(f: DualElement) -> GkmReport:
    """Big-torus GKM: values regular, and f[w] - f[s_beta w] in x_beta S-hat
    for every real affine reflection pairing two window elements, the pairs
    read from `Window.reflection_pairs`.  Every pair counts as checked, but
    only those with an end among the values read are visited, in order: two
    exact zeros pass unread.  On SER every value is read, so every pair.
    Each difference is tested by `TorusAlgebra.divisible`, whose verdict
    memo on the torus, keyed by (frozenset of the packed terms, precision,
    beta, 1), divides a difference that recurs on the torus only once."""
    torus = f.torus
    window = f.window
    report = GkmReport(torus.torus, torus.ring.backend, 1, window)
    values = _regular_values(f, report)
    if values is None:
        return report
    pairs, at, zero = window.reflection_pairs(), _pairs_at(window), torus.ring.zero()
    report.checked += len(pairs)
    for n in sorted({n for k in values for n in at[k]}):
        a, b, beta = pairs[n]
        if not torus.divisible(values.get(a, zero) - values.get(b, zero), beta, 1):
            report.violations.append(GkmRecord(beta, 1, window.elements[a], DIFFERENCE))
    return report


# -- functions on the translation lattice -----------------------------------
# A lattice function is a plain dict from lattice points to localized values,
# as `peterson.coproduct` is one on pairs of them: two are summed and compared
# through `row_sum` and `combine_rows`.


def restrict_to_translations(f: DualElement) -> Dict[Vec, Localized]:
    """The lattice function lam -> f[t_lam], on the translations of f's support."""
    group = f.torus.group
    return {w.t: v for w, v in f.values.items() if group.is_translation(w)}


def pr_star(torus: TorusAlgebra, g: Dict[Vec, Localized], window: Window) -> DualElement:
    """Pull a lattice function back through pr(w t_lam) = t_{w lam}.

    The image is constant on cosets u W by construction, hence invariant for
    the bullet action of the finite Weyl group.
    """
    pulled = ((x, g.get(x.w.act_coroot(x.t))) for x in window.elements)
    return DualElement(torus, window, {x: v for x, v in pulled if v is not None})
