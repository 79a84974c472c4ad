"""Window-limited duals of the affine Demazure algebra and GKM conditions.

A dual element is an S-valued function on a length window of the affine
Weyl group, as in the paper's D_F^* = Hom_S(D_F, S).  `DualElement` lowers
each value to S once, where it is built: an int, a Scalar, a ring element,
or a localized value whose denominator cancels (`Localized.in_ring`); one
with a denominator left raises a `MembershipError`.  It keeps every value
that is not a known zero: on SER 0 + O(p) is one only at p >= 1, and below
that `==` raises a `PrecisionError` that names the precision needed.

Both module structures act by a word of generators, letter by letter from
the right, with Y_i = c - X_i for the law x + y - c x y.  On generators
(z . f)[u] = sum_w u(c_w) f[u w] and (z o f)[u] = sum_v c_v v(f[v^{-1} u])
are divided differences in S (Kostant-Kumar):

    (X_i . f)[u]     =  (f[u] - f[u s_i]) / x_{u(alpha_i)}          (bullet)
    (X_{-i} o f)[u]  =  (f[u] - s_i(f[s_i u])) / x_{-alpha_i}      (odot)

The points a word reads are checked against the window of f first, so a
shift that leaves it raises a `WindowExceededError` wherever f vanishes.
Each letter divides once through `FormalRing.divide`; a quotient outside S
raises a `MembershipError` naming the point and the root.  On the exact
backends a letter computes only next to the support.  On SER each division
costs one degree, and a difference at precision 0 is not divided: it raises
a `PrecisionError` naming the precision at which every letter left divides
and the result is known.  `pair` sums c_w f[w] for any z of Q_W, the one
localized map here.

The small-torus GKM conditions ask, for every finite positive root alpha and
each degree d up to a chosen bound, that the d-th orbit difference
(1 - t_{alpha^v})^d f, and the (d-1)-th difference of f minus its reflected
orbit, lie in x_alpha^d S; the big-torus conditions are the classical
pairwise divisibility conditions along real affine reflections.  Both test
differences over the support with `TorusAlgebra.divisible` (on SER the whole
window) and read the window by lattice arithmetic, with no group product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import AlgebraElement, Localized, TorusAlgebra
from .errors import MembershipError, PrecisionError
from .memo import memo
from .roots import AffineElt, Vec, Window, vneg
from .scalars import Scalar
from .twisted import (Coefficient, ExpansionTables, TwistedElement, _require_flavor,
                      connective_scalar, row_sum)


def _lower(torus: TorusAlgebra, v: Coefficient, message: Callable[[], str]) -> AlgebraElement:
    """An int, a Scalar, a ring element or a localized value (`in_ring`) in S."""
    if isinstance(v, (int, Scalar)):
        return torus.ring.from_scalar(v)
    return v if isinstance(v, AlgebraElement) else v.in_ring(message)


def _certify(torus: TorusAlgebra, v: AlgebraElement, letters: int) -> None:
    """Refuse a SER value below precision 1 (not known to vanish, and not
    divisible), naming the precision that pays for `letters` more divisions."""
    if v.prec is not None and v.prec < 1:
        hint = torus.ring.fgl.precision_hint(torus.ring.precision + letters + 1 - v.prec)
        raise PrecisionError("series precision exhausted in a dual value; " + hint)


class DualElement:
    """A function from a window of affine Weyl elements to S."""

    __slots__ = ("torus", "window", "values")

    def __init__(self, torus: TorusAlgebra, window: Window,
                 values: Mapping[AffineElt, Coefficient]):
        self.torus = torus
        self.window = window
        self.values = {}
        for w, v in values.items():
            window.require(w, "dual support")
            if type(v) is not AlgebraElement:
                v = _lower(torus, v, lambda: "dual value at %s does not lie in S"
                           % torus.group.element_name(w))
            if not v.is_zero() or (v.prec is not None and v.prec < 1):
                self.values[w] = v

    @staticmethod
    def zero(torus: TorusAlgebra, window: Window) -> "DualElement":
        return DualElement(torus, window, {})

    def get(self, w: AffineElt) -> AlgebraElement:
        self.window.require(w, "dual evaluation")
        return self.values[w] if w in self.values else self.torus.ring.zero()

    def __add__(self, other: "DualElement") -> "DualElement":
        return DualElement(self.torus, self.window,
                           row_sum(((1, self.values), (1, other.values))))

    def __sub__(self, other: "DualElement") -> "DualElement":
        return self + (-other)

    def __neg__(self) -> "DualElement":
        return DualElement(self.torus, self.window, {w: -v for w, v in self.values.items()})

    def scale(self, c: Coefficient) -> "DualElement":
        c = _lower(self.torus, c, lambda: "scale factor does not lie in S")
        return DualElement(self.torus, self.window, {w: v * c for w, v in self.values.items()})

    def __eq__(self, other):
        """Equal when the difference is a known zero everywhere (`_certify`)."""
        if not isinstance(other, DualElement):
            return NotImplemented
        for d in row_sum(((1, self.values), (-1, other.values))).values():
            if not d.is_zero():
                return False
            _certify(self.torus, d, 0)
        return True

    def __hash__(self):
        raise TypeError("DualElement is unhashable")

    def restrict(self, window: Window) -> "DualElement":
        return DualElement(self.torus, window,
                           {w: v for w, v in self.values.items() if w in window})

    def __repr__(self):
        group = self.torus.group
        return "Dual{%s}" % "; ".join("[%s] -> %r" % (group.element_name(w), self.values[w])
                                      for w in sorted(self.values, key=group.length))


# -- dual basis and pairings -----------------------------------------------


def dual_x(tables: ExpansionTables, w: AffineElt) -> DualElement:
    """The functional dual to X_{I_w}: its value on eta_v is b_{v, I_w}."""
    rows = tables.b
    return DualElement(tables.algebra.torus, tables.window,
                       {v: rows[v][w] for v in tables.window.elements if w in rows[v]})


def pair(z: TwistedElement, f: DualElement) -> Localized:
    """<z, f> = sum_w c_w f[w], left-linear over the localized ring."""
    out = Localized(f.torus, f.torus.ring.zero())
    for w, c in z.terms.items():
        out = out + c * f.get(w)
    return out


# -- the two actions, letter by letter ---------------------------------------


def bullet(flavor: str, word: Sequence[int], f: DualElement,
           out_window: Window) -> DualElement:
    """Z_{i_1} ... Z_{i_k} . f, Z = X (flavor "x") or Y ("y") by letter."""
    return _act(flavor, word, f, out_window, True)


def odot(flavor: str, word: Sequence[int], f: DualElement,
         out_window: Window) -> DualElement:
    """Z_{-i_1} ... Z_{-i_k} o f, Z = X (flavor "x") or Y ("y") by letter."""
    return _act(flavor, word, f, out_window, False)


def _act(flavor: str, word: Sequence[int], f: DualElement, out_window: Window,
         right: bool) -> DualElement:
    """The letters of `word` applied to f from the right, the letter i at u
    reading u and u s_i (`right`) or s_i u; Y's letter is c g[u] minus X's."""
    _require_flavor(flavor)
    torus, ring, group = f.torus, f.torus.ring, f.torus.group
    c = ring.from_scalar(connective_scalar(torus)) if flavor == "y" else None
    links = []   # per letter, outermost first: point -> the partner it reads
    points = out_window.elements
    for n, i in enumerate(word):
        partner = _partners(group.window(out_window.length_bound + n), i, right)
        links.append({u: partner[u] for u in points} if n else partner)
        points = list(dict.fromkeys([*points, *links[-1].values()]))
    if out_window.length_bound + len(word) > f.window.length_bound:   # else all lie in it
        missing = [x for x in points if x not in f.window]
        if missing:
            f.window.require(max(missing, key=group.length),
                             "bullet shift u*w" if right else "odot shift v^{-1}*u")
    zero = ring.zero()
    exact = zero.is_exact_zero()
    g: Dict[AffineElt, AlgebraElement] = f.values
    for left in range(len(word), 0, -1):   # the divisions left, this one included
        s, (mu, m) = group.simple(word[left - 1]), group.simple_root(word[left - 1])
        root = torus.embed_root((mu, m) if right else (vneg(mu), -m))
        out: Dict[AffineElt, AlgebraElement] = {}
        for u, p in links[left - 1].items():
            if exact and u not in g and p not in g:
                continue
            a, b = g.get(u, zero), g.get(p, zero)
            q = a - b if right else a - torus.act_elem(s, b)
            if not q.is_exact_zero():
                _certify(torus, q, left)
                b = torus.act_vec(u, root) if right else root
                q, k = ring.divide(q, b, 1)
                if not k:
                    raise MembershipError("divided difference at %s does not lie in S: x_%r "
                                          "does not divide it" % (group.element_name(u), b))
            v = q if c is None else c * a - q
            if not v.is_exact_zero():
                out[u] = v
        g = out
    return DualElement(torus, out_window, g) if word else f.restrict(out_window)


@memo
def _partners(window: Window, i: int, right: bool) -> Dict[AffineElt, AffineElt]:
    """u -> u s_i (`right`) or s_i u on the window, kept on it by `memo`."""
    group, s = window.group, window.group.simple(i)
    return {u: group.mul(u, s) if right else group.mul(s, u) for u in window.elements}


def characteristic(torus: TorusAlgebra, u: AlgebraElement, window: Window) -> DualElement:
    """The characteristic function of u in S: w -> w(u)."""
    return phi(torus, torus.ring.one(), u, window)


def phi(torus: TorusAlgebra, a: AlgebraElement, b: AlgebraElement,
        window: Window) -> DualElement:
    """phi(a (x) b): w -> a * w(b), the coproduct-side characteristic map."""
    return DualElement(torus, window, {w: a * torus.act_elem(w, b) for w in window.elements})


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
    torus, group = f.torus, f.torus.group
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

    `root` is the finite positive root alpha of a small-torus condition or
    the real affine root beta of a big-torus one (whose other element is
    s_beta w); `element` is the window element w the condition starts at.
    `GkmReport.describe` turns a record into text.
    """

    root: object
    degree: int
    element: AffineElt
    reason: str


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
        if reason == DIFFERENCE:
            partner = group.mul(group.affine_reflection(root), w)
            return "f[%s] - f[%s] not divisible by x_%r" % (name(w), name(partner), root)
        if reason in (ORBIT_LEAVES, REFLECTED_ORBIT_LEAVES):
            return "alpha=%r d=%d w=%s: %s" % (root, d, name(w), reason)
        return "%s for alpha=%r d=%d w=%s not in x^%d S" % (reason, root, d, name(w), d)


def _values(f: DualElement, report: GkmReport) -> Dict[int, AlgebraElement]:
    """The values of f by window position, only its support when the ring's
    zero is exact; every window element counts as checked."""
    window = f.window
    report.checked += len(window.elements)
    if f.torus.ring.zero().is_exact_zero():
        return {window.index[w]: v for w, v in f.values.items()}
    return {k: f.get(w) for k, w in enumerate(window.elements)}


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
    `TorusAlgebra.divisible`, which divides a difference that recurs on the
    torus only once.
    """
    torus, window = f.torus, f.window
    report = GkmReport(torus.torus, torus.ring.backend, degree_bound, window)
    values = _values(f, report)
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
    """Big-torus GKM: f[w] - f[s_beta w] in x_beta S-hat for every real
    affine reflection pairing two window elements, the pairs read from
    `Window.reflection_pairs`.  Every pair counts as checked, but only those
    with an end among the values read are visited, in order: two exact zeros
    pass unread.  On SER every value is read, so every pair.  Each
    difference is tested by `TorusAlgebra.divisible`."""
    torus, window = f.torus, f.window
    report = GkmReport(torus.torus, torus.ring.backend, 1, window)
    values = _values(f, report)
    pairs, at, zero = window.reflection_pairs(), _pairs_at(window), torus.ring.zero()
    report.checked += len(pairs)
    for n in sorted({n for k in values for n in at[k]}):
        a, b, beta = pairs[n]
        if not torus.divisible(values.get(a, zero) - values.get(b, zero), beta, 1):
            report.violations.append(GkmRecord(beta, 1, window.elements[a], DIFFERENCE))
    return report


# -- functions on the translation lattice -----------------------------------
# A lattice function is a plain dict from lattice points to values in S.


def restrict_to_translations(f: DualElement) -> Dict[Vec, AlgebraElement]:
    """The lattice function lam -> f[t_lam], on the translations of f's support."""
    group = f.torus.group
    return {w.t: v for w, v in f.values.items() if group.is_translation(w)}


def pr_star(torus: TorusAlgebra, g: Mapping[Vec, Coefficient], window: Window) -> DualElement:
    """Pull a lattice function back through pr(w t_lam) = t_{w lam}.

    The image is constant on cosets u W by construction, hence invariant for
    the bullet action of the finite Weyl group.
    """
    pulled = ((x, g.get(x.w.act_coroot(x.t))) for x in window.elements)
    return DualElement(torus, window, {x: v for x, v in pulled if v is not None})
