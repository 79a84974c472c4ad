"""Shared builders for the test suite.

Algebras are cached per configuration: each algebra keeps its Demazure word
products and expansion-table rows, so tests on one configuration build them
once.  Rows are cheap on the exact backends, which build them by recursion.
The costly work left is back-substitution: for the series-backend tables,
whose rows the cache keeps, and for the oracle of `check_recursion`, which
solves afresh on every call and reuses only the cached word products.
"""

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from fada import polyops
from fada.algebra import AlgebraElement, Localized, TorusAlgebra
from fada.duals import (BINOMIAL_SUM, DIFFERENCE, ORBIT_LEAVES, REFLECTED_ORBIT_LEAVES,
                        REFLECTED_SUM, DualElement, GkmRecord, GkmReport, dual_x)
from fada.fgl import FormalGroupLaw
from fada.roots import AffineElt, AffineWeylGroup, AffRoot, FiniteRootDatum, Window
from fada.scalars import Scalar
from fada.twisted import (Coefficient, ExpansionTables, Row, TwistedAlgebra, TwistedElement,
                          combine_rows, row_sum)

_DATA: Dict[str, FiniteRootDatum] = {}
_ALG: Dict[Tuple, TwistedAlgebra] = {}


def datum(rtype: str) -> FiniteRootDatum:
    if rtype not in _DATA:
        _DATA[rtype] = FiniteRootDatum.from_type(rtype)
    return _DATA[rtype]


def law_of(kind: Optional[str]) -> Optional[FormalGroupLaw]:
    if kind is None:
        return None
    return {
        "additive": FormalGroupLaw.additive,
        "multiplicative": FormalGroupLaw.multiplicative,
        "connective": FormalGroupLaw.connective,
        "hyperbolic": FormalGroupLaw.hyperbolic,
    }[kind]()


def algebra(rtype: str = "A1", backend: str = "CON", torus: str = "small",
            fgl: Optional[str] = None, precision: int = 8) -> TwistedAlgebra:
    key = (rtype, backend, torus, fgl, precision)
    if key not in _ALG:
        t = TorusAlgebra(datum(rtype), backend, torus, fgl=law_of(fgl),
                         precision=precision)
        _ALG[key] = TwistedAlgebra(t)
    return _ALG[key]


def tables(alg: TwistedAlgebra, length: int) -> ExpansionTables:
    return ExpansionTables(alg, alg.torus.group.window(length))


def greedy_reduced_word(group: AffineWeylGroup, x: AffineElt) -> Tuple[int, ...]:
    """The lexicographically least reduced word of x by greedy left descents:
    the oracle of the words the group reads from its length layers."""
    word: List[int] = []
    cur = x
    while cur != group.identity:
        for i in group.labels:
            if group.left_descent(cur, i):
                word.append(i)
                cur = group.mul(group.generators[i], cur)
                break
        else:
            raise AssertionError("element has no left descent but is not e")
    return tuple(word)


def dual_y_by_bruhat_sum(ctx, window: Window) -> Dict[AffineElt, DualElement]:
    """Y*_w = sign(w) sum over v >= w of c^{l(v)-l(w)} X*_v for every w of
    the window, evaluated inside it from the X-flavor duals: the closed-form
    transition, an oracle for `ConnectiveContext.dual_y_in_x`."""
    group = ctx.group
    xtables = ExpansionTables(ctx.algebra, window)
    xstar = {v: dual_x(xtables, v).values for v in window.elements}
    out = {}
    for w in window.elements:
        lw = group.length(w)
        out[w] = DualElement(ctx.torus, window, row_sum(
            (group.sign(w) * ctx.c ** (group.length(v) - lw), xstar[v])
            for v in window.elements if group.bruhat_leq(w, v)))
    return out


def verified_d_expansion(ctx, z: TwistedElement) -> Dict[AffineElt, Localized]:
    """`PetersonContext.d_expansion` of z, after checking that these Peterson
    coefficients d_u rebuild the whole Demazure expansion of z, the
    non-minimal columns included: sum_u d_u P_u = z, column by column."""
    out = ctx.d_expansion(z)
    diff = combine_rows([(1, ctx.tables.expand_in_x(z))] + [
        (-d, ctx.x_expansion(u)) for u, d in out.items()])
    assert not diff, ("the Peterson expansion misses the Demazure coefficients at",
                      [ctx.window.word(v) for v in diff])
    return out


def eta_route_x_product(ctx, w2: AffineElt, v: AffineElt) -> Dict[AffineElt, Localized]:
    """X_{I_{w2}} X_{I_v} multiplied out in the eta basis and expanded back
    in the X basis: the route `PetersonContext.x_product_expansion` takes for
    laws outside the family x + y - c x y, and the oracle of its Demazure
    walk inside it."""
    alg, window = ctx.algebra, ctx.window
    prod = alg.x_word(window.compat_word(w2)) * alg.x_word(window.compat_word(v))
    return ctx.tables.expand_in_x(prod)


# -- the left-handed row recursion, the oracle of `twisted.right_step` -------


def predict_row(algebra: TwistedAlgebra, c: Scalar, row: Row, i: int,
                flavor: str) -> Row:
    """The row of eta_{s_i u} from the row of eta_u, for s_i u > u, both over
    S.

    Write Op for X or Y.  Then eta_{s_i} = a + b Op_i, with (a, b) =
    (1, -x_i) for X and (1 - c x_i, x_i) for Y, and Op_i Op_{I_v} is
    Op_{I_{s_i v}} when s_i v > v and c Op_{I_v} otherwise.  So the entry
    r_v of the row of eta_u puts a s_i(r_v) at v and b s_i(r_v) at s_i v
    when s_i v > v, and (a + b c) s_i(r_v) at v otherwise; s_i v > v is
    tested as "i is no left descent of v", one root action.  That needs
    Op_{I_w} to be independent of the reduced word, which holds for the
    group laws x + y - c x y.
    """
    torus = algebra.torus
    group = torus.group
    si = group.simple(i)
    xi = torus.x_root(group.simple_root(i))
    a, b = (1, -xi) if flavor == "x" else (1 - xi * c, xi)
    a_down = a + b * c
    terms: List[Tuple[Coefficient, Row]] = []
    for v, r in row.items():
        image = torus.act_elem(si, r)
        if not group.left_descent(v, i):
            terms += [(a, {v: image}), (b, {group.mul(si, v): image})]
        else:
            terms.append((a_down, {v: image}))
    return {v: r for v, r in row_sum(terms).items() if not r.is_zero()}


def row_difference(a: Row, b: Row) -> Row:
    """The nonzero entries of a - b, for rows over S: empty when a == b."""
    return {v: d for v, d in row_sum(((1, a), (-1, b))).items() if not d.is_zero()}


def left_recursion_failures(alg: TwistedAlgebra, window: Window, flavor: str
                            ) -> Tuple[int, List[Tuple[AffineElt, int]]]:
    """(pairs checked, failing pairs (s_i u, i)) of the left recursion
    `predict_row` on the algebra's own rows, over every pair (u, i) of the
    window with s_i u > u and s_i u in the window, for every letter i."""
    group = alg.torus.group
    c = alg.torus.ring.fgl.c
    checked, failures = 0, []
    for u in window.elements:
        for i in group.labels:
            si_u = group.mul(group.simple(i), u)
            if group.left_descent(u, i) or si_u not in window:
                continue
            predicted = predict_row(alg, c, alg.row(flavor, u), i, flavor)
            if row_difference(predicted, alg.row(flavor, si_u)):
                failures.append((si_u, i))
            checked += 1
    return checked, failures


# -- sums over the lcm, and the two actions of Q_W on duals -------------------


def lifted_sum(a: Localized, b: Localized) -> Localized:
    """a + b with both numerators written over the lcm of the denominators,
    exact zeros included: an oracle for `Localized.__add__`, which passes an
    exact zero through without lifting."""
    if a.den_map == b.den_map:
        return Localized(a.torus, a.num + b.num, a.den_map)
    lcm = dict(a.den_map)
    for p, m in b.den_map.items():
        lcm[p] = max(m, lcm.get(p, 0))
    return Localized(a.torus, a._over(lcm) + b._over(lcm), lcm)


def _zero(f: DualElement) -> Localized:
    return Localized(f.torus, f.torus.ring.zero())


def pair_full(z: TwistedElement, f: DualElement) -> Localized:
    """<z, f> with a lifted term for every point of z, zero or not: an
    oracle for `duals.pair`, whose sum passes exact zeros through."""
    out = _zero(f)
    for w, c in z.terms.items():
        out = lifted_sum(out, c * f.get(w))
    return out


def bullet_full(z: TwistedElement, f: DualElement, out_window: Window) -> DualElement:
    """(z . f)[u] = sum_w u(c_w) f[uw] over every w, for any z of Q_W, summed
    over the lcm of the denominators: the oracle of `duals.bullet`, which
    acts by a word of generators, one divided difference per letter."""
    torus, group = f.torus, f.torus.group
    values = {}
    for u in out_window.elements:
        acc = _zero(f)
        for w, c in z.terms.items():
            uw = group.mul(u, w)
            f.window.require(uw, "bullet shift u*w")
            acc = lifted_sum(acc, torus.act_loc(u, c) * f.get(uw))
        if not acc.is_zero():
            values[u] = acc.simplify()
    return DualElement(torus, out_window, values)


def odot_full(z: TwistedElement, f: DualElement, out_window: Window) -> DualElement:
    """(z o f)[u] = sum_v c_v v(f[v^{-1} u]) over every v, for any z of Q_W,
    summed over the lcm of the denominators: the oracle of `duals.odot`,
    which acts by a word of generators, one divided difference per letter."""
    torus, group = f.torus, f.torus.group
    values = {}
    for u in out_window.elements:
        acc = _zero(f)
        for v, c in z.terms.items():
            shifted = group.mul(group.inv(v), u)
            f.window.require(shifted, "odot shift v^{-1}*u")
            acc = lifted_sum(acc, c * torus.act_elem(v, f.get(shifted)))
        if not acc.is_zero():
            values[u] = acc.simplify()
    return DualElement(torus, out_window, values)


def bumped(f: DualElement, v: AffineElt, bump) -> DualElement:
    """f with `bump` added to its value at v."""
    values = dict(f.values)
    values[v] = f.get(v) + bump
    return DualElement(f.torus, f.window, values)


def divisible_uncached(torus: TorusAlgebra, f: AlgebraElement, beta: AffRoot, d: int) -> bool:
    """`TorusAlgebra.divisible` without its verdict memo: every call divides,
    so an oracle never reads a verdict cached by the walk it checks."""
    return f.is_exact_zero() or torus.ring.divide(f, torus.embed_root(beta), d)[1] == d


def gkm_check_small_dense(f: DualElement, degree_bound: int,
                          grassmannian: bool = False) -> GkmReport:
    """`duals.gkm_check_small` as a dense walk over the whole window: every
    value is read, D_k[x] = D_{k-1}[x] - D_{k-1}[t x] is formed at every
    x whose orbit stays in the window, zero minus zero included, and the
    checked and skipped bookkeeping is rebuilt per call.  The oracle of the
    support-only walk, record for record and in order."""
    torus, window = f.torus, f.window
    report = GkmReport(torus.torus, torus.ring.backend, degree_bound, window)
    report.checked += len(window.elements)
    values = [f.get(w) for w in window.elements]
    for alpha in torus.datum.positive_roots:
        beta = (alpha, 0)
        shift, reflect = window.root_steps(alpha)
        diffs = [values]
        for _ in range(degree_bound):
            prev = diffs[-1]
            diffs.append([None if g is None or j is None or prev[j] is None else g - prev[j]
                          for g, j in zip(prev, shift)])
        for k, w in enumerate(window.elements):
            for d in range(1, degree_bound + 1):
                if diffs[d][k] is None:
                    report.skipped.append(GkmRecord(alpha, d, w, ORBIT_LEAVES))
                    continue
                report.checked += 1
                if not divisible_uncached(torus, diffs[d][k], beta, d):
                    report.violations.append(GkmRecord(alpha, d, w, BINOMIAL_SUM))
                    continue
                if grassmannian:
                    continue
                mirror = None if reflect[k] is None else diffs[d - 1][reflect[k]]
                if mirror is None:
                    report.skipped.append(GkmRecord(alpha, d, w, REFLECTED_ORBIT_LEAVES))
                    continue
                report.checked += 1
                if not divisible_uncached(torus, diffs[d - 1][k] - mirror, beta, d):
                    report.violations.append(GkmRecord(alpha, d, w, REFLECTED_SUM))
    return report


def gkm_check_big_all_pairs(f: DualElement) -> GkmReport:
    """`duals.gkm_check_big` as a walk over every reflection pair of the
    window for every dual: every value is read, and every difference
    is formed and tested, zero minus zero included.  The oracle of the walk
    over the pairs that touch the support, record for record and in order."""
    torus, window = f.torus, f.window
    report = GkmReport(torus.torus, torus.ring.backend, 1, window)
    report.checked += len(window.elements)
    values = [f.get(w) for w in window.elements]
    for a, b, beta in window.reflection_pairs():
        report.checked += 1
        if not divisible_uncached(torus, values[a] - values[b], beta, 1):
            report.violations.append(GkmRecord(beta, 1, window.elements[a], DIFFERENCE))
    return report


# -- small-rank shorthands --------------------------------------------------


def xa(t: TorusAlgebra):
    """x_alpha for the simple root of a rank-one system."""
    return t.simple_x(1)


def xna(t: TorusAlgebra):
    """x_{-alpha} for the simple root of a rank-one system."""
    return t.neg_simple_x(1)


def over(t: TorusAlgebra, num, *dens) -> Localized:
    """num / prod x_beta with dens given as lattice points."""
    if isinstance(num, int):
        num = t.ring.from_scalar(num)
    return Localized(t, num, dens)


def alpha_vec(t: TorusAlgebra):
    return t.embed_root(t.group.simple_root(1))


def nalpha_vec(t: TorusAlgebra):
    return tuple(-v for v in alpha_vec(t))


def specialize(f, assignment):
    """The coefficients of a ring element by lattice key, with the named
    parameters set to integers and vanishing coefficients dropped."""
    out = {}
    for k, s in f.coefficients().items():
        s = s.substitute(assignment)
        if not s.is_zero():
            out[k] = s
    return out


def tw_zero(x) -> bool:
    """Whether a twisted element simplifies to zero."""
    return not x.simplify().terms


def reference_inverse(d: Localized) -> Localized:
    """The inverse of u / prod_b x_b^{m_b}, u a unit monomial, multiplied out
    into one ring element u^{-1} prod_b x_b^{m_b}."""
    ring = d.torus.ring
    (key, coeff), = d.num.terms.items()
    inv = AlgebraElement(ring, {tuple(-v for v in key): coeff}, None)
    for b, m in d.den_map.items():
        inv = inv * ring.x_pow(b, m)
    return Localized(d.torus, inv)


# -- the ring kernels on exponent tuples, oracles for the packed ones --------
#
# The exact and truncated product, truncation, valuation, substitution,
# division by a linear form and series division as they ran on tuple-keyed
# terms before every backend moved to packed keys.

Terms = Dict[Tuple[int, ...], int]


def tuple_pmul(a: Terms, b: Terms, trunc: Optional[int] = None,
               nvars: Optional[int] = None) -> Terms:
    """The product a * b; with `trunc`, only terms of lattice degree (the sum
    of the first `nvars` slots) at most `trunc` are formed."""
    out: Terms = {}
    get = out.get
    if trunc is None:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    else:
        by_degree: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        for e2, c2 in b.items():
            by_degree.setdefault(sum(e2[:nvars]), []).append((e2, c2))
        layers = sorted(by_degree.items())
        for e1, c1 in a.items():
            budget = trunc - sum(e1[:nvars])
            for d2, items in layers:
                if d2 > budget:
                    break
                for e2, c2 in items:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tuple_ptruncate(a: Terms, trunc: int, nvars: int) -> Terms:
    return {e: c for e, c in a.items() if sum(e[:nvars]) <= trunc}


def tuple_pvaluation(a: Terms, nvars: int) -> Optional[int]:
    """Smallest lattice degree with a nonzero term, or None for zero."""
    if not a:
        return None
    return min(sum(e[:nvars]) for e in a)


def tuple_psubstitute(a: Terms, images: Sequence[Terms],
                      trunc: Optional[int] = None) -> Terms:
    """Ring homomorphism sending lattice variable i to images[i], the
    parameter slots riding along, one product chain per term."""
    n = len(images)
    pow_cache: List[Dict[int, Terms]] = [{1: im} for im in images]

    def power(i: int, k: int) -> Terms:
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = tuple_pmul(power(i, k - 1), images[i], trunc, n)
        return cache[k]

    zero = (0,) * n
    out: Terms = {}
    for e, c in a.items():
        term = {zero + e[n:]: c}
        for i in range(n):
            k = e[i]
            if k < 0:
                raise ValueError("substitution requires nonnegative exponents")
            if k:
                term = tuple_pmul(term, power(i, k), trunc, n)
        out = polyops.padd(out, term)
    return out


def tuple_pdiv_linear(num: Terms, form: Sequence[int]) -> Optional[Terms]:
    """Exact division of num by the integer linear form l = sum_i form[i] x_i.

    Synthetic division in one pivot variable x_j: the terms are grouped once
    by their x_j exponent and the groups walked from the top down.  Each
    group divided by form[j] x_j is a slice of the quotient, and that slice
    times l - form[j] x_j is subtracted from the group below.  Returns None
    when form[j] does not divide a coefficient or a term is left at x_j^0
    or below.  The first len(form) slots of each key are the lattice
    variables; the parameter slots after them ride along.
    """
    if not any(form):
        raise ZeroDivisionError("division by the zero linear form")
    if not num:
        return {}
    j = next(i for i, v in enumerate(form) if v)
    pivot = form[j]
    rest = [(i, v) for i, v in enumerate(form) if v and i != j]
    groups: Dict[int, Terms] = {}
    for e, c in num.items():
        groups.setdefault(e[j], {})[e] = c
    quo: Terms = {}
    for k in range(max(groups), 0, -1):
        group = groups.get(k)
        if not group:
            continue
        below = groups.setdefault(k - 1, {})
        get = below.get
        for e, c in group.items():
            qc, r = divmod(c, pivot)
            if r:
                return None
            key = list(e)
            key[j] = k - 1
            quo[tuple(key)] = qc
            for i, v in rest:
                key[i] += 1
                ee = tuple(key)
                key[i] -= 1
                s = get(ee, 0) - v * qc
                if s:
                    below[ee] = s
                else:
                    del below[ee]
    if any(group for k, group in groups.items() if k < 1):
        return None
    return quo


def tuple_series_div_exact(num: Terms, den: Terms, prec: int,
                           nvars: int) -> Optional[Tuple[Terms, int]]:
    """Divide truncated series num by den, requiring exact divisibility, one
    lattice-degree bucket at a time with `tuple_pdiv_linear`."""
    if not den:
        raise ZeroDivisionError("series division by zero")
    layers: Dict[int, Terms] = {}
    for e, c in den.items():
        layers.setdefault(sum(e[:nvars]), {})[e] = c
    width = len(next(iter(den)))
    form = [den.get(tuple(int(j == i) for j in range(width)), 0) for i in range(nvars)]
    if min(layers) != 1 or len(layers[1]) != sum(map(bool, form)):
        raise ValueError("series division needs a divisor whose lowest form "
                         "is an integer linear form")
    qprec = prec - 1
    if qprec < 0:
        return ({}, -1)
    buckets: Dict[int, Terms] = {}
    for e, c in num.items():
        buckets.setdefault(sum(e[:nvars]), {})[e] = c
    higher = sorted((d, t) for d, t in layers.items() if d > 1)
    quo: Terms = {}
    for v in range(min(buckets, default=prec + 1), prec + 1):
        bucket = buckets.get(v)
        if not bucket:
            continue
        qslice = tuple_pdiv_linear(bucket, form)
        if qslice is None:
            return None
        quo.update(qslice)
        for d, layer in higher:
            if v - 1 + d > prec:
                break
            target = buckets.setdefault(v - 1 + d, {})
            get = target.get
            for e1, c1 in qslice.items():
                for e2, c2 in layer.items():
                    e = tuple(map(add, e1, e2))
                    s = get(e, 0) - c1 * c2
                    if s:
                        target[e] = s
                    else:
                        del target[e]
    return (quo, qprec)
