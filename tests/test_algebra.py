"""Torus algebras: the four coefficient backends and localization."""

import random
import re

import pytest
import sympy
from hypothesis import given, strategies as st

from fada import polyops
from fada.algebra import AlgebraElement, FormalRing, Localized, TorusAlgebra
from fada.duals import dual_x, gkm_check_small
from fada.errors import ConfigError, MembershipError, PrecisionError
from fada.fgl import FormalGroupLaw
from fada.scalars import Scalar

import util


# nonzero rank-two lattice points: negative and non-primitive ones included
points = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
coeffs = st.integers(-3, 3).filter(bool)


def torus(rtype="A1", backend="CON", kind="small", fgl=None, precision=8):
    return util.algebra(rtype, backend, kind, fgl, precision).torus


# -- x_mu and the formal group law -----------------------------------------


@pytest.mark.parametrize("backend,fgl", [
    ("ADD", None), ("MUL", None), ("CON", None), ("SER", "connective"),
])
def test_x_is_formal_group_homomorphism(backend, fgl):
    t = torus("A2", backend, fgl=fgl)
    ring = t.ring
    law = ring.fgl
    for mu, nu in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 0), (-1, 0)),
                   ((0, -1), (1, 1))]:
        lhs = ring.x_of(tuple(a + b for a, b in zip(mu, nu)))
        xm, xn = ring.x_of(mu), ring.x_of(nu)
        # F(x_mu, x_nu) evaluated through the coefficient table
        acc = xm + xn
        for (i, j), c in law.table(6).items():
            if (i, j) in ((1, 0), (0, 1)):
                continue
            acc = acc + (xm ** i) * (xn ** j) * c
        assert acc == lhs


def test_multiplicative_negative_root_identity():
    t = torus("A1", "MUL")
    xa = t.simple_x(1)
    xna = t.neg_simple_x(1)
    e_alpha = t.ring.element({(1,): Scalar.const(1)})
    assert xna == -(e_alpha * xa)


def test_connective_specializes_to_multiplicative():
    t = torus("A1", "CON")
    m = torus("A1", "MUL")
    for mu in [(1,), (-1,), (2,)]:
        spec = util.specialize(t.ring.x_of(mu), {"c": 1})
        assert spec == m.ring.x_of(mu).coefficients()


def test_additive_is_linear():
    t = torus("A2", "ADD")
    x = t.ring.x_of((2, -1))
    assert x == t.ring.x_of((1, 0)) * 2 - t.ring.x_of((0, 1))


# -- Weyl action ------------------------------------------------------------


def test_act_elem_is_ring_hom_and_permutes_x():
    for backend in ("ADD", "MUL", "CON"):
        t = torus("A2", backend)
        g = t.group
        w = g.from_word((1, 2))
        f = t.simple_x(1) * t.simple_x(2) + t.simple_x(1)
        h = t.simple_x(2) + t.ring.one()
        assert t.act_elem(w, f * h) == t.act_elem(w, f) * t.act_elem(w, h)
        assert t.act_elem(w, f + h) == t.act_elem(w, f) + t.act_elem(w, h)
        for mu in [(1, 0), (0, 1), (1, 1)]:
            moved = w.w.act_root(mu)
            assert t.act_elem(w, t.ring.x_of(mu)) == t.ring.x_of(moved)


def test_translations_act_trivially_on_small_torus():
    t = torus("A1", "CON")
    tr = t.group.translation((2,))
    f = t.simple_x(1) * t.simple_x(1) + t.neg_simple_x(1)
    assert t.act_elem(tr, f) == f


def test_big_torus_sees_translations():
    t = torus("A1", "MUL", kind="big")
    tr = t.group.translation((1,))
    x_a = t.x_root(((1,), 0))
    moved = t.act_elem(tr, x_a)
    # t_lam moves alpha to alpha - 2 delta
    assert moved == t.x_root(((1,), -2))
    assert moved != x_a
    s0 = t.group.simple(0)
    assert t.act_elem(s0, x_a) == t.x_root(((-1,), 2))


@pytest.mark.parametrize("rtype,backend,kind", [
    ("A1", "MUL", "small"), ("A2", "CON", "small"),
    ("A1", "CON", "big"), ("A2", "MUL", "big"),
])
@given(data=st.data())
def test_group_ring_action_moves_each_key_by_act_vec(rtype, backend, kind, data):
    # on MUL and CON the action maps the packed key of each lattice point to
    # that of its image, degree digit included: compare packed terms
    t = torus(rtype, backend, kind)
    ring = t.ring
    n = ring.nvars
    keys = st.tuples(*[st.integers(-3, 3)] * (n + len(ring.params)))
    f = AlgebraElement(ring, data.draw(st.dictionaries(keys, coeffs, max_size=6)), None)
    x = t.group.from_word(tuple(data.draw(st.lists(st.integers(0, t.datum.rank), max_size=5))))
    moved = {t.act_vec(x, e[:n]) + e[n:]: c for e, c in f.terms.items()}
    assert t.act_elem(x, f)._terms == ring.codec.pack_terms(moved)


def test_act_loc():
    t = torus("A1", "CON")
    s1 = t.group.simple(1)
    f = Localized(t, t.ring.one(), (util.alpha_vec(t),))
    assert t.act_loc(s1, f) == Localized(t, t.ring.one(), (util.nalpha_vec(t),))


# -- division and divisibility ---------------------------------------------


@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
def test_divides(backend):
    t = torus("A1", backend)
    ring = t.ring
    a = t.group.simple_root(1)
    b = t.embed_root(a)
    xa = t.simple_x(1)
    f = xa * xa * (ring.one() + xa)
    assert ring.divide(f, b, 2) == (ring.one() + xa, 2)
    assert ring.divide(f, b, 3) == (ring.one() + xa, 2)
    assert t.divisible(f, a, 2) and not t.divisible(f, a, 3)
    q, k = ring.divide(ring.zero(), b, 5)
    assert q.is_zero() and k == 5 and t.divisible(ring.zero(), a, 5)


@pytest.mark.parametrize("backend,kind", [
    (backend, kind) for backend in ("ADD", "MUL", "CON") for kind in ("small", "big")])
@given(data=st.data())
def test_divisible_agrees_with_divide(backend, kind, data):
    t = torus("A2", backend, kind)
    ring = t.ring
    low = 0 if backend == "ADD" else -2
    keys = st.tuples(*[st.integers(low, 2)] * ring.nvars + [st.integers(-2, 2)] * len(ring.params))

    def draw(size):
        return AlgebraElement(ring, data.draw(st.dictionaries(keys, coeffs, max_size=size)), None)

    alpha = data.draw(st.sampled_from(t.datum.roots))
    beta = (alpha, data.draw(st.integers(-1, 1)) if kind == "big" else 0)
    k, d = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    # g x_beta^k + r: divisible when r is 0 and k >= d, by chance otherwise
    g, r = draw(4), draw(2)
    f = (g * ring.x_pow(t.embed_root(beta), k) if k else g) + r
    got = t.divisible(f, beta, d)
    assert got == (ring.divide(f, t.embed_root(beta), d)[1] == d)
    if r.is_zero() and k >= d:
        assert got


def fresh(rtype="A2", backend="CON", kind="small", fgl=None, precision=8):
    """A torus of its own, whose verdict memo no other test has warmed."""
    return TorusAlgebra(util.datum(rtype), backend, kind, fgl=util.law_of(fgl),
                        precision=precision)


def count_quotients(monkeypatch):
    """The divisors of every `FormalRing._quotient` call from now on."""
    calls = []
    quotient = FormalRing._quotient

    def counted(ring, f, b):
        calls.append(b)
        return quotient(ring, f, b)

    monkeypatch.setattr(FormalRing, "_quotient", counted)
    return calls


@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
def test_divisible_passes_an_exact_zero_without_dividing(backend, monkeypatch):
    t = fresh("A2", backend)
    calls = count_quotients(monkeypatch)
    beta = t.group.simple_root(1)
    assert t.divisible(t.ring.zero(), beta, 3) and not calls
    assert t.divisible(t.simple_x(1) * t.simple_x(2), beta, 1) and len(calls) == 1
    assert not t.divisible(t.simple_x(2), beta, 1) and len(calls) == 2


def test_divisible_divides_a_series_zero():
    # a SER zero vanishes only through O(p): each division by x_beta costs one
    # degree of certified precision, so past the precision it raises, on
    # every repeat and with the same text, as a raising call keeps no verdict
    t = fresh("A1", "SER", fgl="hyperbolic", precision=4)
    beta = t.group.simple_root(1)
    assert t.divisible(t.ring.zero(), beta, 4)
    texts = set()
    for _ in range(3):
        with pytest.raises(PrecisionError) as exc:
            t.divisible(t.ring.zero(), beta, 5)
        texts.add(str(exc.value))
    assert len(texts) == 1


@pytest.mark.parametrize("backend,kind,fgl", [
    ("ADD", "small", None), ("MUL", "big", None), ("CON", "small", None),
    ("CON", "big", None), ("SER", "small", "hyperbolic")])
def test_a_repeated_divisibility_question_divides_once(backend, kind, fgl, monkeypatch):
    t = fresh("A2", backend, kind, fgl)
    calls = count_quotients(monkeypatch)
    beta = t.group.simple_root(1)
    f = t.simple_x(1) * t.simple_x(1) * t.simple_x(2)
    assert t.divisible(f, beta, 2) and len(calls) == 2
    # an equal element built anew is the same question
    assert t.divisible(t.simple_x(2) * t.simple_x(1) * t.simple_x(1), beta, 2) and len(calls) == 2
    assert not t.divisible(t.simple_x(2), beta, 1) and len(calls) == 3
    assert not t.divisible(t.simple_x(2), beta, 1) and len(calls) == 3


@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
def test_divisible_keeps_one_verdict_per_degree_and_affine_root(backend):
    # beta and beta + delta share their finite part but not their x_beta
    t = fresh("A2", backend, "big")
    alpha = t.datum.positive_roots[0]
    f = t.x_root((alpha, 0))
    assert t.divisible(f, (alpha, 0), 1) and not t.divisible(f, (alpha, 0), 2)
    assert not t.divisible(f, (alpha, 1), 1)
    g = t.x_root((alpha, 1))
    assert not t.divisible(g, (alpha, 0), 1) and t.divisible(g, (alpha, 1), 1)


def test_divisible_keeps_one_verdict_per_series_precision():
    # (x_1 + x_2)^2 is x_{-alpha_1-alpha_2}^2 to O(2) under the hyperbolic law
    # but not to O(8): the same terms at two precisions, two verdicts
    t = fresh("A2", "SER", fgl="hyperbolic")
    beta = ((-1, -1), 0)
    terms = {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1}
    high, low = AlgebraElement(t.ring, terms, 8), AlgebraElement(t.ring, terms, 2)
    assert high.terms == low.terms
    assert not t.divisible(high, beta, 1) and t.divisible(low, beta, 1)
    assert not t.divisible(high, beta, 2) and t.divisible(low, beta, 2)
    # a zero at precision 8 takes five divisions; at precision 4 it runs out
    zero4 = AlgebraElement(t.ring, {}, 4)
    assert t.divisible(t.ring.zero(), beta, 5)
    with pytest.raises(PrecisionError):
        t.divisible(zero4, beta, 5)


def test_warm_verdicts_keep_con_gkm_on_the_uncached_oracle():
    # every dual of A2 L=5 and some duals bumped at one point, walked twice:
    # the second walk reads warm verdicts and must still give the records of
    # the oracle that divides every time, in order
    alg = util.algebra("A2", "CON")
    t = alg.torus
    tables = util.tables(alg, 5)
    window = tables.window
    rng = random.Random(5)
    duals = [dual_x(tables, w) for w in window.elements]
    shallow = [w for w in window.elements if window.lengths[w] <= 2]
    cases = list(duals)
    for k in range(8):
        bump = rng.randint(1, 5)
        if k % 2:
            bump = bump * t.x_root((rng.choice(t.datum.positive_roots), 0))
        cases.append(util.bumped(rng.choice(duals), rng.choice(shallow), bump))
    for f in cases:
        gkm_check_small(f, 2)
    seen = 0
    for f in cases:
        rep, oracle = gkm_check_small(f, 2), util.gkm_check_small_dense(f, 2)
        assert (rep.checked, rep.skipped, rep.violations) == (
            oracle.checked, oracle.skipped, oracle.violations)
        seen += bool(rep.violations)
    assert seen and seen < len(cases)


def test_divide_once_polynomial_guard():
    # in the polynomial model a quotient escaping to negative exponents is
    # not a ring member even though the Laurent quotient exists
    t = torus("A2", "ADD")
    x1 = t.ring.x_of((1, 0))
    assert t.divide_once(x1 * x1, (0, 1)) is None


def test_divide_once_group_ring_units():
    t = torus("A1", "MUL")
    e_alpha = t.ring.element({(1,): Scalar.const(1)})
    one = t.ring.one()
    # e_alpha - 1 = e_alpha * x_alpha, so the quotient is the unit e_alpha
    q = t.divide_once(e_alpha - one, (1,))
    assert q == e_alpha


@pytest.mark.parametrize("rtype,backend,kind", [
    ("A1", "MUL", "small"), ("A1", "CON", "small"),
    ("A2", "MUL", "small"), ("A2", "CON", "small"),
    ("A1", "MUL", "big"), ("A1", "CON", "big"),
    ("A2", "MUL", "big"), ("A2", "CON", "big"),
])
@given(data=st.data())
def test_chain_division_matches_repeated_pdiv_exact(rtype, backend, kind, data):
    t = torus(rtype, backend, kind)
    ring = t.ring
    keys = st.tuples(*[st.integers(-2, 2)] * (ring.nvars + len(ring.params)))
    f = AlgebraElement(ring, data.draw(st.dictionaries(keys, coeffs, max_size=5)), None)
    b = data.draw(st.tuples(*[st.integers(-2, 2)] * ring.nvars).filter(any))
    m = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(0, 3))
    if p:
        f = f * ring.x_pow(b, p)
    want, k = f.terms, 0
    while k < m:
        q = polyops.pdiv_exact(want, ring.x_of(b).terms)
        if q is None:
            break
        want, k = q, k + 1
    q, got = ring.divide(f, b, m)
    assert got == k
    # packed terms, degree digit included
    assert q._terms == ring.codec.pack_terms(want)
    assert k >= min(p, m)


def test_series_division_names_the_precision_to_rerun_at():
    t = torus("A1", "SER", fgl="hyperbolic", precision=4)
    ring = t.ring
    for f in [AlgebraElement(ring, ring.one().terms, 0), AlgebraElement(ring, {}, 0)]:
        with pytest.raises(PrecisionError) as err:
            t.ring.divide(f, (1,), 1)
        bound = re.search(r"rerun with precision >= (\d+)", str(err.value))
        assert bound and int(bound.group(1)) > ring.precision


# -- classical operators ----------------------------------------------------


@pytest.mark.parametrize("backend,kappa_scalar", [
    ("ADD", 0), ("MUL", 1),
])
def test_kappa_constants(backend, kappa_scalar):
    t = torus("A1", backend)
    assert t.kappa(1) == Localized(t, t.ring.from_scalar(kappa_scalar))


def test_kappa_connective():
    t = torus("A1", "CON")
    c = t.ring.from_scalar(Scalar.param("c", ("c",)))
    assert t.kappa(1) == Localized(t, c)


@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
def test_demazure_is_exact_and_twisted_leibniz(backend):
    t = torus("A1", backend)
    g = t.group
    s1 = g.simple(1)
    xa = t.simple_x(1)
    f = xa * xa + xa
    h = t.neg_simple_x(1) + t.ring.one()
    left = t.demazure(1, f * h)
    right = t.demazure(1, f) * h + t.act_elem(s1, f) * t.demazure(1, h)
    assert left == right
    # squared operator reproduces itself scaled by kappa
    twice = Localized(t, t.demazure(1, t.demazure(1, f)))
    assert twice == t.kappa(1) * Localized(t, t.demazure(1, f))


def test_demazure_affine_letter():
    # on the small torus x_{alpha_0} = x_{-alpha}, and s_0 acts as s_alpha,
    # so Delta_0(x_{-alpha}) = (x_{-alpha} - x_alpha)/x_{-alpha} = 1 + e_{-alpha}
    t = torus("A1", "CON")
    f = t.x_root(t.group.simple_root(0))
    assert f == t.neg_simple_x(1)
    d = t.demazure(0, f)
    e_neg = t.ring.element({(-1,): 1})
    assert d == t.ring.one() + e_neg


@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
def test_augmentation(backend):
    t = torus("A1", backend)
    assert t.augmentation(t.ring.one()) == 1
    assert t.augmentation(t.simple_x(1)).is_zero()
    assert t.augmentation(t.neg_simple_x(1)).is_zero()


# -- series bridge ----------------------------------------------------------


@pytest.mark.parametrize("src,fgl", [
    ("ADD", "additive"), ("MUL", "multiplicative"), ("CON", "connective"),
])
def test_to_series_matches_series_model(src, fgl):
    t = torus("A1", src)
    target = torus("A1", "SER", fgl=fgl, precision=8)
    for mu in [(1,), (-1,), (2,)]:
        want = target.ring.x_of(mu)
        assert t.to_series(t.ring.x_of(mu), target) == want
    f = t.simple_x(1) * t.neg_simple_x(1) + t.simple_x(1)
    h = t.simple_x(1) + t.ring.one()
    assert t.to_series(f * h, target) == t.to_series(f, target) * t.to_series(h, target)


def test_to_series_rejects_exact_target():
    t = torus("A1", "CON")
    with pytest.raises(ConfigError):
        t.to_series(t.ring.one(), torus("A1", "MUL"))


# -- localization -----------------------------------------------------------


def test_localized_arithmetic():
    t = torus("A1", "CON")
    a = util.alpha_vec(t)
    na = util.nalpha_vec(t)
    one = t.ring.one()
    f = Localized(t, one, (a,))
    g = Localized(t, one, (na,))
    s = f + g
    assert s == t.kappa(1)
    assert (f - f).is_zero()
    assert f * Localized(t, t.simple_x(1)) == Localized(t, one)
    assert (f * g).den == tuple(sorted((a, na)))


def test_localized_eq_cross_multiplies():
    t = torus("A1", "MUL")
    a = util.alpha_vec(t)
    e_alpha = t.ring.element({(1,): Scalar.const(1)})
    # 1/x_{-alpha} = -e_{-alpha}/x_alpha
    lhs = Localized(t, t.ring.one(), (util.nalpha_vec(t),))
    e_neg = t.ring.element({(-1,): Scalar.const(1)})
    rhs = Localized(t, -e_neg, (a,))
    assert lhs == rhs


def test_localized_simplify():
    t = torus("A1", "CON")
    a = util.alpha_vec(t)
    xa = t.simple_x(1)
    f = Localized(t, xa * xa, (a,))
    s = f.simplify()
    assert s.den == ()
    assert s.num == xa
    g = Localized(t, t.ring.one(), (a,))
    assert g.simplify().den == (a,)


def test_a_series_zero_is_known_once_its_precision_pays_for_the_denominator():
    # 0 + O(p) over a denominator of degree d: an unknown value for p < d,
    # which is_negligible refuses with the precision to rerun at, a zero for p >= d
    t = torus("A1", "SER", fgl="hyperbolic", precision=6)
    a = util.alpha_vec(t)
    for d in range(1, 4):
        for p in range(5):
            z = Localized(t, AlgebraElement(t.ring, {}, p), (a,) * d)
            assert z.is_zero() == (p >= d), (d, p)
            if p >= d:
                assert z.is_negligible()
            else:
                with pytest.raises(PrecisionError, match="precision >= %d" % max(6 + d - p, 7)):
                    z.is_negligible()
    one = Localized(t, t.ring.one(), (a,) * 3)
    assert not one.is_zero() and not one.is_negligible()


def test_localized_inverse():
    t = torus("A1", "MUL")
    a = util.alpha_vec(t)
    e_alpha = t.ring.element({(1,): Scalar.const(1)})
    f = Localized(t, e_alpha, (a,))
    one = Localized(t, t.ring.one())
    inv = one / f
    assert not inv.den_map
    assert (f * inv) == one
    with pytest.raises(MembershipError):
        one / Localized(t, t.simple_x(1))  # two-term numerator
    with pytest.raises(MembershipError):
        one / Localized(t, t.ring.from_scalar(2))
    # a monomial of positive degree is no unit of the series ring
    s = torus("A1", "SER", fgl="hyperbolic")
    with pytest.raises(MembershipError):
        Localized(s, s.ring.one()) / Localized(s, s.ring.x_of(a))


@pytest.mark.parametrize("backend,fgl", [
    ("ADD", None), ("MUL", None), ("CON", None), ("SER", "hyperbolic"),
])
@given(data=st.data())
def test_division_by_a_unit_over_x_multiplies_by_the_inverse(backend, fgl, data):
    t = torus("A2", backend, fgl=fgl)
    ring = t.ring
    group_ring = backend in ("MUL", "CON")
    lattice = st.integers(-2, 2) if group_ring else st.integers(0, 2)
    d_den = data.draw(st.lists(points, min_size=1, max_size=3))
    unit_key = data.draw(st.tuples(*[st.integers(-2, 2)] * 2)) if group_ring else (0, 0)
    unit_key += tuple(data.draw(st.integers(-1, 1)) if backend == "CON" else 0
                      for _ in ring.params)
    d = Localized(t, AlgebraElement(ring, {unit_key: data.draw(st.sampled_from([1, -1]))},
                                    None), d_den)
    keys = st.tuples(lattice, lattice, *[st.integers(0, 1)] * len(ring.params))
    num = AlgebraElement(ring, data.draw(st.dictionaries(keys, coeffs, min_size=1,
                                                         max_size=3)), None)
    shared = data.draw(st.lists(st.sampled_from(d_den), max_size=3))
    f = Localized(t, num, shared + data.draw(st.lists(points, max_size=2)))
    got = f / d
    want = f * util.reference_inverse(d)
    assert got == want
    # the multiplicities are subtracted, and nothing more is cancelled
    assert got.den_map == {b: m - d.den_map.get(b, 0) for b, m in f.den_map.items()
                           if m > d.den_map.get(b, 0)}
    if got.num.prec is None:
        # over the reference's denominator the numerators agree term for term
        assert got._over(want.den_map).terms == want.num.terms


def test_localized_rejects_zero_denominator():
    t = torus("A1", "CON")
    with pytest.raises(ConfigError):
        Localized(t, t.ring.one(), ((0,),))


def test_make_torus_guards():
    d = util.datum("A1")
    with pytest.raises(ConfigError):
        TorusAlgebra(d, "XXX", "small")
    with pytest.raises(ConfigError):
        TorusAlgebra(d, "SER", "small")  # series model needs a law


# -- localization against sympy --------------------------------------------

# the field Z(x, y, c): sympy keeps every element cancelled to lowest terms
QF, X, Y, C = sympy.polys.fields.field("x,y,c", sympy.ZZ)


def x_sympy(t, b):
    """x_b: linear on ADD, c^-1 (1 - e_-b) on CON."""
    if t.ring.backend == "ADD":
        return b[0] * X + b[1] * Y
    return (1 - X ** -b[0] * Y ** -b[1]) / C


def sympy_num(f):
    return sum((c * X ** e[0] * Y ** e[1] * C ** sum(e[2:]) for e, c in f.num.terms.items()),
               QF.zero)


def sympy_value(t, f):
    den = QF.one
    for b in f.den:
        den *= x_sympy(t, b)
    return sympy_num(f) / den


def sympy_divides(t, num, b):
    """Whether x_b divides num in the ring: a polynomial quotient over Z on
    ADD, a Laurent one over Z on CON."""
    d = (num / x_sympy(t, b)).denom
    return len(d.terms()) == 1 and abs(d.LC) == 1 and (
        t.ring.backend == "CON" or d.is_ground)


@st.composite
def fractions(draw, t):
    """Random num / prod x_b, the numerator often a multiple of some x_b."""
    ring = t.ring
    lattice = st.integers(0, 2) if ring.backend == "ADD" else st.integers(-2, 2)
    keys = st.tuples(lattice, lattice, *[st.integers(-1, 1)] * len(ring.params))
    num = AlgebraElement(ring, draw(st.dictionaries(keys, coeffs, max_size=3)), None)
    for b in draw(st.lists(points, max_size=2)):
        num = num * ring.x_of(b)
    return Localized(t, num, draw(st.lists(points, max_size=3)))


@pytest.mark.parametrize("backend", ["ADD", "CON"])
@given(data=st.data())
def test_localized_matches_sympy(backend, data):
    t = torus("A2", backend)
    f = data.draw(fractions(t))
    g = data.draw(fractions(t))
    F, G = sympy_value(t, f), sympy_value(t, g)
    assert sympy_value(t, f + g) == F + G
    assert sympy_value(t, f - g) == F - G
    assert sympy_value(t, f * g) == F * G
    assert (f == g) == (F == G)
    # the same value over a larger denominator is equal; a changed one is not
    b = data.draw(points)
    assert f == Localized(t, f.num * t.ring.x_of(b), f.den + (b,))
    assert (f == f + g) == (G == 0)
    s = f.simplify()
    assert sympy_value(t, s) == F
    assert s.den == greedy_den(f)
    num = sympy_num(s)
    assert not any(sympy_divides(t, num, b) for b in set(s.den))


def greedy_den(f):
    """The denominator left by cancelling one copy of x_b at a time, in the
    order of the sorted denominator, with `polyops.pdiv_exact`."""
    ring = f.torus.ring
    poly = ring.nvars if ring.backend == "ADD" else 0
    num, left = f.num.terms, []
    for b in f.den:
        q = polyops.pdiv_exact(num, ring.x_of(b).terms, poly)
        if q is None:
            left.append(b)
        else:
            num = q
    return tuple(left)


def test_simplify_keeps_b_and_minus_b_apart():
    # x_{-a} = -e_a x_a, so x_a^3 cancels both copies of x_{-a} and one of
    # x_a; folding -a into a would print a different denominator
    t = torus("A1", "CON")
    a, na = util.alpha_vec(t), util.nalpha_vec(t)
    xa = t.simple_x(1)
    f = Localized(t, xa * xa * xa, (a, na, a, na))
    s = f.simplify()
    assert s.den == greedy_den(f) == (a,)
    assert s == f
    assert Localized(t, t.ring.one(), (a, na, a)).den == (na, a, a)


# -- exact zeros in sums ------------------------------------------------------


def lattice_points(n):
    return st.tuples(*[st.integers(-2, 2)] * n).filter(any)


@pytest.mark.parametrize("rtype", ["A1", "A2", "B2"])
@pytest.mark.parametrize("backend", ["ADD", "MUL", "CON"])
@given(data=st.data())
def test_an_exact_zero_adds_nothing_and_lifts_nothing(rtype, backend, data):
    t = torus(rtype, backend)
    ring = t.ring
    pts = lattice_points(ring.nvars)
    lattice = st.integers(0, 2) if backend == "ADD" else st.integers(-2, 2)
    keys = st.tuples(*[lattice] * ring.nvars, *[st.integers(0, 1)] * len(ring.params))
    x = Localized(t, AlgebraElement(ring, data.draw(st.dictionaries(
        keys, coeffs, min_size=1, max_size=3)), None), data.draw(st.lists(pts, max_size=3)))
    z = Localized(t, ring.zero(), data.draw(st.lists(pts, max_size=3)))
    for got, want in ((z + x, util.lifted_sum(z, x)), (x + z, util.lifted_sum(x, z)),
                      (x - z, util.lifted_sum(x, -z)), (z - x, util.lifted_sum(z, -x))):
        assert got.den_map == x.den_map
        assert got == want
        # over the lifted sum's denominator the numerators agree term for term
        assert got._over(want.den_map).terms == want.num.terms


@pytest.mark.parametrize("rtype,fgl", [("A1", "hyperbolic"), ("A2", "connective")])
@given(data=st.data())
def test_a_truncated_zero_still_costs_its_denominator(rtype, fgl, data):
    # a SER zero vanishes only through O(p) over its denominator: the sum
    # carries that denominator, and with it the lower certified precision
    t = torus(rtype, "SER", fgl=fgl, precision=6)
    ring = t.ring
    pts = lattice_points(ring.nvars)
    b = data.draw(pts)
    x = Localized(t, ring.x_of(data.draw(pts)) + ring.one(),
                  data.draw(st.lists(pts.filter(lambda p: p != b), max_size=2)))
    z = Localized(t, ring.zero(), [b] + data.draw(st.lists(pts, max_size=2)))
    extra = sum(max(m - x.den_map.get(p, 0), 0) for p, m in z.den_map.items())
    assert extra >= 1
    for got, want in ((z + x, util.lifted_sum(z, x)), (x + z, util.lifted_sum(x, z)),
                      (x - z, util.lifted_sum(x, -z)), (z - x, util.lifted_sum(z, -x))):
        assert (got.num.terms, got.num.prec, got.den_map) == (
            want.num.terms, want.num.prec, want.den_map)
        assert len(got.den) == len(x.den) + extra
