"""Folded-key Laurent arithmetic against sympy, and lattice-degree truncation."""

import sympy
from hypothesis import given, strategies as st

from fada import polyops
from fada.algebra import AlgebraElement
from fada.scalars import Scalar

import util

# two lattice slots and one parameter slot, as in a rank-two CON ring
X, Y, C = sympy.symbols("x y c")
NAMES = ("x", "y", "c")

keys = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
laurent = st.dictionaries(keys, st.integers(-4, 4).filter(bool), max_size=4)
nonzero = laurent.filter(bool)


def to_sympy(terms):
    return sum((c * X ** a * Y ** b * C ** p for (a, b, p), c in terms.items()),
               sympy.Integer(0))


def sympy_divides(num, den):
    """Whether num / den is a Laurent polynomial over Z."""
    # as_numer_denom, not fraction: fraction leaves c/2 + 1/2 over 1
    _, d = sympy.cancel(to_sympy(num) / to_sympy(den)).as_numer_denom()
    d = sympy.Poly(d, X, Y, C)
    return len(d.terms()) == 1 and abs(d.LC()) == 1


@given(laurent, laurent)
def test_pmul_matches_sympy(p, q):
    got = to_sympy(polyops.pmul(p, q))
    assert sympy.expand(got - to_sympy(p) * to_sympy(q)) == 0


@given(laurent, nonzero)
def test_pdiv_exact_inverts_pmul(p, q):
    assert polyops.pdiv_exact(polyops.pmul(p, q), q) == p


@given(laurent, nonzero, st.one_of(st.just({}), nonzero))
def test_pdiv_exact_fails_exactly_on_a_remainder(p, q, r):
    num = polyops.padd(polyops.pmul(p, q), r)
    quo = polyops.pdiv_exact(num, q)
    assert (quo is not None) == sympy_divides(num, q)
    if quo is not None:
        assert polyops.pmul(quo, q) == num


@given(laurent, nonzero, st.one_of(st.just({}), nonzero))
def test_scalar_exact_div_matches_sympy(p, q, r):
    num = Scalar(NAMES, p) * Scalar(NAMES, q) + Scalar(NAMES, r)
    den = Scalar(NAMES, q)
    quo = num.exact_div(den)
    assert (quo is not None) == sympy_divides(num.terms, den.terms)
    if quo is not None:
        assert quo * den == num


def test_series_product_truncates_by_lattice_degree_only():
    # a fold that cut by the degree of the whole key would drop the first
    # kept term (parameter degree 8) and keep the dropped one (c^-3 a^2)
    ring = util.algebra("A1", "SER", fgl="hyperbolic", precision=4).torus.ring
    P = ring.params
    c = Scalar.param("c", P)
    a = Scalar.param("a", P)
    f = ring.element({(2,): c ** 3 * a ** 2})
    g = ring.element({(2,): c ** 2 * a + 1, (3,): c ** -6})
    prod = f * g
    assert prod.prec == 4
    assert prod.coefficient((4,)) == c ** 5 * a ** 3 + c ** 3 * a ** 2
    assert prod.coefficient((5,)).is_zero()
    assert all(e[0] <= 4 for e in prod.terms)
    raw = polyops.pmul(f.terms, g.terms, 4, ring.nvars)
    assert raw == prod.terms
    assert polyops.pmul(f.terms, g.terms)[(5, -3, 2)] == 1


def test_series_terms_from_outside_are_truncated():
    # products arrive cut by pmul; terms handed to the constructor do not
    ring = util.algebra("A1", "SER", fgl="hyperbolic", precision=4).torus.ring
    zero = (0,) * len(ring.params)
    terms = {(3,) + zero: 2, (4,) + zero: 5, (5,) + zero: 7, (9,) + zero: 1}
    for prec in (None, 4, 3):
        f = AlgebraElement(ring, dict(terms), prec)
        cut = ring.precision if prec is None else prec
        assert f.prec == cut
        assert f.terms == {e: c for e, c in terms.items() if e[0] <= cut}
    assert ring.element({(5,): 1}).is_zero()
