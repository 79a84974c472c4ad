"""Folded-key Laurent arithmetic against sympy, lattice-degree truncation,
division by x_b against the general division and the old slice loop, and
the packed kernels against the tuple-keyed ones they replaced."""

from functools import lru_cache

import pytest
import sympy
from hypothesis import example, given, strategies as st

from fada import polyops
from fada.algebra import AlgebraElement, FormalRing
from fada.fgl import FormalGroupLaw
from fada.scalars import Scalar

import util

# two lattice slots and one parameter slot, as in a rank-two CON ring
X, Y, C = sympy.symbols("x y c")
NAMES = ("x", "y", "c")
CON2 = polyops.KeyCodec(2, 1)

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
    prod = polyops.pmul(CON2.pack_terms(p), CON2.pack_terms(q), None, CON2)
    got = to_sympy(CON2.unpack_terms(prod))
    assert sympy.expand(got - to_sympy(p) * to_sympy(q)) == 0


@given(laurent, nonzero)
def test_pdiv_exact_inverts_pmul(p, q):
    assert polyops.pdiv_exact(util.tuple_pmul(p, q), q) == p


@given(laurent, nonzero, st.one_of(st.just({}), nonzero))
def test_pdiv_exact_fails_exactly_on_a_remainder(p, q, r):
    num = polyops.padd(util.tuple_pmul(p, q), r)
    quo = polyops.pdiv_exact(num, q)
    assert (quo is not None) == sympy_divides(num, q)
    if quo is not None:
        assert util.tuple_pmul(quo, q) == num


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
    codec = ring.codec
    raw = polyops.pmul(codec.pack_terms(f.terms), codec.pack_terms(g.terms), 4, codec)
    assert codec.unpack_terms(raw) == prod.terms
    assert util.tuple_pmul(f.terms, g.terms)[(5, -3, 2)] == 1


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


# -- shapes of packed keys -----------------------------------------------------

SERIES, LAURENT = st.integers(0, 3), st.integers(-3, 3)


@st.composite
def key_shapes(draw, lattice=SERIES):
    """A codec of 1-3 lattice slots and 0-2 parameter slots, and a strategy
    for tuple-keyed terms on it: lattice exponents drawn from `lattice`
    (nonnegative for series, of either sign for Laurent keys), parameter
    exponents of either sign, empty dicts included."""
    nvars, nparams = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    keys = st.tuples(*[lattice] * nvars, *[st.integers(-3, 3)] * nparams)
    terms = st.dictionaries(keys, st.integers(-4, 4).filter(bool), max_size=6)
    return polyops.KeyCodec(nvars, nparams), terms


# -- division by a linear form -------------------------------------------------


def linear(form, width):
    """l = sum_i form[i] x_i as folded terms with `width` slots."""
    return {tuple(int(j == i) for j in range(width)): v
            for i, v in enumerate(form) if v}


def linear_div(num, form, width):
    """Division by l = sum_i form[i] x_i as ADD divides by x_b: through
    `polyops.series_div_exact` with no precision bound, on tuple-keyed terms
    of `width` slots, packed on the way in and unpacked on the way out."""
    codec = polyops.KeyCodec(len(form), width - len(form))
    got = polyops.series_div_exact(
        codec.pack_terms(num), polyops.SeriesDivisor(codec.pack_terms(linear(form, width)), codec),
        None)
    if got is None:
        return None
    quo, qprec = got
    assert qprec is None
    return codec.unpack_terms(quo)


@st.composite
def linear_divisions(draw):
    """A codec shape, a nonzero integer linear form on its lattice slots, and
    a numerator that is a multiple of the form, a multiple plus a remainder,
    anything, or empty, on Laurent keys."""
    codec, terms = draw(key_shapes(LAURENT))
    n, width = codec.nvars, len(codec.unpack(codec.offset))
    form = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)))
    f, r = draw(terms), draw(terms)
    num = draw(st.sampled_from([
        util.tuple_pmul(f, linear(form, width)),
        polyops.padd(util.tuple_pmul(f, linear(form, width)), r), f, {}]))
    return num, form, width


@given(linear_divisions())
@example(({(1, 2, 0): 2, (0, 3, 0): -3, (1, 0, 1): 2, (0, 1, 1): -3}, (2, -3), 3))
@example(({(2, 2, 0): 2, (1, 3, 0): -3, (3, 0, 0): 1}, (2, -3), 3))
@example(({(1, 1, 0): 3, (0, 2, 0): 1}, (0, -3), 3))
@example(({(0, -1): 2, (-1, 0): 1}, (2, 1), 2))
def test_linear_division_matches_tuples_and_pdiv_exact(case):
    num, form, width = case
    n = len(form)
    got = linear_div(num, form, width)
    assert got == util.tuple_pdiv_linear(num, form)
    laurent_quo = polyops.pdiv_exact(num, linear(form, width))
    if got is not None:
        assert got == laurent_quo
        assert util.tuple_pmul(got, linear(form, width)) == num
    if all(v >= 0 for e in num for v in e[:n]):
        # a polynomial numerator: the polynomial quotient, if there is one
        assert got == polyops.pdiv_exact(num, linear(form, width), n)


def test_linear_division_needs_a_quotient_over_z():
    # x - y = (2x - 2y) / 2 divides over Q only; 2x - 2y divides over Z
    num = {(1, 0): 1, (0, 1): -1}
    assert linear_div(num, (2, -2), 2) is None
    assert polyops.pdiv_exact(num, linear((2, -2), 2), 2) is None
    assert linear_div(polyops.pscale(num, 2), (2, -2), 2) == {(0, 0): 1}
    assert linear_div({}, (0, 1), 2) == {}
    # x^{-1} y + 1 is x^{-1} (x + y) in the Laurent ring, but the division
    # by x + y is polynomial in its pivot x
    assert linear_div({(-1, 1): 1, (0, 0): 1}, (1, 1), 2) is None
    assert polyops.pdiv_exact({(-1, 1): 1, (0, 0): 1}, linear((1, 1), 2)) == {(-1, 0): 1}
    with pytest.raises(ZeroDivisionError):
        linear_div(num, (0, 0), 2)


def slice_loop_div(num, den, prec, nvars):
    """Series division as it was before synthetic division: divide the lowest
    slice of the remainder by the lowest form of den with `pdiv_exact`, and
    subtract the slice times the whole of den, one lattice degree at a time."""
    dval = util.tuple_pvaluation(den, nvars)
    dlow = {e: c for e, c in den.items() if sum(e[:nvars]) == dval}
    qprec = prec - dval
    if qprec < 0:
        return ({}, -1)
    quo = {}
    rem = util.tuple_ptruncate(num, prec, nvars)
    while True:
        v = util.tuple_pvaluation(rem, nvars)
        if v is None or v - dval > qprec:
            break
        rlow = {e: c for e, c in rem.items() if sum(e[:nvars]) == v}
        qslice = polyops.pdiv_exact(rlow, dlow, nvars)
        if qslice is None:
            return None
        quo.update(qslice)
        rem = polyops.psub(rem, util.tuple_pmul(qslice, den, prec, nvars))
    return (quo, qprec)


def series_div(num, den, prec, nvars):
    """`polyops.series_div_exact` on tuple-keyed terms of `nvars` lattice
    slots, packed on the way in and unpacked on the way out."""
    codec = polyops.KeyCodec(nvars, len(next(iter(den or num))) - nvars)
    got = polyops.series_div_exact(
        codec.pack_terms(num), polyops.SeriesDivisor(codec.pack_terms(den), codec), prec)
    return got if got is None else (codec.unpack_terms(got[0]), got[1])


def tanh_law():
    """F = (x + y) / (1 + b*xy), a law with one parameter, to degree 10."""
    P = ("b",)
    coeffs, s = {}, Scalar.const(1, P)
    for k in range(5):
        coeffs[(k + 1, k)] = coeffs[(k, k + 1)] = s
        s = s * -Scalar.param("b", P)
    return FormalGroupLaw.custom(coeffs, 10, P)


LAWS = {"hyperbolic": FormalGroupLaw.hyperbolic(), "tanh": tanh_law()}
# lattice points b of x_b: the rank of the lattice and a few of its points
CASES = {
    "A1 small": (1, [(1,), (-1,), (2,), (-3,)]),
    "A2 small": (2, [(1, 0), (0, -1), (1, 1), (-1, -1), (2, -1)]),
    "A1 big": (2, [(1, 0), (-1, 1), (1, -2), (0, 1)]),
}


@lru_cache(maxsize=None)
def ser_ring(law, nvars, prec):
    return FormalRing("SER", nvars, LAWS[law], prec)


@st.composite
def series_divisions(draw):
    law = draw(st.sampled_from(sorted(LAWS)))
    nvars, points = CASES[draw(st.sampled_from(sorted(CASES)))]
    ring = ser_ring(law, nvars, draw(st.integers(4, 10)))
    den = ring.x_of(draw(st.sampled_from(points))).terms
    keys = st.tuples(*[st.integers(0, 3)] * nvars,
                     *[st.integers(-1, 2)] * len(ring.params))
    terms = st.dictionaries(keys, st.integers(-3, 3).filter(bool), min_size=1,
                            max_size=5)
    f = draw(terms)
    # products run two degrees past the ring's precision: division must
    # ignore every term beyond the precision it is given
    cut = ring.precision + 2
    num = {
        "x_b": util.tuple_pmul(f, den, cut, nvars),
        "x_b^2": util.tuple_pmul(util.tuple_pmul(f, den, cut, nvars), den, cut, nvars),
        "x_b + r": polyops.padd(util.tuple_pmul(f, den, cut, nvars), draw(terms)),
        "any": f,
    }[draw(st.sampled_from(["x_b", "x_b^2", "x_b + r", "any"]))]
    # shrinks towards the full precision, where the higher layers of x_b act
    prec = ring.precision - draw(st.integers(0, ring.precision))
    return num, den, prec, nvars


@given(series_divisions())
def test_series_div_exact_matches_the_slice_loop(case):
    num, den, prec, nvars = case
    got = series_div(num, den, prec, nvars)
    assert got == slice_loop_div(num, den, prec, nvars)
    if got is not None and got[1] >= 0:
        # divide the quotient again, as `FormalRing.divide` does for x_b^m
        quo, qprec = got
        again = series_div(quo, den, qprec, nvars)
        assert again == slice_loop_div(quo, den, qprec, nvars)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_series_div_exact_recovers_every_multiple_of_x_b(law, case):
    nvars, points = CASES[case]
    ring = ser_ring(law, nvars, 8)

    def mono(lattice, param=0):
        return tuple(lattice) + (param,) + (0,) * (len(ring.params) - 1)

    # 1 + 2 x_1 - p x_1...x_n + 5 x_n^3, p the law's first parameter
    last = [0] * (nvars - 1)
    f = {mono([0] * nvars): 1, mono([1] + last): 2, mono([1] * nvars, 1): -1,
         mono(last + [3]): 5}
    for b in points:
        den = ring.x_of(b).terms
        num = util.tuple_pmul(f, den, 8, nvars)
        quo, qprec = series_div(num, den, 8, nvars)
        assert (quo, qprec) == slice_loop_div(num, den, 8, nvars)
        assert qprec == 7 and quo == util.tuple_ptruncate(f, 7, nvars)


def test_series_div_exact_below_the_divisor_valuation_certifies_nothing():
    den = ser_ring("hyperbolic", 2, 6).x_of((1, -1)).terms
    num = util.tuple_pmul({(1, 0, 0, 0): 1}, den, 6, 2)
    assert series_div(num, den, 0, 2) == ({}, -1)
    assert slice_loop_div(num, den, 0, 2) == ({}, -1)
    # at precision 1 the multiple of degree 2 is invisible: zero through O(1)
    assert series_div(num, den, 1, 2) == ({}, 0)
    assert slice_loop_div(num, den, 1, 2) == ({}, 0)


def test_series_div_exact_needs_a_linear_lowest_form():
    with pytest.raises(ZeroDivisionError):
        series_div({(1,): 1}, {}, 4, 1)
    for den in ({(0,): 1, (1,): 1}, {(2,): 1}, {(1, 1): 1}):
        with pytest.raises(ValueError):
            series_div({(3,) + (0,) * (len(next(iter(den))) - 1): 1}, den, 4, 1)


# -- packed kernels against the tuple-keyed ones -------------------------------


@given(key_shapes(LAURENT), st.data())
def test_pack_round_trip_orders_by_lattice_degree(shape, data):
    codec, series = shape
    t = data.draw(series)
    packed = codec.pack_terms(t)
    assert codec.unpack_terms(packed) == t
    n = codec.nvars
    for e1, k1 in zip(t, packed):
        assert k1 >> codec.shift == sum(e1[:n])
        for e2, k2 in zip(t, packed):
            # a key sum less the offset is the monomial product
            assert k1 + k2 - codec.offset == codec.pack(tuple(map(sum, zip(e1, e2))))
            if sum(e1[:n]) < sum(e2[:n]):
                assert k1 < k2


def test_out_of_range_exponents_raise():
    codec = polyops.KeyCodec(2, 1)
    top, low = 2 ** (polyops.DIGIT - 2) - 1, -2 ** (polyops.DIGIT - 2)
    # every slot, lattice slots included, takes exponents in [low, top]
    for i in range(3):
        for v in (top, low):
            e = tuple(v if j == i else 0 for j in range(3))
            assert codec.unpack(codec.pack(e)) == e
            with pytest.raises(ValueError):
                codec.pack(tuple(v + (1 if v > 0 else -1) if j == i else 0 for j in range(3)))
    with pytest.raises(ValueError):
        codec.pack((1, 0))
    # products that leave the range raise instead of carrying into the next
    # digit: exact ones in any slot, cut ones in a parameter slot
    for i in range(3):
        for v in (top, low):
            mono = codec.pack_terms({tuple(v if j == i else 0 for j in range(3)): 1})
            with pytest.raises(ValueError):
                polyops.pmul(mono, mono, None, codec)
    for v in (top, low):
        mono = codec.pack_terms({(1, 0, v): 1})
        with pytest.raises(ValueError):
            polyops.pmul(mono, mono, 4, codec)
    # a bound below 2**30 keeps every lattice exponent of a series term valid
    assert codec.limit(top) == (top + 1) << codec.shift
    with pytest.raises(ValueError):
        codec.limit(top + 1)


@given(key_shapes(LAURENT), st.data())
def test_packed_exact_product_matches_tuples(shape, data):
    codec, terms = shape
    a, b = data.draw(terms), data.draw(terms)
    # packed keys, degree digit included, not only the exponents they decode to
    got = polyops.pmul(codec.pack_terms(a), codec.pack_terms(b), None, codec)
    assert got == codec.pack_terms(util.tuple_pmul(a, b))


@given(key_shapes(), st.data(), st.integers(0, 8))
def test_packed_product_truncation_and_valuation_match_tuples(shape, data, trunc):
    codec, series = shape
    a, b = data.draw(series), data.draw(series)
    n = codec.nvars
    pa, pb = codec.pack_terms(a), codec.pack_terms(b)
    assert codec.unpack_terms(polyops.pmul(pa, pb, trunc, codec)) == util.tuple_pmul(a, b, trunc, n)
    assert codec.unpack_terms(polyops.ptruncate(pa, trunc, codec)) == util.tuple_ptruncate(a, trunc, n)
    assert polyops.pvaluation(pa, codec) == util.tuple_pvaluation(a, n)


@given(key_shapes(), st.data(), st.integers(0, 6))
def test_packed_substitution_matches_tuples(shape, data, trunc):
    codec, series = shape
    a = data.draw(series)
    images = [data.draw(series) for _ in range(codec.nvars)]
    got = polyops.psubstitute(codec.pack_terms(a), [codec.pack_terms(i) for i in images],
                              trunc, codec)
    assert codec.unpack_terms(got) == util.tuple_psubstitute(a, images, trunc)
    # the exact route, as on ADD, is the same homomorphism untruncated
    got = polyops.psubstitute(codec.pack_terms(a), [codec.pack_terms(i) for i in images],
                              None, codec)
    assert codec.unpack_terms(got) == util.tuple_psubstitute(a, images)


@st.composite
def ser_divisions(draw):
    """A divisor with an integer linear lowest form and random higher layers,
    and a numerator that is a multiple of it, a multiple plus a remainder,
    anything, or empty."""
    codec, series = draw(key_shapes())
    n, width = codec.nvars, len(codec.unpack(codec.offset))
    form = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    den = {tuple(int(j == i) for j in range(width)): v for i, v in enumerate(form) if v}
    for e, c in draw(series).items():
        if sum(e[:n]) >= 2:
            den[e] = c
    f, r = draw(series), draw(series)
    cut = draw(st.integers(0, 8))
    num = draw(st.sampled_from([
        util.tuple_pmul(f, den, cut, n),
        polyops.padd(util.tuple_pmul(f, den, cut, n), r), f, {}]))
    return codec, num, den, draw(st.integers(0, 8))


@given(ser_divisions())
@example((polyops.KeyCodec(1, 1), {(1, 0): 1}, {(1, 0): 2}, 3))
@example((polyops.KeyCodec(2, 0), {(0, 0): 1}, {(1, 0): 1}, 3))
@example((polyops.KeyCodec(1, 1), {}, {(1, 0): 1, (2, -1): 3}, 0))
def test_packed_series_division_matches_tuples(case):
    codec, num, den, prec = case
    want = util.tuple_series_div_exact(num, den, prec, codec.nvars)
    got = polyops.series_div_exact(
        codec.pack_terms(num), polyops.SeriesDivisor(codec.pack_terms(den), codec), prec)
    assert (got is None) == (want is None)
    if got is not None:
        quo, qprec = got
        assert (codec.unpack_terms(quo), qprec) == want
