"""Exact Laurent-polynomial scalars."""

import pytest
import sympy
from hypothesis import given, strategies as st

from fada.scalars import Scalar

P = ("c", "a")


def sc(terms):
    return Scalar(P, terms)


def c_pow(k, coeff=1):
    return sc({(k, 0): coeff})


exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
scalars = st.dictionaries(exponents, st.integers(-5, 5), max_size=4).map(sc)


def test_zero_terms_dropped():
    s = sc({(1, 0): 0, (0, 1): 2})
    assert s.terms == {(0, 1): 2}
    assert Scalar.const(0, P).is_zero()
    assert not Scalar.const(3, P).is_zero()


def test_one_and_units():
    assert Scalar.const(1, P) == 1
    assert not Scalar.const(-1, P) == 1


def test_param_constructor():
    c = Scalar.param("c", P)
    a = Scalar.param("a", P)
    assert c.terms == {(1, 0): 1}
    assert a.terms == {(0, 1): 1}
    with pytest.raises(ValueError):
        Scalar.param("b", P)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + 0 == x
    assert x * 1 == x
    assert x * 0 == Scalar.const(0, P)


def test_int_coercion_both_sides():
    c = Scalar.param("c", P)
    assert 1 + c == c + 1
    assert 2 - c == -(c - 2)
    assert 3 * c == c * 3


def test_param_mismatch_rejected():
    c = Scalar.param("c", ("c",))
    with pytest.raises(ValueError):
        c + Scalar.param("a", P)


def test_pow():
    c = Scalar.param("c", P)
    assert c ** 0 == 1
    assert c ** 3 == c_pow(3)
    assert (c ** -2) == c_pow(-2)
    two_c = c * 2
    with pytest.raises(ValueError):
        two_c ** -1


def test_inverse():
    assert c_pow(1).inverse() == c_pow(-1)
    assert c_pow(-2, -1).inverse() == c_pow(2, -1)
    with pytest.raises(ValueError):
        (c_pow(1) + 1).inverse()
    with pytest.raises(ValueError):
        c_pow(1, 2).inverse()
    with pytest.raises(ValueError):
        Scalar.const(0, P).inverse()


def test_exact_div_basic():
    c = Scalar.param("c", P)
    assert (c * c - 1).exact_div(c - 1) == c + 1
    assert (c * c + 1).exact_div(c + 1) is None
    assert (c * 2).exact_div(2) == c
    assert (c * 2).exact_div(c * 4) is None


def test_exact_div_laurent_shift():
    # quotients may live at negative exponents; the two operands are shifted
    # independently, so a unit denominator never blocks the division
    assert c_pow(-2, -1).exact_div(c_pow(-1, -1)) == c_pow(-1)
    assert c_pow(0).exact_div(c_pow(-1)) == c_pow(1)
    mixed = c_pow(-1) + c_pow(0)
    assert mixed.exact_div(c_pow(-1)) == c_pow(0) + c_pow(1)


def test_exact_div_zero_cases():
    c = Scalar.param("c", P)
    assert Scalar.const(0, P).exact_div(c) == Scalar.const(0, P)
    with pytest.raises(ZeroDivisionError):
        c.exact_div(0)


@given(scalars, scalars)
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        return
    q = (f * g).exact_div(g)
    assert q is not None and q == f


def test_substitute_drops_parameter():
    c = Scalar.param("c", P)
    a = Scalar.param("a", P)
    s = c * a + c * c
    out = s.substitute({"c": 1})
    assert out.params == ("a",)
    assert out == Scalar.param("a", ("a",)) + 1


def test_substitute_sign():
    s = c_pow(3) + c_pow(2, 2)
    assert s.substitute({"c": -1}) == Scalar.const(1, ("a",))


def test_substitute_negative_exponent_guard():
    s = c_pow(-1)
    assert s.substitute({"c": 1}) == Scalar.const(1, ("a",))
    assert s.substitute({"c": -1}) == Scalar.const(-1, ("a",))
    with pytest.raises(ZeroDivisionError):
        s.substitute({"c": 0})
    with pytest.raises(ZeroDivisionError):
        s.substitute({"c": 2})


@given(scalars)
def test_str_parse_roundtrip(s):
    assert Scalar.parse(str(s), P) == s


def test_parse_fixed_forms():
    assert Scalar.parse("3c^2*a - a", P) == sc({(2, 1): 3, (0, 1): -1})
    assert Scalar.parse("0", P).is_zero()
    assert Scalar.parse("-c", P) == -Scalar.param("c", P)
    assert Scalar.parse("2 a + 70", P) == sc({(0, 1): 2, (0, 0): 70})
    assert Scalar.parse(" c^-2 *\ta\n- c^+1 ", P) == sc({(-2, 1): 1, (1, 0): -1})


def test_parse_reads_every_sign_as_arithmetic():
    c, a = Scalar.param("c", P), Scalar.param("a", P)
    cases = {"c*-1": -c, "c - -1": c + 1, "--c": c, "c*+2": 2 * c,
             "-1*-a": a, "1 - -a": 1 + a, "c^--2": c * c, "-+-c^-1 * -a": -a * c ** -1}
    for text, value in cases.items():
        assert Scalar.parse(text, P) == value, text


@pytest.mark.parametrize("text", [
    "q + 1", "c +", "c c", "1 2", "c 2", "(c + 1)", "c^2^3", "2^c", "c^a", "c/2",
    "c and a", "not c", "True", "c^True", "0x1f", "007", "c\u00b2", "-" * 5000 + "c",
    "+".join(["c"] * 3000)], ids=lambda t: t if len(t) < 20 else "%d chars" % len(t))
def test_parse_refuses_what_the_grammar_does_not_hold(text):
    with pytest.raises(ValueError):
        Scalar.parse(text, P)


SYMBOLS = {p: sympy.Symbol(p) for p in P}


@st.composite
def expressions(draw):
    """A sum of products of signed atoms over P, as (text, sympy value): the
    atoms are integers, parameters, powers p^k with a sign or none on k, and
    an integer written before a parameter or a power."""
    def atom():
        kind = draw(st.sampled_from(["int", "name", "power", "scaled"]))
        if kind == "int":
            n = draw(st.integers(0, 12))
            return str(n), sympy.Integer(n)
        p = draw(st.sampled_from(P))
        text, value = p, SYMBOLS[p]
        if kind == "power" or (kind == "scaled" and draw(st.booleans())):
            sign, k = draw(st.sampled_from(["", "+", "-"])), draw(st.integers(0, 3))
            text, value = "%s^%s%d" % (p, sign, k), value ** (-k if sign == "-" else k)
        if kind == "scaled":
            n = draw(st.integers(0, 12))
            text, value = "%d%s%s" % (n, draw(st.sampled_from(["", " "])), text), n * value
        return text, value

    def factor():
        signs = draw(st.text("+-", max_size=3))
        text, value = atom()
        return signs + text, value * (-1) ** signs.count("-")

    def term():
        factors = [factor() for _ in range(draw(st.integers(1, 3)))]
        return "*".join(t for t, _ in factors), sympy.Mul(*(v for _, v in factors))

    text, value = term()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-"))
        t, v = term()
        text += draw(st.sampled_from(["%s", " %s ", "%s "])) % op + t
        value = value + v if op == "+" else value - v
    return text, value


def to_sympy(s):
    return sum((c * sympy.Mul(*(SYMBOLS[p] ** k for p, k in zip(P, e)))
                for e, c in s.terms.items()), sympy.Integer(0))


@given(expressions())
def test_parse_agrees_with_sympy(expression):
    text, value = expression
    assert sympy.expand(value - to_sympy(Scalar.parse(text, P))) == 0, text


def test_hashable():
    d = {c_pow(1): "x", c_pow(1) + 1: "y"}
    assert d[Scalar.param("c", P)] == "x"


def test_constants_hash_as_their_ints():
    for params in ((), ("c",)):
        for n in (0, 3, -2):
            const = Scalar.const(n, params)
            assert const == n and hash(const) == hash(n)
            assert n in {const} and const in {n}
            assert {n: "int"}[const] == "int" and {const: "scalar"}[n] == "scalar"
    # each constant scalar equals its int, so a mixed set keeps one per value
    mixed = {3, Scalar.const(3, ()), Scalar.const(3, ("c",)), Scalar.const(0, ("c",)), 0}
    assert len(mixed) == 2
    assert Scalar.param("c", ("c",)) not in {1, 0}
