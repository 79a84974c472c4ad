"""Formal group laws, their action on folded term dicts, and SER series."""

import pytest
from hypothesis import given, strategies as st

from fada import polyops
from fada.algebra import AlgebraElement, FormalRing
from fada.errors import ConfigError, PrecisionError
from fada.fgl import FormalGroupLaw, from_descriptor
from fada.scalars import Scalar


def var(i, nvars, params=()):
    """The i-th variable as a folded term dict over `params`."""
    return {tuple(int(j == i) for j in range(nvars + len(params))): 1}


def add(law, p, q, prec, nvars):
    """law.add on tuple-keyed terms in `nvars` variables: packed on the way
    in, unpacked on the way out."""
    codec = polyops.KeyCodec(nvars, len(law.params))
    return codec.unpack_terms(law.add(codec.pack_terms(p), codec.pack_terms(q), prec, codec))


def inverse(law, p, prec, nvars):
    """law.inverse on tuple-keyed terms in `nvars` variables."""
    codec = polyops.KeyCodec(nvars, len(law.params))
    return codec.unpack_terms(law.inverse(codec.pack_terms(p), prec, codec))


def coeff(terms, e, params=()):
    """The Scalar coefficient of the variable monomial e in a folded dict."""
    n = len(e)
    return Scalar(params, {k[n:]: c for k, c in terms.items() if k[:n] == e})


def ser_x(prec=8, nvars=1):
    """x_1 as a SER element of precision `prec` under the additive law."""
    ring = FormalRing("SER", nvars, fgl=FormalGroupLaw.additive(), precision=8)
    return AlgebraElement(ring, var(0, nvars), prec)


# -- SER series basics ------------------------------------------------------


def test_series_arithmetic_and_precision_join():
    x = ser_x(prec=8)
    y = AlgebraElement(x.ring, var(0, 1), 3)
    s = x + y
    assert s.prec == 3
    p = x * x
    assert p.coefficient((2,)) == 1
    assert (x - x).is_zero()
    codec = x.ring.codec
    assert polyops.pvaluation(codec.pack_terms(x.ring.zero().terms), codec) is None
    assert polyops.pvaluation(codec.pack_terms((x * x * x).terms), codec) == 3


def test_series_eq_truncates():
    x = ser_x(prec=8)
    lo = AlgebraElement(x.ring, var(0, 1), 2)
    assert lo == x + x * x * x  # cube is beyond the common precision
    assert not (x == x + x * x)


def test_series_const_and_mismatch():
    c = AlgebraElement(ser_x().ring, {(0,): 7}, 6)
    assert c.coefficient((0,)) == 7
    with pytest.raises(ConfigError):
        ser_x(prec=4) + ser_x(prec=4, nvars=2)


# -- coefficient tables -----------------------------------------------------


def test_builtin_tables():
    add = FormalGroupLaw.additive().table(4)
    assert add == {(1, 0): Scalar.const(1), (0, 1): Scalar.const(1)}

    mul = FormalGroupLaw.multiplicative().table(4)
    assert mul[(1, 1)] == Scalar.const(-1)
    assert set(mul) == {(1, 0), (0, 1), (1, 1)}

    con = FormalGroupLaw.connective().table(4)
    assert con[(1, 1)] == -Scalar.param("c", ("c",))
    assert set(con) == {(1, 0), (0, 1), (1, 1)}

    # each table is x + y - c xy for the c the law carries
    for law in (FormalGroupLaw.additive(), FormalGroupLaw.multiplicative(),
                FormalGroupLaw.connective()):
        assert law.table(4).get((1, 1), Scalar.const(0, law.params)) == -law.c
    assert FormalGroupLaw.hyperbolic().c is None


def test_hyperbolic_table_matches_geometric_expansion():
    # (x + y - cxy) / (1 + axy) = sum_k (-a)^k (xy)^k (x + y - cxy), so the
    # only nonzero entries sit at (k+1, k), (k, k+1) and (k+1, k+1)
    P = ("c", "a")
    c = Scalar.param("c", P)
    a = Scalar.param("a", P)
    one = Scalar.const(1, P)
    expected = {}
    for k in range(4):
        s = (-a) ** k
        expected[(k + 1, k)] = s * one
        expected[(k, k + 1)] = s * one
        expected[(k + 1, k + 1)] = -(s * c)
    expected = {e: v for e, v in expected.items() if sum(e) <= 6}
    got = FormalGroupLaw.hyperbolic().table(6)
    assert got == expected


def test_table_beyond_custom_degree_raises():
    P = ("c",)
    coeffs = FormalGroupLaw.connective().table(3)
    law = FormalGroupLaw.custom(coeffs, 3, P)
    assert law.table(3) == coeffs
    with pytest.raises(PrecisionError):
        law.table(4)
    with pytest.raises(PrecisionError):
        add(law, var(0, 2, P), var(1, 2, P), 4, 2)


def test_precision_hints_stop_where_a_custom_table_stops():
    law = FormalGroupLaw.custom(FormalGroupLaw.connective().table(3), 3, ("c",))
    assert law.precision_hint(3) == (
        "rerun with precision >= 3; the custom law's coefficients stop at degree 3")
    assert law.precision_hint(4) == (
        "the custom law's coefficients stop at degree 3; give them to degree 4")
    assert FormalGroupLaw.hyperbolic().precision_hint(9) == "rerun with precision >= 9"
    with pytest.raises(PrecisionError, match="stop at degree 3; give them to degree 4"):
        law.table(4)


def test_inverse_builds_the_hyperbolic_table_once(monkeypatch):
    builds = []
    build = FormalGroupLaw._hyperbolic_table

    def counted(self, degree):
        builds.append(degree)
        return build(self, degree)

    monkeypatch.setattr(FormalGroupLaw, "_hyperbolic_table", counted)
    law = FormalGroupLaw.hyperbolic()
    inverse(law, var(0, 1, law.params), 12, 1)
    assert builds == [12]
    # each cut of the one table is the table a fresh law builds to that degree
    for d in range(1, 13):
        assert law.table(d) == FormalGroupLaw.hyperbolic().table(d), d
    assert builds == [12] + list(range(1, 13))


# -- the group operation ----------------------------------------------------


@pytest.mark.parametrize("law", [
    FormalGroupLaw.additive(),
    FormalGroupLaw.multiplicative(),
    FormalGroupLaw.connective(),
    FormalGroupLaw.hyperbolic(),
])
def test_validate_builtins(law):
    law.validate(6)


def test_validate_rejects_broken_laws():
    P = ()
    one = Scalar.const(1, P)
    # not symmetric
    bad = {(1, 0): one, (0, 1): one, (2, 1): one}
    with pytest.raises(ConfigError):
        FormalGroupLaw.custom(bad, 4, P).validate(4)
    # x + y + x^2 y^2 breaks associativity
    bad2 = {(1, 0): one, (0, 1): one, (2, 2): one}
    with pytest.raises(ConfigError):
        FormalGroupLaw.custom(bad2, 5, P).validate(5)
    # unit axiom failure
    bad3 = {(1, 0): one, (0, 1): one, (2, 0): one, (0, 2): one}
    with pytest.raises(ConfigError):
        FormalGroupLaw.custom(bad3, 4, P).validate(4)


def test_add_matches_closed_forms():
    P = ("c",)
    c = Scalar.param("c", P)
    law = FormalGroupLaw.connective()
    s = add(law, var(0, 2, P), var(1, 2, P), 6, 2)
    assert coeff(s, (1, 0), P) == 1
    assert coeff(s, (0, 1), P) == 1
    assert coeff(s, (1, 1), P) == -c
    assert coeff(s, (2, 1), P).is_zero()


def test_formal_inverse_per_law():
    x = var(0, 1)
    assert inverse(FormalGroupLaw.additive(), x, 6, 1) == polyops.pneg(x)

    # multiplicative: i(x) = -x - x^2 - x^3 - ...
    minv = inverse(FormalGroupLaw.multiplicative(), x, 6, 1)
    for k in range(1, 7):
        assert coeff(minv, (k,)) == -1

    P = ("c",)
    c = Scalar.param("c", P)
    cinv = inverse(FormalGroupLaw.connective(), var(0, 1, P), 6, 1)
    for k in range(1, 7):
        assert coeff(cinv, (k,), P) == -(c ** (k - 1))

    # the hyperbolic inverse agrees with the connective one: the denominator
    # 1 + a x i(x) contributes nothing because x + i(x) - c x i(x) must vanish
    PH = ("c", "a")
    ch = Scalar.param("c", PH)
    hinv = inverse(FormalGroupLaw.hyperbolic(), var(0, 1, PH), 6, 1)
    for k in range(1, 7):
        assert coeff(hinv, (k,), PH) == -(ch ** (k - 1))


@pytest.mark.parametrize("law", [
    FormalGroupLaw.multiplicative(),
    FormalGroupLaw.connective(),
    FormalGroupLaw.hyperbolic(),
])
def test_inverse_is_two_sided(law):
    x = var(0, 1, law.params)
    assert add(law, x, inverse(law, x, 7, 1), 7, 1) == {}
    assert add(law, inverse(law, x, 7, 1), x, 7, 1) == {}


def fixed_point_inverse(law, p, prec, nvars):
    """The formal inverse by the fixed-point loop with one full-precision add
    per step, an oracle for `FormalGroupLaw.inverse`."""
    cur = polyops.pneg(p)
    while True:
        err = add(law, p, cur, prec, nvars)
        if not err:
            return cur
        cur = polyops.psub(cur, err)


INVERSE_LAWS = [
    FormalGroupLaw.additive(),
    FormalGroupLaw.multiplicative(),
    FormalGroupLaw.connective(),
    FormalGroupLaw.hyperbolic(),
    FormalGroupLaw.custom({(1, 0): Scalar.const(1, ("b",)),
                           (0, 1): Scalar.const(1, ("b",)),
                           (1, 1): Scalar.param("b", ("b",)) * 2}, 12, ("b",)),
]


@st.composite
def inverse_cases(draw):
    law = draw(st.sampled_from(INVERSE_LAWS))
    nvars = draw(st.integers(1, 3))
    prec = draw(st.integers(1, 12))
    term = st.tuples(
        st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(any),
        st.lists(st.integers(0, 2), min_size=len(law.params),
                 max_size=len(law.params)),
        st.sampled_from([-3, -2, -1, 1, 2, 3]))
    p = {}
    for e, f, k in draw(st.lists(term, min_size=1, max_size=3)):
        p = polyops.padd(p, {tuple(e + f): k})
    return law, nvars, prec, p


@given(inverse_cases())
def test_inverse_matches_the_fixed_point_loop(case):
    law, nvars, prec, p = case
    inv = inverse(law, p, prec, nvars)
    assert inv == fixed_point_inverse(law, p, prec, nvars)
    assert add(law, p, inv, prec, nvars) == {}


def repeated_sum(law, p, n, prec, nvars):
    """[n](p) as the n-fold formal sum of p, or of its inverse for n < 0, an
    oracle for the cached multiples of `FormalRing`."""
    if n < 0:
        p, n = inverse(law, p, prec, nvars), -n
    acc = {}
    for _ in range(n):
        acc = add(law, acc, p, prec, nvars) if acc else p
    return acc


def test_multiple():
    P = ("c",)
    c = Scalar.param("c", P)
    law = FormalGroupLaw.connective()
    ring = FormalRing("SER", 1, law, 6)
    x = var(0, 1, P)
    two = ring.x_of((2,)).terms
    assert coeff(two, (1,), P) == 2
    assert coeff(two, (2,), P) == -c
    assert coeff(two, (3,), P).is_zero()
    assert ring.x_of((0,)).terms == {}
    assert ring.x_of((-1,)).terms == inverse(law, x, 6, 1)
    assert ring.x_of((3,)).terms == add(law, x, two, 6, 1)

    # multiplicative [3](x) = 1 - (1-x)^3
    three = FormalRing("SER", 1, FormalGroupLaw.multiplicative(), 6).x_of((3,)).terms
    assert coeff(three, (1,)) == 3
    assert coeff(three, (2,)) == -3
    assert coeff(three, (3,)) == 1
    assert coeff(three, (4,)).is_zero()


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "connective",
                                  "hyperbolic"])
@pytest.mark.parametrize("prec", [3, 6, 9])
def test_formal_multiples_match_repeated_sums(kind, prec):
    law = from_descriptor({"kind": kind})
    ring = FormalRing("SER", 1, law, prec)
    x = var(0, 1, law.params)
    for k in (1, -1, 2, -2, 3, -3, 4, -4):
        assert ring.x_of((k,)).terms == repeated_sum(law, x, k, prec, 1), k


def test_add_rejects_constant_terms():
    law = FormalGroupLaw.additive()
    x = var(0, 1)
    bad = polyops.padd(x, {(0,): 1})
    with pytest.raises(ValueError):
        add(law, bad, x, 5, 1)


def test_add_rejects_precision_below_one():
    x = var(0, 1)
    with pytest.raises(PrecisionError):
        add(FormalGroupLaw.additive(), x, x, 0, 1)


# -- descriptors ------------------------------------------------------------


def test_from_descriptor_builtins():
    assert from_descriptor({"kind": "connective"}).kind == "connective"
    assert from_descriptor({"kind": "hyperbolic"}).params == ("c", "a")
    with pytest.raises(ConfigError):
        from_descriptor({"kind": "elliptic"})
    with pytest.raises(ConfigError):
        from_descriptor({"no": "kind"})


def test_from_descriptor_custom_roundtrip():
    desc = {
        "kind": "custom",
        "params": ["b"],
        "degree": 4,
        "coeffs": [[1, 0, "1"], [0, 1, "1"], [1, 1, "2b"]],
    }
    law = from_descriptor(desc)
    law.validate(4)
    tab = law.table(4)
    assert tab[(1, 1)] == Scalar.param("b", ("b",)) * 2
    with pytest.raises(ConfigError):
        from_descriptor({"kind": "custom", "params": [], "degree": 3,
                         "coeffs": [[1, 0, "1"], [0, 1, "not_a_param"]]})


def test_from_descriptor_reads_signs_as_arithmetic():
    # "b*-1" is b - 1 by no reading, though x + y + (b - 1)xy is a law too
    desc = {"kind": "custom", "params": ["b"], "degree": 4,
            "coeffs": [[1, 0, "1"], [0, 1, "1"], [1, 1, "b*-1"]]}
    assert from_descriptor(desc).table(4)[(1, 1)] == -Scalar.param("b", ("b",))


@pytest.mark.parametrize("params", ["ab", ["b", "b"], ["1b"], ["b c"], ["lambda"], [3],
                                    {"b": 1}, [["b"]]])
def test_from_descriptor_refuses_bad_params(params):
    with pytest.raises(ConfigError, match="params must be a list of distinct identifiers"):
        from_descriptor({"kind": "custom", "params": params, "degree": 2,
                         "coeffs": [[1, 0, "1"], [0, 1, "1"]]})


def test_formal_multiples_are_built_once_per_ring(monkeypatch):
    law = FormalGroupLaw.hyperbolic()
    prec, n = 10, 2
    mus = [(-1, 0), (0, -1), (-1, -1), (2, -1)]
    want = {}
    for mu in mus:
        acc = None
        for i, k in enumerate(mu):
            if k:
                part = repeated_sum(law, var(i, n, law.params), k, prec, n)
                acc = part if acc is None else add(law, acc, part, prec, n)
        want[mu] = acc
    calls = []
    original = FormalGroupLaw.inverse

    def counted(self, p, prec, codec):
        calls.append(codec.unpack_terms(p))
        return original(self, p, prec, codec)

    monkeypatch.setattr(FormalGroupLaw, "inverse", counted)
    ring = FormalRing("SER", n, law, prec)
    for mu in mus:
        assert ring.x_of(mu).terms == want[mu]
    # x_{(-1,-1)} and x_{(2,-1)} reuse the inverses built for the first two
    assert calls == [var(0, n, law.params), var(1, n, law.params)]
