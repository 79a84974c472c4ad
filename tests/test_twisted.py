"""The twisted group algebra, Demazure elements and the eta/X tables."""

import sys

import pytest

from fada import connective, twisted
from fada.algebra import AlgebraElement, FormalRing, Localized, TorusAlgebra
from fada.cli import loc_json
from fada.errors import (ConfigError, MembershipError, NotApplicableError,
                         PrecisionError, UnsupportedTheoryError, WindowExceededError)
from fada.scalars import Scalar
from fada.twisted import (ExpansionTables, TwistedAlgebra, back_substitute,
                          braid_check, combine_rows, demazure_walk)

import util

BACKENDS = ("ADD", "MUL", "CON")


def rank_one(backend):
    return util.algebra("A1", backend, "small")


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("i", [0, 1])
def test_demazure_generator_square(backend, i):
    alg = rank_one(backend)
    x = alg.x_op(i)
    diff = (x * x - x * alg.torus.kappa(1)).simplify()
    assert util.tw_zero(diff)


@pytest.mark.parametrize("backend", BACKENDS)
def test_eta_from_generator(backend):
    alg = rank_one(backend)
    t = alg.torus
    for i, xi in ((0, t.neg_simple_x(1)), (1, t.simple_x(1))):
        lhs = alg.eta(t.group.simple(i))
        rhs = alg.one() - Localized(t, xi) * alg.x_op(i)
        assert util.tw_zero(lhs - rhs)


def test_eta_is_group_like():
    alg = rank_one("CON")
    g = alg.torus.group
    x = g.from_word((0, 1))
    y = g.from_word((1, 0, 1))
    assert util.tw_zero(alg.eta(x) * alg.eta(y) - alg.eta(g.mul(x, y)))


def test_twisting_moves_coefficients():
    alg = rank_one("CON")
    t = alg.torus
    s1 = t.group.simple(1)
    f = Localized(t, t.simple_x(1))
    sf = Localized(t, t.neg_simple_x(1))
    assert util.tw_zero(alg.eta(s1) * f - sf * alg.eta(s1))


@pytest.mark.parametrize("backend", BACKENDS)
def test_demazure_leibniz_against_operator(backend):
    # X_i f = Delta_i(f) + (s_i f) X_i as twisted elements
    alg = rank_one(backend)
    t = alg.torus
    xa = t.simple_x(1)
    f = xa * xa + t.neg_simple_x(1)
    for i in (0, 1):
        s = t.group.simple(i)
        lhs = alg.x_op(i) * Localized(t, f)
        rhs = (alg.coerce(Localized(t, t.demazure(i, f)))
               + Localized(t, t.act_elem(s, f)) * alg.x_op(i))
        assert util.tw_zero(lhs - rhs)


def test_coerce():
    alg = rank_one("CON")
    t = alg.torus
    assert util.tw_zero(alg.coerce(0))
    assert alg.coerce(3).coefficient(t.group.identity) == Localized(t, t.ring.from_scalar(3))
    assert alg.coerce(Scalar.param("c", ("c",))) is not None
    assert alg.coerce(t.simple_x(1)) is not None
    with pytest.raises(TypeError):
        alg.coerce("nope")
    with pytest.raises(TypeError):
        hash(alg.one())


def test_x_word_prefix_cache_consistency():
    alg = rank_one("CON")
    w = (0, 1, 0, 1)
    assert util.tw_zero(alg.x_word(w) - alg.x_word((0, 1)) * alg.x_word((0, 1)))


# -- frozen change-of-basis rows -------------------------------------------


def ab(t):
    a = Localized(t, t.simple_x(1))
    b = Localized(t, t.neg_simple_x(1))
    return a, b


def frozen_eta_rows(alg):
    """eta_w in the X basis for all w of length 2..4, rank one."""
    t = alg.torus
    a, b = ab(t)
    av, nav = util.alpha_vec(t), util.nalpha_vec(t)
    one = Localized(t, t.ring.one())

    def frac(num_loc, den_vec):
        return Localized(t, num_loc.num, num_loc.den + (den_vec,))

    ba = frac(b * (b - a), av)      # b(b-a)/a
    ab_ = frac(a * (a - b), nav)    # a(a-b)/b
    rows = {
        (1, 0): {(): one, (0,): -a, (1,): -a, (1, 0): a * a},
        (0, 1): {(): one, (0,): -b, (1,): -b, (0, 1): b * b},
        (0, 1, 0): {(): one, (0,): ba, (1,): -b, (1, 0): b * b,
                    (0, 1): b * b, (0, 1, 0): -(b * b * b)},
        (1, 0, 1): {(): one, (1,): ab_, (0,): -a, (0, 1): a * a,
                    (1, 0): a * a, (1, 0, 1): -(a * a * a)},
        (1, 0, 1, 0): {(): one, (0,): ab_, (1,): ab_,
                       (1, 0): frac(a * a * (b - a - a), nav),
                       (0, 1): a * a,
                       (0, 1, 0): -(a * a * a), (1, 0, 1): -(a * a * a),
                       (1, 0, 1, 0): a * a * a * a},
        (0, 1, 0, 1): {(): one, (0,): ba, (1,): ba,
                       (0, 1): frac(b * b * (a - b - b), av),
                       (1, 0): b * b,
                       (1, 0, 1): -(b * b * b), (0, 1, 0): -(b * b * b),
                       (0, 1, 0, 1): b * b * b * b},
    }
    return rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_eta_rows_match_frozen_values(backend):
    alg = rank_one(backend)
    tables = util.tables(alg, 4)
    g = alg.torus.group
    win = tables.window
    for word, expected in frozen_eta_rows(alg).items():
        got = tables.eta_in_x(g.from_word(word))
        got_by_word = {win.word(v): c for v, c in got.items()}
        missing = set(expected) ^ set(got_by_word)
        assert not missing, (word, missing)
        for vw, c in expected.items():
            assert got_by_word[vw] == c, (word, vw)


@pytest.mark.parametrize("backend", BACKENDS)
def test_demazure_word_rows_match_frozen_values(backend):
    # X_{(1,0)} and X_{(0,1)} in the eta basis
    alg = rank_one(backend)
    t = alg.torus
    g = t.group
    a, b = ab(t)
    av, nav = util.alpha_vec(t), util.nalpha_vec(t)

    def inv(*dens):
        return Localized(t, t.ring.one(), dens)

    expected_10 = {
        (): inv(av, nav), (0,): -inv(av, nav),
        (1,): -inv(av, av), (1, 0): inv(av, av),
    }
    expected_01 = {
        (): inv(av, nav), (1,): -inv(av, nav),
        (0,): -inv(nav, nav), (0, 1): inv(nav, nav),
    }
    for word, expected in (((1, 0), expected_10), ((0, 1), expected_01)):
        got = {g.reduced_word(w): c for w, c in alg.x_word(word).terms.items()}
        assert set(got) == set(expected)
        for vw, c in expected.items():
            assert got[vw] == c, (word, vw)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tables_invert_each_other(backend):
    alg = rank_one(backend)
    tables = util.tables(alg, 4)
    g = alg.torus.group
    zero = Localized(alg.torus, alg.torus.ring.zero())
    for w in tables.window.elements:
        row = tables.expand_in_x(alg.x_word(tables.window.compat_word(w)))
        for v, c in row.items():
            want = 1 if v == w else 0
            assert c == zero + want, (w, v)
        assert w in row


@pytest.mark.parametrize("rtype, backend, length", [("A2", "CON", 3), ("A1", "MUL", 4)])
def test_rows_are_stored_once_per_algebra_and_flavor(rtype, backend, length):
    torus = TorusAlgebra(util.datum(rtype), backend, "small")
    alg = TwistedAlgebra(torus)
    g = torus.group
    tb1 = ExpansionTables(alg, g.window(length))
    tb0 = ExpansionTables(alg, g.window(length - 1))
    tb2 = ExpansionTables(alg, g.window(length + 1))
    ty1 = ExpansionTables(alg, g.window(length), flavor="y")
    ty0 = ExpansionTables(alg, g.window(length - 1), flavor="y")
    # a covered row is read from the algebra's `row` memo, never solved again
    for w in tb0.window.elements:
        assert tb0.b[w] is tb1.b[w]
        assert ty0.b[w] is ty1.b[w]
    for w in tb1.window.elements:
        assert tb2.b[w] is tb1.b[w]
    # the flavors keep separate rows: eta_{s_1} = 1 - x_1 X_1 = (1 - c x_1) + x_1 Y_1
    s1 = g.simple(1)
    assert not (tb1.b[s1][g.identity] == ty1.b[s1][g.identity])
    # every row equals the row solved in one pass on a fresh algebra
    fresh = TwistedAlgebra(torus)
    want = {"x": ExpansionTables(fresh, g.window(length + 1)).b,
            "y": ExpansionTables(fresh, g.window(length), flavor="y").b}
    zero = Localized(torus, torus.ring.zero())
    for tables in (tb0, tb1, tb2, ty0, ty1):
        for w, row in tables.b.items():
            ref = want[tables.flavor][w]
            assert ref is not row
            for u in set(row) | set(ref):
                assert row.get(u, zero) == ref.get(u, zero), (tables.flavor, w, u)
    with pytest.raises(ConfigError):
        ExpansionTables(alg, g.window(1), flavor="z")


# -- the row recursion against back-substitution ----------------------------

def memo_rows(alg, flavor):
    """The elements whose `flavor` row the algebra's `row` memo holds."""
    table = vars(alg).get("_memo", {}).get("twisted.TwistedAlgebra.row", {})
    return {w for f, w in table if f == flavor}


ORACLE_CASES = ([("A1", backend, "small", 6) for backend in BACKENDS]
                + [(rtype, backend, "small", 3) for rtype in ("A2", "B2", "C2", "G2")
                   for backend in BACKENDS]
                + [("A1", "CON", "big", 4)])


@pytest.mark.parametrize("flavor", ["x", "y"])
@pytest.mark.parametrize("rtype, backend, torus, length", ORACLE_CASES)
def test_recursion_rows_match_back_substitution(rtype, backend, torus, length, flavor):
    t = TorusAlgebra(util.datum(rtype), backend, torus)
    alg = TwistedAlgebra(t)
    window = t.group.window(length)
    want = back_substitute(alg, window, flavor)
    assert not memo_rows(alg, flavor)
    got = ExpansionTables(alg, window, flavor).b
    assert memo_rows(alg, flavor) == set(window.elements)
    for w in window.elements:
        assert set(got[w]) == set(want[w]), window.word(w)
        for u, c in want[w].items():
            assert got[w][u] == c, (window.word(w), window.word(u))
            assert loc_json(got[w][u]) == loc_json(c), (window.word(w), window.word(u))


ROW_LAWS = [("CON", None), ("ADD", None), ("SER", "connective"), ("SER", "hyperbolic")]


@pytest.mark.parametrize("flavor", ["x", "y"])
@pytest.mark.parametrize("backend, law", ROW_LAWS)
@pytest.mark.parametrize("rtype, torus, length", [
    ("A2", "small", 2), ("B2", "small", 2), ("A1", "big", 3)])
def test_row_past_every_table_equals_the_table_row(rtype, torus, length, backend, law,
                                                    flavor):
    # the row of an element of length L + 1, asked for before any table
    # exists, is the row of the table on window L + 1 of another algebra
    def fresh():
        return TwistedAlgebra(TorusAlgebra(util.datum(rtype), backend, torus,
                                           fgl=util.law_of(law), precision=14))

    alg, other = fresh(), fresh()
    window = other.torus.group.window(length + 1)
    w = window.elements[-1]
    assert alg.torus.group.length(w) == length + 1
    if law == "hyperbolic" and flavor == "y":
        # Y_i = c - X_i needs the law x + y - c x y, on either route
        with pytest.raises(UnsupportedTheoryError):
            alg.row(flavor, w)
        with pytest.raises(UnsupportedTheoryError):
            ExpansionTables(other, window, flavor)
        return
    got = alg.row(flavor, w)
    want = ExpansionTables(other, window, flavor).b[w]
    assert set(got) == set(want)
    for u, c in want.items():
        assert got[u].terms == c.terms, window.word(u)
        assert got[u].prec == c.prec, window.word(u)
        assert got[u] == c, window.word(u)


def test_row_refuses_an_unknown_flavor():
    alg = util.algebra("A1", "CON", "small")
    with pytest.raises(ConfigError, match="flavor"):
        alg.row("z", alg.torus.group.identity)
    assert not memo_rows(alg, "z")


@pytest.mark.parametrize("rtype, length", [("A2", 3), ("B2", 2)])
def test_hyperbolic_rows_match_back_substitution(rtype, length):
    # `row` solves one row at a time from the compat word read off the least
    # window holding w; the oracle solves the window at once from its own
    t = TorusAlgebra(util.datum(rtype), "SER", "small", fgl=util.law_of("hyperbolic"),
                     precision=12)
    alg = TwistedAlgebra(t)
    window = t.group.window(length)
    want = back_substitute(alg, window)
    got = ExpansionTables(alg, window).b
    for w in window.elements:
        assert set(got[w]) == set(want[w]), window.word(w)
        for u, c in want[w].items():
            assert got[w][u].terms == c.terms, (window.word(w), window.word(u))
            assert got[w][u].prec == c.prec, (window.word(w), window.word(u))


@pytest.mark.parametrize("rtype, torus, length", [
    ("A1", "small", 6), ("A2", "small", 4), ("B2", "small", 4),
    ("G2", "small", 4), ("A1", "big", 6)])
def test_predict_row_descent_test_matches_lengths(rtype, torus, length):
    # right_step takes v s_i > v as "i is no right descent of v", and its
    # oracle util.predict_row takes s_i v > v as "i is no left descent of v"
    g = util.algebra(rtype, "CON", torus).torus.group
    for v in g.window(length).elements:
        for i in g.labels:
            longer = g.length(g.mul(v, g.simple(i))) > g.length(v)
            assert (not g.right_descent(v, i)) == longer, (v, i)
            longer = g.length(g.mul(g.simple(i), v)) > g.length(v)
            assert (not g.left_descent(v, i)) == longer, (v, i)


# one backend per type and torus, each window past the back-substitution
# oracles of the suite, so the left recursion is the oracle there
LEFT_ORACLE_CASES = [
    ("A1", "ADD", "small", 12), ("A1", "MUL", "big", 8),
    ("A2", "ADD", "small", 6), ("A2", "CON", "big", 4),
    ("B2", "MUL", "small", 6), ("B2", "CON", "big", 4),
    ("G2", "MUL", "small", 6), ("G2", "ADD", "big", 4),
    ("A3", "CON", "small", 5), ("A3", "MUL", "big", 3)]


@pytest.mark.parametrize("flavor", ["x", "y"])
@pytest.mark.parametrize("rtype, backend, torus, length", LEFT_ORACLE_CASES)
def test_rows_satisfy_the_left_recursion(rtype, backend, torus, length, flavor):
    # the rows are built from the right; every row of the window satisfies
    # the left recursion for every letter
    alg = util.algebra(rtype, backend, torus)
    window = alg.torus.group.window(length)
    checked, failures = util.left_recursion_failures(alg, window, flavor)
    # every element but e is s_i u for some u of the window
    assert checked >= len(window.elements) - 1 and not failures, [
        (window.word(w), i) for w, i in failures]


@pytest.mark.parametrize("law", [None, "connective"])
def test_connective_rows_need_no_weyl_action(monkeypatch, law):
    # each entry of a connective row is a product in S: no row entry is
    # moved by the Weyl group, on the exact backend or on SER
    def refuse(*args):
        raise AssertionError("a row entry was acted on by the Weyl group")

    monkeypatch.setattr(TorusAlgebra, "act_loc", refuse)
    monkeypatch.setattr(TorusAlgebra, "act_elem", refuse)
    t = TorusAlgebra(util.datum("A2"), "SER" if law else "CON", "small",
                     fgl=util.law_of(law), precision=8)
    alg = TwistedAlgebra(t)
    window = t.group.window(4)
    for flavor in ("x", "y"):
        assert len(ExpansionTables(alg, window, flavor).b) == len(window.elements)


def test_expand_in_x_names_a_window_that_suffices():
    # the error names the longest element of the eta-support outside the
    # window, so expanding again at the window it asks for succeeds
    alg = util.algebra("A1", "CON", "small")
    window = alg.torus.group.window(5)
    tables = util.tables(alg, 5)
    named = 0
    for w2 in window.elements:
        for v in window.elements:
            prod = alg.x_word(window.compat_word(w2)) * alg.x_word(window.compat_word(v))
            try:
                tables.expand_in_x(prod)
            except WindowExceededError as exc:
                need = int(str(exc).rsplit(">= ", 1)[1])
                assert util.tables(alg, need).expand_in_x(prod)
                named += 1
    assert named


@pytest.mark.parametrize("rtype, length", [("A1", 4), ("A2", 2)])
@pytest.mark.parametrize("flavor", ["x", "y"])
def test_demazure_walk_multiplies_word_elements(rtype, length, flavor):
    # Op_{I_w2} Op_{I_v} = c^m Op_{I_w} for (w, m) the walk of I_w2 from v,
    # checked in the eta basis; w is the Demazure product, of length
    # l(w2) + l(v) - m
    alg = util.algebra(rtype, "CON", "small")
    g = alg.torus.group
    window = g.window(length)
    c = alg.torus.ring.fgl.c
    for w2 in window.elements:
        for v in window.elements:
            w, m = demazure_walk(g, window.compat_word(w2), v)
            assert g.length(w) == g.length(w2) + g.length(v) - m
            lhs = (alg.word_product(flavor, window.compat_word(w2))
                   * alg.word_product(flavor, window.compat_word(v)))
            rhs = alg.coerce(c ** m) * alg.word_product(flavor, g.reduced_word(w))
            assert util.tw_zero(lhs - rhs), (window.word(w2), window.word(v))


# -- back-substitution against the multiplied-out inverse --------------------


def multiplied_out_rows(alg, window, flavor):
    """Back-substitution with the inverse of the diagonal a_{w,w} multiplied
    out into one product of x_beta, multiplied into every term and divided
    back out by `combine_rows`."""
    rows = {}
    for w in window.elements:
        aw = alg.word_product(flavor, window.compat_word(w)).terms
        diag_inv = util.reference_inverse(aw[w])
        rows[w] = combine_rows([(1, {w: diag_inv})] + [
            (-(diag_inv * c), rows[u]) for u, c in aw.items() if u != w])
    return rows


EXACT_ROW_CASES = ([(rtype, "small", length) for rtype, length in
                    (("A1", 4), ("A2", 4), ("B2", 3), ("G2", 3))]
                   + [("A1", "big", 4), ("A2", "big", 2)])


@pytest.mark.parametrize("flavor", ["x", "y"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rtype, torus, length", EXACT_ROW_CASES)
def test_back_substitution_matches_the_multiplied_out_inverse(rtype, torus, length,
                                                              backend, flavor):
    t = TorusAlgebra(util.datum(rtype), backend, torus)
    alg = TwistedAlgebra(t)
    window = t.group.window(length)
    got = back_substitute(alg, window, flavor)
    want = multiplied_out_rows(alg, window, flavor)
    for w in window.elements:
        assert set(got[w]) == set(want[w]), window.word(w)
        for u, c in want[w].items():
            # the oracle settles to no denominator, and the row keeps the numerator
            assert not c.den_map, (window.word(w), window.word(u))
            assert got[w][u].terms == c.num.terms, (window.word(w), window.word(u))


@pytest.mark.parametrize("rtype, length, law, precision, flavor, least", [
    ("A2", 3, "hyperbolic", 12, "x", 7),
    ("B2", 2, "hyperbolic", 12, "x", 11),
    ("A2", 3, "connective", 12, "x", 7),
    ("A2", 3, "connective", 12, "y", 7),
])
def test_series_back_substitution_extends_the_multiplied_out_rows(
        rtype, length, law, precision, flavor, least):
    t = TorusAlgebra(util.datum(rtype), "SER", "small", fgl=util.law_of(law),
                     precision=precision)
    alg = TwistedAlgebra(t)
    window = t.group.window(length)
    got = back_substitute(alg, window, flavor)
    want = multiplied_out_rows(alg, window, flavor)
    gained = 0
    for w in window.elements:
        assert set(got[w]) == set(want[w]), window.word(w)
        for u, c in want[w].items():
            g = got[w][u]
            assert not c.den_map, (window.word(w), window.word(u))
            # certified at least as far, and the same terms up to the old cut
            assert g.prec >= c.num.prec, (window.word(w), window.word(u))
            assert util.tuple_ptruncate(g.terms, c.num.prec, t.ring.nvars) == c.num.terms
            gained += g.prec > c.num.prec
    assert gained
    assert min(c.prec for row in got.values() for c in row.values()) >= least


def test_series_tables_grow_by_back_substitution():
    def hyperbolic_a2():
        return TwistedAlgebra(TorusAlgebra(util.datum("A2"), "SER", "small",
                                           fgl=util.law_of("hyperbolic"), precision=10))

    alg = hyperbolic_a2()
    g = alg.torus.group
    small = ExpansionTables(alg, g.window(2))
    large = ExpansionTables(alg, g.window(3))
    # the solved rows are taken as known, not solved again
    for w in small.window.elements:
        assert large.b[w] is small.b[w]
    fresh = ExpansionTables(hyperbolic_a2(), g.window(3))
    assert len(large.b) == len(fresh.b) == 19
    for w, row in large.b.items():
        assert not util.row_difference(row, fresh.b[w]), large.window.word(w)


class BackSubstitutionCalled(Exception):
    pass


def test_route_is_chosen_by_backend_and_law(monkeypatch):
    def refuse(*args, **kwargs):
        raise BackSubstitutionCalled()

    monkeypatch.setattr(twisted, "_solve_row", refuse)
    for backend in ("CON", "ADD"):
        t = TorusAlgebra(util.datum("A2"), backend, "small")
        tables = ExpansionTables(TwistedAlgebra(t), t.group.window(3))
        assert len(tables.b) == len(tables.window.elements) == 19
    # the series model of a law x + y - c x y recurses too
    ser = TorusAlgebra(util.datum("A2"), "SER", "small", fgl=util.law_of("connective"),
                       precision=12)
    assert len(ExpansionTables(TwistedAlgebra(ser), ser.group.window(3)).b) == 19
    hyp = TorusAlgebra(util.datum("A2"), "SER", "small", fgl=util.law_of("hyperbolic"),
                       precision=12)
    with pytest.raises(BackSubstitutionCalled):
        ExpansionTables(TwistedAlgebra(hyp), hyp.group.window(3))


@pytest.mark.parametrize("flavor", ["x", "y"])
@pytest.mark.parametrize("rtype, length", [("A1", 5), ("A2", 3)])
def test_series_connective_rows_are_the_exact_rows_at_full_precision(rtype, length, flavor):
    con = TorusAlgebra(util.datum(rtype), "CON", "small")
    ser = TorusAlgebra(util.datum(rtype), "SER", "small", fgl=util.law_of("connective"),
                       precision=10)
    window = con.group.window(length)
    want = ExpansionTables(TwistedAlgebra(con), window, flavor).b
    got = ExpansionTables(TwistedAlgebra(ser), ser.group.window(length), flavor).b
    entries = 0
    for w in window.elements:
        assert set(got[w]) == set(want[w]), window.word(w)
        for u, c in want[w].items():
            g = got[w][u]
            assert g.prec == 10, (window.word(w), window.word(u))
            assert g == con.to_series(c, ser), (window.word(w), window.word(u))
            entries += 1
    assert entries > len(window.elements)


@pytest.mark.parametrize("flavor", ["x", "y"])
def test_check_recursion_compares_with_back_substitution(monkeypatch, flavor):
    alg = TwistedAlgebra(TorusAlgebra(util.datum("A1"), "CON", "small"))
    ctx = connective.ConnectiveContext(alg)
    window = alg.torus.group.window(4)
    calls = []

    def oracle(*args, **kwargs):
        calls.append(args)
        return back_substitute(*args, **kwargs)

    monkeypatch.setattr(connective, "back_substitute", oracle)
    rep = connective.check_recursion(ctx, window, flavor)
    assert rep.passed and rep.checked == 8
    assert len(calls) == 1 and not memo_rows(alg, flavor)

    # a corrupted oracle row is caught, so the check reads the oracle's rows
    def corrupted(*args, **kwargs):
        rows = back_substitute(*args, **kwargs)
        w = window.elements[-1]
        rows[w] = {v: c + 1 for v, c in rows[w].items()}
        return rows

    monkeypatch.setattr(connective, "back_substitute", corrupted)
    rep = connective.check_recursion(ctx, window, flavor)
    assert not rep.passed and rep.checked == 8
    # each failure is a record (u s_i, i, v): only the corrupted row is wrong
    g = alg.torus.group
    for w, i, v in rep.failures:
        assert w == window.elements[-1] and g.right_descent(w, i) and v in window


# -- rows over S -------------------------------------------------------------

ROW_TYPE_CASES = [(backend, law, flavor) for backend, law in
                  (("ADD", None), ("MUL", None), ("CON", None),
                   ("SER", "connective"), ("SER", "hyperbolic"))
                  for flavor in ("x", "y") if (law, flavor) != ("hyperbolic", "y")]


@pytest.mark.parametrize("rtype, torus, length", [("A2", "small", 3), ("A1", "big", 3)])
@pytest.mark.parametrize("backend, law, flavor", ROW_TYPE_CASES)
def test_every_row_holds_only_ring_elements(rtype, torus, length, backend, law, flavor):
    # rows are over S on every route: the algebra's rows and the oracle's
    t = TorusAlgebra(util.datum(rtype), backend, torus, fgl=util.law_of(law), precision=10)
    alg = TwistedAlgebra(t)
    window = t.group.window(length)
    for rows in (ExpansionTables(alg, window, flavor).b, back_substitute(alg, window, flavor)):
        assert set(rows) == set(window.elements)
        for w, row in rows.items():
            assert w in row, window.word(w)
            for u, c in row.items():
                assert type(c) is AlgebraElement and not c.is_zero(), (
                    window.word(w), window.word(u))


def test_solve_row_refuses_a_denominator_it_cannot_cancel(monkeypatch):
    # the theorem keeps every entry in S; a division that cancels nothing
    # leaves denominators, and the solve names the row and the column
    monkeypatch.setattr(FormalRing, "divide", lambda self, f, b, m: (f, 0))
    t = TorusAlgebra(util.datum("A1"), "CON", "small")
    with pytest.raises(MembershipError, match=r"row of eta\[s\d( s\d)*\] not over S at "):
        back_substitute(TwistedAlgebra(t), t.group.window(4))


@pytest.mark.parametrize("backend, law", [("CON", None), ("SER", "connective")])
def test_connective_tables_simplify_nothing(monkeypatch, backend, law):
    # each connective row entry is a product in S, so no entry is settled
    def refuse(self):
        raise AssertionError("a row entry was simplified")

    monkeypatch.setattr(Localized, "simplify", refuse)
    t = TorusAlgebra(util.datum("A2"), backend, "small", fgl=util.law_of(law), precision=8)
    alg = TwistedAlgebra(t)
    window = t.group.window(4)
    for flavor in ("x", "y"):
        assert len(ExpansionTables(alg, window, flavor).b) == len(window.elements)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_row_is_built_without_deep_recursion():
    # on a fresh algebra the right chain below w is walked down and its rows
    # asked shortest first, so the stack does not grow with the length of w;
    # a call per length step needs several frames a step, past this limit
    alg = TwistedAlgebra(TorusAlgebra(util.datum("A1"), "ADD", "small"))
    g = alg.torus.group
    w = g.from_word((0, 1) * 40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        row = alg.row("x", w)
    finally:
        sys.setrecursionlimit(limit)
    # every row of the chain is kept, and the row is the table's row
    for k in range(80):
        assert TwistedAlgebra.row.holds(alg, "x", g.from_word(((0, 1) * 40)[:k]))
    other = TwistedAlgebra(TorusAlgebra(util.datum("A1"), "ADD", "small"))
    table = ExpansionTables(other, other.torus.group.window(80))
    assert not util.row_difference(row, table.b[w])


def test_a_long_word_product_is_built_without_deep_recursion():
    # on a fresh algebra the prefixes not held are asked shortest first, so
    # the stack does not grow with the length of the word, and each is kept
    alg = TwistedAlgebra(TorusAlgebra(util.datum("A1"), "ADD", "small"))
    word = (0, 1) * 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        product = alg.x_word(word)
    finally:
        sys.setrecursionlimit(limit)
    for k in range(81):
        assert TwistedAlgebra.word_product.holds(alg, "x", word[:k])
    other = TwistedAlgebra(TorusAlgebra(util.datum("A1"), "ADD", "small"))
    expected = other.one()
    for i in word:
        expected = expected * other.x_op(i)
    assert not combine_rows([(1, product.terms), (-1, expected.terms)])


# -- braid relations --------------------------------------------------------


def test_rank_one_has_no_braid_relation():
    alg = rank_one("CON")
    with pytest.raises(NotApplicableError):
        braid_check(alg, 0, 1)


@pytest.mark.parametrize("law", ["CON", "hyperbolic"])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_braid_of_a_generator_with_itself_is_refused(law, i):
    # its relation of order 1 would compare X_i with itself
    if law == "CON":
        alg = util.algebra("A2", "CON", "small")
    else:
        alg = util.algebra("A2", "SER", "small", fgl="hyperbolic", precision=6)
    with pytest.raises(NotApplicableError, match="two distinct generators"):
        braid_check(alg, i, i)


@pytest.mark.parametrize("pair", [(1, 2), (0, 1), (0, 2)])
def test_braid_holds_for_connective_a2(pair):
    alg = util.algebra("A2", "CON", "small")
    rep = braid_check(alg, *pair)
    assert rep.holds and rep.order == 3
    assert rep.witness is None


def test_braid_word_independence_a2():
    alg = util.algebra("A2", "CON", "small")
    assert util.tw_zero(alg.x_word((1, 2, 1)) - alg.x_word((2, 1, 2)))


def test_braid_fails_for_hyperbolic():
    alg = util.algebra("A2", "SER", "small", fgl="hyperbolic", precision=6)
    rep = braid_check(alg, 1, 2)
    assert not rep.holds
    assert rep.witness and "eta[" in rep.witness
    assert "fails" in rep.line()


@pytest.mark.parametrize("precision", [2, 3])
def test_braid_on_a_shallow_series_refuses_rather_than_fails(precision):
    # in X_0 X_2 X_0 X_2 on B2 the entry at s0 s2 is 0 + O(p) over a
    # denominator of degree 8: a value below that precision is unknown, not
    # zero, so the connective law's braid relation cannot be decided there
    alg = util.algebra("B2", "SER", "small", fgl="connective", precision=precision)
    with pytest.raises(PrecisionError, match="precision >= 8"):
        braid_check(alg, 0, 2)


# -- the translation element ------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_z_alpha_demazure_form(backend):
    # Z = X_0 + X_1 - x_{-alpha} X_0 X_1
    alg = rank_one(backend)
    t = alg.torus
    alpha = t.group.simple_root(1)[0]
    za = alg.z_alpha(alpha)
    b = Localized(t, t.neg_simple_x(1))
    rhs = alg.x_op(0) + alg.x_op(1) - b * (alg.x_op(0) * alg.x_op(1))
    assert util.tw_zero(za - rhs)


def test_z_alpha_specializations():
    # additive: the correction coefficient is +x_alpha
    t = rank_one("ADD").torus
    za = rank_one("ADD").z_alpha((1,))
    tr = t.group.translation((1,))
    assert za.coefficient(t.group.identity) == Localized(t, t.ring.one(), (util.nalpha_vec(t),))
    corr = util.tables(rank_one("ADD"), 2).expand_in_x(za)
    by_word = {util.tables(rank_one("ADD"), 2).window.word(v): c for v, c in corr.items()}
    assert by_word[(0, 1)] == Localized(t, t.simple_x(1))

    # multiplicative: the correction coefficient is e^alpha - 1
    m = rank_one("MUL")
    tm = m.torus
    corr_m = util.tables(m, 2).expand_in_x(m.z_alpha((1,)))
    by_word_m = {util.tables(m, 2).window.word(v): c for v, c in corr_m.items()}
    e_alpha = tm.ring.element({(1,): Scalar.const(1)})
    assert by_word_m[(0, 1)] == Localized(tm, e_alpha - tm.ring.one())


@pytest.mark.parametrize("backend", BACKENDS)
def test_z_alpha_powers(backend):
    # Z^k = (1 - eta_t)^k / x_{-alpha}^k since translations fix the small torus
    alg = rank_one(backend)
    t = alg.torus
    za = alg.z_alpha((1,))
    tr = alg.eta(t.group.translation((1,)))
    nav = util.nalpha_vec(t)
    power = alg.one()
    zk = alg.one()
    for k in range(1, 4):
        power = power * (alg.one() - tr)
        zk = zk * za
        scaled = power * Localized(t, t.ring.one(), (nav,) * k)
        assert util.tw_zero(zk - scaled), k


def test_z_alpha_rejects_non_roots():
    alg = rank_one("CON")
    with pytest.raises(ConfigError):
        alg.z_alpha((2,))


def test_z_alpha_series_backend():
    alg = util.algebra("A1", "SER", "small", fgl="connective", precision=8)
    t = alg.torus
    za = alg.z_alpha((1,))
    b = Localized(t, t.neg_simple_x(1))
    rhs = alg.x_op(0) + alg.x_op(1) - b * (alg.x_op(0) * alg.x_op(1))
    assert util.tw_zero(za - rhs)
