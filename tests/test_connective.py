"""Y-operator structure for the one-parameter law x + y - c x y."""

import pytest

from fada.algebra import Localized, TorusAlgebra
from fada.connective import (ConnectiveContext, bullet_yw0_check,
                             check_recursion, conjugation_check,
                             connective_scalar, dual_y_vanishing_check,
                             dynkin_involution, hecke_action_check)
from fada.duals import DualElement, bullet, dual_x, odot
from fada.errors import PrecisionError, UnsupportedTheoryError
from fada.fgl import FormalGroupLaw
from fada.scalars import Scalar
from fada.twisted import ExpansionTables, TwistedAlgebra, TwistedElement

import util

BACKENDS = ("ADD", "MUL", "CON")


def ctx_a1(backend="CON"):
    alg = util.algebra("A1", backend, "small")
    return alg, ConnectiveContext(alg)


def y_w0(alg):
    """Y_{w_0}, the Y-word of the finite longest element."""
    return alg.y_word(alg.torus.datum.longest_element.word)


def w0_word(alg):
    return alg.torus.datum.longest_element.word


# -- gating -----------------------------------------------------------------

def test_connective_scalar_per_backend():
    assert connective_scalar(util.algebra("A1", "CON").torus) == Scalar.param("c", ("c",))
    assert connective_scalar(util.algebra("A1", "MUL").torus) == 1
    assert connective_scalar(util.algebra("A1", "ADD").torus).is_zero()
    # the law carries its c, whichever backend models it
    ser = util.algebra("A1", "SER", fgl="connective", precision=6)
    assert connective_scalar(ser.torus) == Scalar.param("c", ("c",))
    ser_add = util.algebra("A1", "SER", fgl="additive", precision=6)
    assert connective_scalar(ser_add.torus) == Scalar.const(0, ())
    ser_mul = util.algebra("A1", "SER", fgl="multiplicative", precision=6)
    assert connective_scalar(ser_mul.torus) == Scalar.const(1, ())


def test_non_connective_laws_are_rejected():
    hyp = util.algebra("A1", "SER", fgl="hyperbolic", precision=6)
    with pytest.raises(UnsupportedTheoryError):
        ConnectiveContext(hyp)
    # a custom law is outside the family even when its table is x + y - c xy
    table = FormalGroupLaw.connective().table(4)
    custom = TorusAlgebra(util.datum("A1"), "SER", "small",
                          fgl=FormalGroupLaw.custom(table, 4, ("c",)), precision=4)
    with pytest.raises(UnsupportedTheoryError):
        ConnectiveContext(TwistedAlgebra(custom))


# -- operators ---------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_y_op_square(backend):
    alg, ctx = ctx_a1(backend)
    for i in (0, 1):
        y = alg.y_op(i)
        assert util.tw_zero(y * y - ctx.c * y)


def test_y_op_additive_specialization():
    alg, ctx = ctx_a1("ADD")
    for i in (0, 1):
        assert util.tw_zero(alg.y_op(i) + alg.x_op(i))


def test_y_word_caches_and_matches_products():
    alg, ctx = ctx_a1()
    w = (0, 1, 0)
    assert ctx.y_word(w) is ctx.y_word(w)
    assert util.tw_zero(ctx.y_word(w) - ctx.y_word((0, 1)) * alg.y_op(0))


def test_y_word_independence_a2():
    alg = util.algebra("A2", "CON", "small")
    ctx = ConnectiveContext(alg)
    assert util.tw_zero(ctx.y_word((1, 2, 1)) - ctx.y_word((2, 1, 2)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_x_neg_and_y_neg_shapes(backend):
    alg, ctx = ctx_a1(backend)
    t = alg.torus
    for i in (0, 1):
        mu, m = t.group.simple_root(i)
        pos = t.embed_root((mu, m))
        ratio = Localized(t, t.ring.x_of(pos),
                          (t.embed_root((tuple(-v for v in mu), -m)),))
        assert util.tw_zero(ctx.x_neg(i) - ratio * alg.x_op(i))
        # Y_{-i} = c - X_{-i} = 1/x_{alpha_i} + (1/x_{-alpha_i}) eta_i
        one, neg = t.ring.one(), ratio.den[0]
        y_neg = TwistedElement(alg, {t.group.identity: Localized(t, one, (pos,)),
                                     t.group.simple(i): Localized(t, one, (neg,))})
        assert util.tw_zero(alg.coerce(ctx.c) - ctx.x_neg(i) - y_neg)


# -- the longest element -----------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_y_w0_closed_form_a1(backend):
    alg, ctx = ctx_a1(backend)
    assert util.tw_zero(y_w0(alg) - ctx.y_w0_closed())


def test_y_w0_closed_form_a2():
    alg = util.algebra("A2", "CON", "small")
    ctx = ConnectiveContext(alg)
    assert util.tw_zero(y_w0(alg) - ctx.y_w0_closed())


def test_y_w0_additive_is_minus_x():
    alg, ctx = ctx_a1("ADD")
    assert util.tw_zero(y_w0(alg) + alg.x_op(1))


def test_x_times_y_w0_dies():
    alg = util.algebra("A2", "CON", "small")
    for word in ((1,), (2,), (1, 2), (1, 2, 1)):
        assert util.tw_zero(alg.x_word(word) * y_w0(alg)), word


# -- basis transition --------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_x_in_y_reconstructs_demazure_words(backend):
    alg, ctx = ctx_a1(backend)
    win = alg.torus.group.window(4)
    for w in win.elements:
        got = ctx.x_in_y(win, w)
        assert util.tw_zero(got - alg.x_word(win.compat_word(w))), win.word(w)


def test_dual_y_pairs_against_y_words():
    alg, ctx = ctx_a1()
    from fada.duals import pair
    win = alg.torus.group.window(4)
    for w in win.elements:
        ystar = ctx.dual_y_in_x(win, w)
        for v in win.elements:
            got = pair(ctx.y_word(win.compat_word(v)), ystar)
            assert got == (1 if v == w else 0), (win.word(w), win.word(v))


# (root type, backend, law of SER, precision, window length)
DUAL_Y_CASES = [(rtype, backend, None, 8, length)
                for rtype, length in (("A1", 6), ("A2", 4), ("B2", 3), ("G2", 3))
                for backend in BACKENDS]
DUAL_Y_CASES += [("A1", "SER", "connective", 10, 4), ("A2", "SER", "connective", 10, 3)]


@pytest.mark.parametrize("rtype,backend,fgl,precision,length", DUAL_Y_CASES,
                         ids=["%s-%s-L%d" % (r, b, n) for r, b, _, _, n in DUAL_Y_CASES])
def test_dual_y_matches_the_bruhat_interval_sum(rtype, backend, fgl, precision, length):
    alg = util.algebra(rtype, backend, "small", fgl=fgl, precision=precision)
    ctx = ConnectiveContext(alg)
    win = alg.torus.group.window(length)
    for w, want in util.dual_y_by_bruhat_sum(ctx, win).items():
        assert ctx.dual_y_in_x(win, w) == want, win.word(w)


# -- recursion checks --------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("flavor", ["x", "y"])
def test_row_recursions_a1(backend, flavor):
    alg, ctx = ctx_a1(backend)
    rep = check_recursion(ctx, alg.torus.group.window(4), flavor)
    assert rep.passed, rep.failures
    assert rep.checked >= 8


def test_row_recursions_a2():
    alg = util.algebra("A2", "CON", "small")
    ctx = ConnectiveContext(alg)
    rep = check_recursion(ctx, alg.torus.group.window(2), "x")
    assert rep.passed, rep.failures


def test_recursion_seed_rows():
    # eta_{s_1} = 1 - x_1 X_1 = (1 - c x_1) + x_1 Y_1
    alg, ctx = ctx_a1()
    t = alg.torus
    g = t.group
    s1 = g.simple(1)
    xa = Localized(t, t.simple_x(1))
    one = Localized(t, t.ring.one())
    bx = ExpansionTables(alg, g.window(2))
    assert bx.b[s1][g.identity] == one
    assert bx.b[s1][s1] == -xa
    by = ExpansionTables(alg, g.window(2), flavor="y")
    assert by.b[s1][g.identity] == one - xa * t.ring.from_scalar(ctx.c)
    assert by.b[s1][s1] == xa


# -- Hecke action on duals ---------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("basis", ["X", "Y"])
def test_hecke_action_cases_a1(backend, basis):
    alg, ctx = ctx_a1(backend)
    g = alg.torus.group
    tables = util.tables(alg, 4)
    win, out = g.window(4), g.window(3)
    for v in g.window(2).elements:
        for i in (0, 1):
            assert hecke_action_check(ctx, tables, win, out, i, v, basis), \
                (win.word(v), i, basis)


def test_hecke_action_zero_case_explicitly():
    alg, ctx = ctx_a1()
    g = alg.torus.group
    tables = util.tables(alg, 4)
    v = g.simple(1)
    lhs = odot("x", (0,), dual_x(tables, v), g.window(3))
    assert lhs == DualElement.zero(alg.torus, g.window(3))


def test_hecke_action_additive_shift():
    # at c = 0 the down case is a pure shift to X*_{s_i v}
    alg, ctx = ctx_a1("ADD")
    g = alg.torus.group
    tables = util.tables(alg, 4)
    v = g.simple(1)
    lhs = odot("x", (1,), dual_x(tables, v), g.window(3))
    rhs = dual_x(tables, g.identity).restrict(g.window(3))
    assert lhs == rhs


def test_hecke_action_rejects_unknown_basis():
    alg, ctx = ctx_a1()
    g = alg.torus.group
    with pytest.raises(UnsupportedTheoryError):
        hecke_action_check(ctx, util.tables(alg, 4), g.window(4), g.window(3),
                           1, g.identity, basis="Z")


# -- images of the dual bases under Y_{w_0} ----------------------------------

def test_bullet_yw0_rank_one_example():
    # Y_{w_0} . X*_{s_1} = -X*_e
    alg, ctx = ctx_a1()
    g = alg.torus.group
    tables = util.tables(alg, 4)
    out = g.window(3)
    lhs = bullet("y", w0_word(alg), dual_x(tables, g.simple(1)), out)
    assert lhs == -dual_x(tables, g.identity).restrict(out)


@pytest.mark.parametrize("backend", ["MUL", "CON"])
def test_bullet_yw0_closed_form(backend):
    alg, ctx = ctx_a1(backend)
    g = alg.torus.group
    tables = util.tables(alg, 4)
    win, out = g.window(4), g.window(3)
    for v in g.window(3).elements:
        holds, vanishes = bullet_yw0_check(ctx, tables, win, out, v)
        assert holds, win.word(v)
        if v in set(win.minimal_coset_reps()):
            assert not vanishes, win.word(v)


@pytest.mark.parametrize("rtype,length,shallow,enough", [
    ("A2", 3, (1, 2, 3), 4), ("B2", 4, (2, 4), 5)])
def test_bullet_yw0_on_a_shallow_series_names_the_precision_it_holds_at(
        rtype, length, shallow, enough):
    # each letter of Y_{w_0} divides once and costs one degree: below
    # l(w_0) + 1 some difference reaches precision 0, where it is not known
    # to vanish and is not divided, so the row is not read as vanishing
    def check(precision):
        alg = util.algebra(rtype, "SER", fgl="connective", precision=precision)
        g = alg.torus.group
        win = g.window(length)
        return bullet_yw0_check(ConnectiveContext(alg), ExpansionTables(alg, win), win,
                                g.window(0), g.identity)

    for precision in shallow:
        with pytest.raises(PrecisionError, match="precision >= %d$" % enough):
            check(precision)
    assert check(enough) == (True, False)


def test_bullet_yw0_diagonal_on_minimal_columns():
    # on minimal columns the action is c^{l(w_0)} times the identity, so
    # the transition determinant is a positive power of c
    alg, ctx = ctx_a1()
    g = alg.torus.group
    tables = util.tables(alg, 4)
    out = g.window(3)
    cpow = Localized(alg.torus, alg.torus.ring.from_scalar(ctx.c))
    for v in out.minimal_coset_reps():
        lhs = bullet("y", w0_word(alg), dual_x(tables, v), out)
        assert lhs == dual_x(tables, v).restrict(out).scale(cpow), out.word(v)


def test_dual_y_rows_are_killed():
    alg, ctx = ctx_a1()
    g = alg.torus.group
    win, out = g.window(4), g.window(3)
    for word in ((), (0,), (1, 0)):
        assert dual_y_vanishing_check(ctx, win, out, g.from_word(word))


def test_dual_y_rows_on_a_shallow_series_name_the_precision_they_vanish_at():
    # Y_{w_0} . Y*_e on A2 divides three times at each point: below precision
    # 4 some difference reaches precision 0, an unknown value, not a killed row
    def check(precision):
        alg = util.algebra("A2", "SER", fgl="connective", precision=precision)
        g = alg.torus.group
        return dual_y_vanishing_check(ConnectiveContext(alg), g.window(4), g.window(1),
                                      g.identity)

    for precision in (1, 3):
        with pytest.raises(PrecisionError, match="precision >= 4$"):
            check(precision)
    assert check(4)


# -- conjugation by the longest element --------------------------------------

def test_dynkin_involution():
    assert dynkin_involution(util.algebra("A1", "CON").torus, 1) == 1
    t2 = util.algebra("A2", "CON").torus
    assert dynkin_involution(t2, 1) == 2
    assert dynkin_involution(t2, 2) == 1


def test_conjugation_by_longest_element():
    _, ctx = ctx_a1()
    assert conjugation_check(ctx, 1)
    alg2 = util.algebra("A2", "CON", "small")
    ctx2 = ConnectiveContext(alg2)
    assert conjugation_check(ctx2, 1)
    assert conjugation_check(ctx2, 2)
