"""Peterson subalgebra: basis expansions, centralizer, structure constants."""

import pytest

from fada.algebra import Localized
from fada.duals import (dual_x, gkm_check_small, pr_star,
                        restrict_to_translations, w_invariance_report)
from fada.errors import ConfigError, MembershipError, WindowExceededError
from fada.peterson import (PetersonContext, antipode, centralizer_check,
                           centralizer_report, coproduct, coproduct_multiply,
                           counit, is_translation_supported, pr)
from fada.scalars import Scalar

import util

BACKENDS = ("ADD", "MUL", "CON")

SIGMA = {0: (), 1: (0,), 2: (1, 0), 3: (0, 1, 0), 4: (1, 0, 1, 0)}


def context(backend, length=4):
    alg = util.algebra("A1", backend, "small")
    return alg, PetersonContext(alg, alg.torus.group.window(length))


# -- projection and inclusion ----------------------------------------------

def test_pr_is_idempotent_and_splits_k():
    alg, ctx = context("CON")
    g = alg.torus.group
    z = alg.x_word((0, 1)) + alg.eta(g.from_word((1, 0, 1)))
    assert pr(alg, pr(alg, z)) == pr(alg, z)
    p = ctx.element(g.from_word(SIGMA[1]))
    assert is_translation_supported(alg, p)
    assert pr(alg, p) == p


def test_k_rejects_non_translation_support():
    alg, _ = context("CON")
    assert not is_translation_supported(alg, alg.x_op(1))


@pytest.mark.parametrize("backend", BACKENDS)
def test_pr_kills_right_demazure_factors(backend):
    # z X_i projects to zero for every finite i and any z
    alg, _ = context(backend)
    g = alg.torus.group
    for z in (alg.one(), alg.x_word((0, 1)), alg.eta(g.from_word((1, 0)))):
        out = pr(alg, z * alg.x_op(1)).simplify()
        assert util.tw_zero(out)


# -- golden expansions of the basis ----------------------------------------

def e_alpha(t):
    return t.ring.element({(1,): Scalar.const(1, t.ring.params)})


@pytest.mark.parametrize("backend", BACKENDS)
def test_basis_golden_sigma1(backend):
    alg, ctx = context(backend)
    g = alg.torus.group
    exp = ctx.expansion(g.from_word(SIGMA[1]))
    got = {ctx.window.word(v): c for v, c in exp.coeffs.items()}
    one = alg.torus.ring.one()
    assert got == {(0,): one, (1,): one, (0, 1): -alg.torus.neg_simple_x(1)}


@pytest.mark.parametrize("backend", BACKENDS)
def test_basis_golden_sigma2(backend):
    alg, ctx = context(backend)
    g = alg.torus.group
    exp = ctx.expansion(g.from_word(SIGMA[2]))
    got = {ctx.window.word(v): c for v, c in exp.coeffs.items()}
    corr = alg.torus.ring.one() if backend == "ADD" else e_alpha(alg.torus)
    assert got == {(1, 0): alg.torus.ring.one(), (0, 1): corr}


@pytest.mark.parametrize("backend", BACKENDS)
def test_basis_golden_sigma3(backend):
    alg, ctx = context(backend)
    g = alg.torus.group
    exp = ctx.expansion(g.from_word(SIGMA[3]))
    got = {ctx.window.word(v): c for v, c in exp.coeffs.items()}
    one = alg.torus.ring.one()
    assert got == {(0, 1, 0): one, (1, 0, 1): one,
                   (0, 1, 0, 1): -alg.torus.neg_simple_x(1)}


def test_sigma3_correction_sits_at_a_translation():
    # the extra column is t_{2 alpha^v}, which is longer than sigma_3 itself
    alg, ctx = context("CON")
    g = alg.torus.group
    corr = g.from_word((0, 1, 0, 1))
    assert g.is_translation(corr)
    assert corr == g.translation((2,))
    assert corr not in set(ctx.minimal)
    assert corr in ctx.x_expansion(g.from_word(SIGMA[3]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_expansion_shape_for_all_window_minimals(backend):
    alg, ctx = context(backend)
    assert len(ctx.minimal) == 5
    for u in ctx.minimal:
        exp = ctx.expansion(u)
        assert exp.coeffs[u] == alg.torus.ring.one()
        for v in exp.coeffs:
            if v != u:
                assert v not in set(ctx.minimal)


@pytest.mark.parametrize("rtype, backend, length", [("A1", "CON", 8), ("A2", "ADD", 6)])
def test_expansion_simplifies_no_settled_entry(monkeypatch, rtype, backend, length):
    # the entries of x_expansion are settled by the tables, so the checked
    # expansion reads them as they are
    def refuse(self):
        raise AssertionError("a settled entry was simplified again")

    alg = util.algebra(rtype, backend, "small")
    ctx = PetersonContext(alg, alg.torus.group.window(length))
    checked = 0
    for u in ctx.minimal:
        try:
            settled = {v: c.simplify().num for v, c in ctx.x_expansion(u).items()}
        except WindowExceededError:
            continue  # P_u's support leaves the window
        with monkeypatch.context() as patch:
            patch.setattr(Localized, "simplify", refuse)
            assert ctx.expansion(u).coeffs == settled
        checked += 1
    assert checked >= length


def test_element_is_cached_and_checked():
    alg, ctx = context("CON")
    g = alg.torus.group
    u = g.from_word(SIGMA[2])
    assert ctx.element(u) is ctx.element(u)
    with pytest.raises(ConfigError):
        ctx.element(g.simple(1))


def test_peterson_needs_small_torus():
    alg = util.algebra("A1", "CON", "big")
    with pytest.raises(ConfigError):
        PetersonContext(alg, alg.torus.group.window(2))


# -- the translation element and its square ---------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_z_alpha_is_the_first_basis_element(backend):
    alg, ctx = context(backend)
    g = alg.torus.group
    assert alg.z_alpha((1,)) == ctx.element(g.from_word(SIGMA[1]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_z_alpha_square_in_the_basis(backend):
    # Z^2 = P_{sigma_2} + kappa P_{sigma_1} - x_{-alpha} P_{sigma_3}
    alg, ctx = context(backend)
    t = alg.torus
    g = t.group
    z = alg.z_alpha((1,))
    p1 = ctx.element(g.from_word(SIGMA[1]))
    p2 = ctx.element(g.from_word(SIGMA[2]))
    p3 = ctx.element(g.from_word(SIGMA[3]))
    rhs = p2 + t.kappa(1) * p1 - Localized(t, t.neg_simple_x(1)) * p3
    assert util.tw_zero(z * z - rhs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_d_expansion_of_the_square(backend):
    alg, ctx = context(backend)
    t = alg.torus
    g = t.group
    z = alg.z_alpha((1,))
    d = util.verified_d_expansion(ctx, z * z)
    by_word = {ctx.window.word(v): c for v, c in d.items()}
    zero = Localized(t, t.ring.zero())
    assert by_word.get(SIGMA[2], zero) == 1
    assert by_word.get(SIGMA[1], zero) == t.kappa(1)
    assert by_word.get(SIGMA[3], zero) == -Localized(t, t.neg_simple_x(1))
    assert set(by_word) <= {SIGMA[1], SIGMA[2], SIGMA[3]}


def test_d_expansion_rejects_non_translation_support():
    alg, ctx = context("CON")
    with pytest.raises(MembershipError):
        ctx.d_expansion(alg.x_op(0))


# -- centralizer criteria ---------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_basis_elements_are_central(backend):
    alg, ctx = context(backend)
    for u in ctx.minimal:
        assert centralizer_check(alg, ctx.element(u)), ctx.window.word(u)


def test_demazure_generators_are_not_central():
    alg, ctx = context("CON")
    g = alg.torus.group
    for z in (alg.x_op(1), alg.x_op(0), alg.eta(g.simple(1)),
              alg.x_word((0, 1))):
        assert not centralizer_check(alg, z)
    rep = centralizer_report(alg, alg.x_op(1))
    assert rep.consistent and rep.witnesses


# -- structure constants ----------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_structure_identity_small_pairs(backend):
    alg = util.algebra("A1", backend, "small")
    ctx = PetersonContext(alg, alg.torus.group.window(8))
    pairs = ctx.structure_constants(4)
    assert len(pairs) == 15
    for p in pairs:
        assert p.identity_holds, (ctx.window.word(p.u), ctx.window.word(p.v))


def test_structure_pair_verified_route():
    alg = util.algebra("A1", "CON", "small")
    ctx = PetersonContext(alg, alg.torus.group.window(8))
    g = alg.torus.group
    p = ctx.structure_pair(g.from_word(SIGMA[1]), g.from_word(SIGMA[1]))
    assert p.identity_holds
    p1 = ctx.element(g.from_word(SIGMA[1]))
    assert util.verified_d_expansion(ctx, p1 * p1) == p.frak_row
    assert set(p.frak_row) <= set(ctx.minimal)
    # X_{(0)} X_{(0)} collapses through the quadratic relation
    d_words = {ctx.window.word(v): c for v, c in p.d_row.items()}
    assert d_words == {SIGMA[1]: alg.torus.kappa(1)}
    # while the Peterson product genuinely spreads out
    frak_words = {ctx.window.word(v) for v in p.frak_row}
    assert frak_words == {SIGMA[1], SIGMA[2], SIGMA[3]}


def test_structure_identity_outside_the_family():
    # the hyperbolic law, whose braid relations fail from rank two on,
    # keeps the eta-route for the d-table
    alg = util.algebra("A1", "SER", "small", "hyperbolic", precision=10)
    ctx = PetersonContext(alg, alg.torus.group.window(4))
    g = alg.torus.group
    pairs = ctx.structure_constants(2)
    assert len(pairs) == 6
    for p in pairs:
        assert p.identity_holds, (ctx.window.word(p.u), ctx.window.word(p.v))
    s0 = g.from_word(SIGMA[1])
    d_row = ctx.structure_pair(s0, s0).d_row
    assert set(d_row) == {s0}
    assert d_row[s0] == alg.torus.kappa(1)


# -- the Demazure walk against the eta-route ---------------------------------

def _outcome(f):
    """f(), or the text of the error when it leaves the window."""
    try:
        return f()
    except WindowExceededError as exc:
        return str(exc)


def assert_walk_matches_eta_route(ctx, pairs) -> int:
    """Compare `x_product_expansion` with the eta-route on each pair: the
    same entries and values, or the same window error.  Returns the number
    of window errors."""
    errors = 0
    for w2, v in pairs:
        want = _outcome(lambda: util.eta_route_x_product(ctx, w2, v))
        got = _outcome(lambda: ctx.x_product_expansion(w2, v))
        where = (ctx.window.word(w2), ctx.window.word(v))
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, where
            errors += 1
        else:
            assert set(got) == set(want), where
            assert all(got[w] == want[w] for w in want), where
    return errors


@pytest.mark.parametrize("backend", BACKENDS)
def test_demazure_walk_matches_the_eta_route_rank_one(backend):
    alg = util.algebra("A1", backend, "small")
    ctx = PetersonContext(alg, alg.torus.group.window(8))
    elements = ctx.window.elements
    assert assert_walk_matches_eta_route(
        ctx, [(w2, v) for w2 in elements for v in elements])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rtype,length", [("A2", 4), ("B2", 3), ("G2", 3)])
def test_demazure_walk_matches_the_eta_route_rank_two(rtype, length, backend):
    alg = util.algebra(rtype, backend, "small")
    ctx = PetersonContext(alg, alg.torus.group.window(length))
    lengths = ctx.window.lengths
    assert_walk_matches_eta_route(ctx, [
        (w2, v) for w2 in ctx.window.elements for v in ctx.window.elements
        if lengths[w2] + lengths[v] <= length])


def test_demazure_walk_matches_the_eta_route_on_series():
    # at precision 9 the eta-route divides every pair of the window exactly
    alg = util.algebra("A1", "SER", "small", "connective", precision=9)
    ctx = PetersonContext(alg, alg.torus.group.window(4))
    elements = ctx.window.elements
    assert assert_walk_matches_eta_route(
        ctx, [(w2, v) for w2 in elements for v in elements])


# -- Hopf structure ----------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_counit(backend):
    alg, ctx = context(backend)
    z = alg.z_alpha((1,))
    assert counit(alg, alg.one()) == 1
    assert counit(alg, z).is_zero()
    assert counit(alg, z * z).is_zero()
    with pytest.raises(MembershipError):
        counit(alg, alg.x_op(1))


def test_antipode():
    alg, ctx = context("CON")
    g = alg.torus.group
    z = alg.z_alpha((1,))
    s = antipode(alg, z)
    assert antipode(alg, s) == z
    assert s.coefficient(g.translation((-1,))) == z.coefficient(g.translation((1,)))
    with pytest.raises(MembershipError):
        antipode(alg, alg.x_op(0))
    # m (S (x) id) Delta = unit . counit on the group-like part
    acc = alg.zero()
    for (l, r), c in coproduct(alg, z).items():
        acc = acc + c * (alg.eta(g.translation(tuple(-a for a in l)))
                         * alg.eta(g.translation(r)))
    assert util.tw_zero(acc - alg.coerce(counit(alg, z)))


def test_coproduct_is_an_algebra_map():
    alg, ctx = context("CON")
    z = alg.z_alpha((1,))
    dz = coproduct(alg, z)
    assert all(l == r for (l, r) in dz)
    lhs = coproduct(alg, (z * z).simplify())
    rhs = coproduct_multiply(dz, dz)
    zero = Localized(alg.torus, alg.torus.ring.zero())
    for key in set(lhs) | set(rhs):
        assert lhs.get(key, zero) == rhs.get(key, zero), key
    with pytest.raises(MembershipError):
        coproduct(alg, alg.x_op(1))


# -- dual side ---------------------------------------------------------------

def test_k_star_then_pr_star_is_coset_constant_and_gkm():
    alg = util.algebra("A1", "CON", "small")
    tables = util.tables(alg, 6)
    g = alg.torus.group
    for word in ((0,), (1, 0), (0, 1, 0)):
        f = dual_x(tables, g.from_word(word))
        back = pr_star(alg.torus, restrict_to_translations(f), g.window(4))
        assert w_invariance_report(back).invariant
        rep = gkm_check_small(back, 1, grassmannian=True)
        assert rep.passed, (word, rep.violations)
