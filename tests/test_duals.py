"""Dual functionals, the two module actions, and GKM membership checks."""

import random
from collections import Counter
from math import comb

import pytest

from fada.algebra import AlgebraElement, Localized
from fada.connective import ConnectiveContext
from fada.errors import FadaError, WindowExceededError
from fada.twisted import TwistedElement, combine_rows
from fada.duals import (BINOMIAL_SUM, DIFFERENCE, NOT_REGULAR, ORBIT_LEAVES,
                        REFLECTED_ORBIT_LEAVES, REFLECTED_SUM, DualElement,
                        GkmRecord, bullet, characteristic, dual_x,
                        gkm_check_big, gkm_check_small, odot, pair, phi,
                        pr_star, restrict_to_translations,
                        w_invariance_report)

import util

BACKENDS = ("ADD", "MUL", "CON")


def setup_a1(backend="CON", length=4):
    alg = util.algebra("A1", backend, "small")
    return alg, util.tables(alg, length)


# -- pairing ----------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_dual_x_delta_pairing(backend):
    alg, tables = setup_a1(backend)
    win = tables.window
    for w in win.elements:
        f = dual_x(tables, w)
        for v in win.elements:
            got = pair(alg.x_word(win.compat_word(v)), f)
            assert got == (1 if v == w else 0), (win.word(w), win.word(v))


def test_pair_left_linear():
    alg, tables = setup_a1()
    t = alg.torus
    f = dual_x(tables, t.group.from_word((0, 1)))
    z = alg.x_word((0, 1))
    c = Localized(t, t.simple_x(1), (util.nalpha_vec(t),))
    assert pair(c * z, f) == c * pair(z, f)


def test_dual_x_frozen_column():
    # values of the functional dual to X_{(1,)} across the length-4 window
    alg, tables = setup_a1("CON")
    t = alg.torus
    g = t.group
    a = Localized(t, t.simple_x(1))
    b = Localized(t, t.neg_simple_x(1))
    aab = Localized(t, (a * (a - b)).num, (util.nalpha_vec(t),))
    bba = Localized(t, (b * (b - a)).num, (util.alpha_vec(t),))
    f = dual_x(tables, g.simple(1))
    expected = {
        (): 0, (0,): 0, (1,): -a, (1, 0): -a, (0, 1): -b,
        (0, 1, 0): -b, (1, 0, 1): aab, (1, 0, 1, 0): aab,
        (0, 1, 0, 1): bba,
    }
    for word, val in expected.items():
        assert f.get(g.from_word(word)) == val, word


# -- element arithmetic -----------------------------------------------------

def test_dual_element_basics():
    alg, tables = setup_a1()
    t = alg.torus
    g = t.group
    win = tables.window
    f = dual_x(tables, g.simple(1))
    h = dual_x(tables, g.simple(0))
    assert (f + h) - h == f
    assert (-f) + f == DualElement.zero(t, win)
    assert f.scale(2) == f + f
    assert f.get(g.simple(0)).is_zero()
    with pytest.raises(WindowExceededError):
        f.get(g.translation((3,)))
    with pytest.raises(TypeError):
        hash(f)
    small = f.restrict(g.window(2))
    assert small.window.length_bound == 2
    assert small.get(g.simple(1)) == f.get(g.simple(1))
    assert "Dual" in repr(f)


def test_characteristic_is_phi_with_unit():
    alg, _ = setup_a1()
    t = alg.torus
    u = t.simple_x(1) * t.simple_x(1) + t.neg_simple_x(1)
    win = t.group.window(3)
    assert characteristic(t, u, win) == phi(t, t.ring.one(), u, win)
    v = t.simple_x(1)
    lhs = phi(t, v, u, win)
    for w in win.elements:
        assert lhs.get(w) == Localized(t, v * t.act_elem(w, u))


# -- module actions ---------------------------------------------------------

def test_bullet_of_demazure_is_divided_difference():
    # (X_i . char(u))[w] = w(Delta_i u) for every torus element u
    alg, tables = setup_a1()
    t = alg.torus
    win4 = t.group.window(4)
    win3 = t.group.window(3)
    u = t.simple_x(1) * t.simple_x(1)
    f = characteristic(t, u, win4)
    for i in (0, 1):
        got = bullet(alg.x_op(i), f, win3)
        want = characteristic(t, t.demazure(i, u), win3)
        assert got == want, i


def test_bullet_is_a_left_action():
    alg, tables = setup_a1(length=6)
    g = alg.torus.group
    f = dual_x(util.tables(alg, 6), g.from_word((0, 1, 0)))
    z1 = alg.x_word((1, 0))
    z2 = alg.x_word((0,))
    w5, w3 = g.window(5), g.window(3)
    lhs = bullet(z1 * z2, f, w3)
    rhs = bullet(z1, bullet(z2, f, w5), w3)
    assert lhs == rhs


def test_odot_is_a_left_action():
    alg, tables = setup_a1(length=6)
    g = alg.torus.group
    f = dual_x(util.tables(alg, 6), g.from_word((0, 1, 0)))
    z1 = alg.x_word((1,))
    z2 = alg.x_word((0, 1))
    w4, w3 = g.window(4), g.window(3)
    lhs = odot(z1 * z2, f, w3)
    rhs = odot(z1, odot(z2, f, w4), w3)
    assert lhs == rhs


def test_bullet_and_odot_commute():
    alg, tables = setup_a1(length=6)
    g = alg.torus.group
    f = dual_x(util.tables(alg, 6), g.from_word((0, 1, 0)))
    z1 = alg.x_word((1,))
    z2 = alg.eta(g.simple(0))
    w4, w3 = g.window(4), g.window(3)
    lhs = bullet(z1, odot(z2, f, w4), w3)
    rhs = odot(z2, bullet(z1, f, w4), w3)
    assert lhs == rhs


def test_out_window_must_leave_room():
    alg, tables = setup_a1()
    g = alg.torus.group
    f = dual_x(tables, g.simple(1))
    with pytest.raises(Exception):
        bullet(alg.x_word((0, 1)), f, g.window(4))


# -- invariance -------------------------------------------------------------

def invariant_translation_function(t, window):
    g = {
        (0,): Localized(t, t.ring.one()),
        (1,): Localized(t, t.simple_x(1)),
        (-1,): Localized(t, t.neg_simple_x(1)),
        (2,): Localized(t, t.simple_x(1) * t.simple_x(1)),
        (-2,): Localized(t, t.ring.from_scalar(3)),
    }
    return g, pr_star(t, g, window)


def test_pr_star_is_coset_constant():
    alg, _ = setup_a1()
    t = alg.torus
    g, f = invariant_translation_function(t, t.group.window(4))
    rep = w_invariance_report(f)
    assert rep.invariant and rep.checked > 0
    assert not combine_rows(((1, restrict_to_translations(f)), (-1, g)))


def test_pr_star_reads_lattice_points_the_function_leaves_out_as_zero():
    alg, _ = setup_a1()
    t = alg.torus
    win = t.group.window(4)
    g = {(1,): Localized(t, t.ring.one()), (0,): Localized(t, t.ring.zero())}
    f = pr_star(t, g, win)
    assert f.values and all(x.w.act_coroot(x.t) == (1,) for x in f.values)
    assert restrict_to_translations(f) == {(1,): g[(1,)]}


def test_bullet_invariance_holds_but_odot_fails():
    # coset-constant functions are fixed by eta_{s_1} under the dot action;
    # the circle action twists values and does not fix them
    alg, _ = setup_a1()
    t = alg.torus
    g = t.group
    _, f = invariant_translation_function(t, g.window(4))
    win = g.window(3)
    s1 = alg.eta(g.simple(1))
    assert bullet(s1, f, win) == f.restrict(win)
    assert odot(s1, f, win) != f.restrict(win)


def test_invariance_report_failures():
    alg, tables = setup_a1()
    g = alg.torus.group
    rep = w_invariance_report(dual_x(tables, g.simple(1)))
    assert not rep.invariant
    assert any("s1" in rep.describe(failure) for failure in rep.failures)


# -- GKM, small torus -------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_duals_satisfy_small_gkm(backend):
    alg = util.algebra("A1", backend, "small")
    tables = util.tables(alg, 6)
    for w in tables.window.elements:
        rep = gkm_check_small(dual_x(tables, w), 2)
        assert rep.passed, (backend, tables.window.word(w), rep.violations)
        assert rep.checked > 0
        assert rep.skipped  # orbit tails always leave a finite window


def test_linear_combinations_satisfy_small_gkm():
    alg, _ = setup_a1("CON", 6)
    tables = util.tables(alg, 6)
    t = alg.torus
    g = t.group
    f = (dual_x(tables, g.simple(0)).scale(Localized(t, t.simple_x(1)))
         + dual_x(tables, g.from_word((0, 1))).scale(3)
         - dual_x(tables, g.from_word((1, 0, 1))))
    rep = gkm_check_small(f, 2)
    assert rep.passed, rep.violations


def test_small_gkm_rejects_perturbation():
    alg, tables = setup_a1("CON", 4)
    t = alg.torus
    g = t.group
    f = dual_x(tables, g.from_word((0, 1)))
    bad = dict(f.values)
    tr = g.translation((1,))
    bad[tr] = f.get(tr) + 1
    rep = gkm_check_small(DualElement(t, f.window, bad), 1)
    assert not rep.passed
    assert rep.violations


def test_small_gkm_rejects_irregular_values():
    alg, tables = setup_a1("CON", 4)
    t = alg.torus
    g = t.group
    vals = {g.identity: Localized(t, t.ring.one(), (util.alpha_vec(t),))}
    rep = gkm_check_small(DualElement(t, g.window(4), vals), 1)
    assert not rep.passed
    assert "not regular" in rep.violations[0]


def test_grassmannian_flag_skips_reflected_condition():
    alg, tables = setup_a1("CON", 4)
    g = alg.torus.group
    f = dual_x(tables, g.simple(0))
    full = gkm_check_small(f, 2)
    grass = gkm_check_small(f, 2, grassmannian=True)
    assert grass.passed
    assert grass.checked < full.checked


def test_small_gkm_a2():
    alg = util.algebra("A2", "CON", "small")
    tables = util.tables(alg, 3)
    g = alg.torus.group
    for word in ((), (1,), (0, 2, 1)):
        rep = gkm_check_small(dual_x(tables, g.from_word(word)), 1)
        assert rep.passed, (word, rep.violations)
    rep = gkm_check_small(dual_x(tables, g.simple(1)), 1)
    assert rep.checked > len(tables.window.elements)  # beyond regularity


def test_gkm_summary_line():
    alg, tables = setup_a1("CON", 4)
    rep = gkm_check_small(dual_x(tables, alg.torus.group.simple(1)), 1)
    assert "GKM(small,CON,D=1)" in rep.summary()
    assert "0 violations" in rep.summary()


# -- GKM records as text -------------------------------------------------------

def described(rep, reason):
    return [rep.describe(r) for r in rep.skipped + rep.violations if r.reason == reason]


def test_describe_not_regular():
    alg, _ = setup_a1("CON", 4)
    t = alg.torus
    g = t.group
    vals = {g.identity: Localized(t, t.ring.one(), (util.alpha_vec(t),))}
    rep = gkm_check_small(DualElement(t, g.window(4), vals), 1)
    assert [rep.describe(r) for r in rep.violations] == ["value at e is not regular"]


def test_describe_binomial_sum_and_orbit_leaves():
    alg, tables = setup_a1("CON", 4)
    g = alg.torus.group
    f = dual_x(tables, g.from_word((0, 1)))
    rep = gkm_check_small(util.bumped(f, g.from_word((1, 0, 1, 0)), 1), 2)
    assert [rep.describe(r) for r in rep.violations] == [
        "binomial sum for alpha=(1,) d=1 w=s1 s0 s1 s0 not in x^1 S",
        "binomial sum for alpha=(1,) d=2 w=s1 s0 s1 s0 not in x^2 S"]
    assert "alpha=(1,) d=2 w=s0 s1 s0: orbit leaves window" in described(rep, ORBIT_LEAVES)


def test_describe_reflected_sum():
    # a bump in x_alpha S passes degree 1 and fails degree 2
    alg, tables = setup_a1("CON", 4)
    t = alg.torus
    g = t.group
    f = dual_x(tables, g.from_word((0, 1)))
    rep = gkm_check_small(util.bumped(f, g.from_word((0, 1, 0)), t.simple_x(1)), 2)
    assert described(rep, REFLECTED_SUM) == [
        "reflected sum for alpha=(1,) d=2 w=s1 s0 not in x^2 S"]
    assert described(rep, BINOMIAL_SUM) == [
        "binomial sum for alpha=(1,) d=2 w=s1 not in x^2 S"]


def test_describe_difference():
    alg = util.algebra("A1", "CON", "big")
    tables = util.tables(alg, 4)
    g = alg.torus.group
    s1 = g.simple(1)
    rep = gkm_check_big(util.bumped(dual_x(tables, s1), s1, 1))
    assert [rep.describe(r) for r in rep.violations] == [
        "f[e] - f[s1] not divisible by x_((1,), 0)",
        "f[s1] - f[s0 s1] not divisible by x_((-1,), 1)",
        "f[s1] - f[s1 s0] not divisible by x_((1,), 1)",
        "f[s1] - f[s0 s1 s0 s1] not divisible by x_((-1,), 2)",
        "f[s1] - f[s1 s0 s1 s0] not divisible by x_((1,), 2)"]


def binomial_gkm(f, degree_bound, grassmannian=False):
    """Oracle for `gkm_check_small`: each condition as a signed binomial sum
    over the orbit points, recomputed for every degree.  Returns the checked
    count and the skipped and violation records."""
    torus = f.torus
    group = torus.group
    window = f.window
    zero = Localized(torus, torus.ring.zero())
    checked, skipped, violations = 0, [], []
    for w in window.elements:
        checked += 1
        if f.get(w).simplify().den:
            violations.append(GkmRecord(None, 0, w, NOT_REGULAR))
    if violations:
        return checked, skipped, violations

    def in_ideal(acc, beta, d):
        s = acc.simplify()
        return not s.den and util.divisible_uncached(torus, s.num, beta, d)

    def orbit(shifts, w):
        points = [group.mul(t, w) for t in shifts]
        return points if all(p in window for p in points) else None

    for alpha in torus.datum.positive_roots:
        beta = (alpha, 0)
        s_alpha = group.affine_reflection(beta)
        coroot = torus.datum.coroot_of[alpha]
        shifts = [group.translation(tuple(j * c for c in coroot))
                  for j in range(degree_bound + 1)]
        for d in range(1, degree_bound + 1):
            for w in window.elements:
                points = orbit(shifts[:d + 1], w)
                if points is None:
                    skipped.append(GkmRecord(alpha, d, w, ORBIT_LEAVES))
                    continue
                checked += 1
                acc = zero
                for j, p in enumerate(points):
                    acc = acc + f.get(p) * ((-1) ** j * comb(d, j))
                if not in_ideal(acc, beta, d):
                    violations.append(GkmRecord(alpha, d, w, BINOMIAL_SUM))
                    continue
                if grassmannian:
                    continue
                reflected = orbit(shifts[:d], group.mul(s_alpha, w))
                if reflected is None:
                    skipped.append(GkmRecord(alpha, d, w, REFLECTED_ORBIT_LEAVES))
                    continue
                checked += 1
                acc = zero
                for j, (p, q) in enumerate(zip(points, reflected)):
                    acc = acc + (f.get(p) - f.get(q)) * ((-1) ** j * comb(d - 1, j))
                if not in_ideal(acc, beta, d):
                    violations.append(GkmRecord(alpha, d, w, REFLECTED_SUM))
    return checked, skipped, violations


@pytest.mark.parametrize("rtype,backend,fgl,precision,length,degree_bound", [
    ("A1", "CON", None, 8, 6, 3),
    ("A2", "ADD", None, 8, 4, 2),
    ("G2", "CON", None, 8, 3, 2),
    ("A1", "SER", "hyperbolic", 12, 3, 2),
    ("B2", "MUL", None, 8, 4, 2),
    ("A2", "CON", None, 8, 5, 3),
], ids=["A1-CON", "A2-ADD", "G2-CON", "A1-SER-hyperbolic", "B2-MUL", "A2-CON"])
def test_small_gkm_matches_the_binomial_sum_oracle(rtype, backend, fgl, precision,
                                                   length, degree_bound):
    alg = util.algebra(rtype, backend, "small", fgl=fgl, precision=precision)
    tables = util.tables(alg, length)
    window = tables.window
    duals = [dual_x(tables, w) for w in window.elements]
    rng = random.Random(length * 1000 + degree_bound)
    shallow = [w for w in window.elements if window.lengths[w] <= 2]
    roots = alg.torus.datum.positive_roots
    for k in range(12):
        f = rng.choice(duals)
        v = rng.choice(shallow)
        bad = dict(f.values)
        bump = rng.randint(1, 7)
        if k >= 8:
            # a bump in x_alpha S passes degree 1 and fails degree 2
            bump = bump * alg.torus.x_root((rng.choice(roots), 0))
        bad[v] = f.get(v) + bump
        duals.append(DualElement(alg.torus, window, bad))
    seen = Counter()
    for f in duals:
        for grassmannian in (False, True):
            rep = gkm_check_small(f, degree_bound, grassmannian=grassmannian)
            checked, skipped, violations = binomial_gkm(f, degree_bound, grassmannian)
            assert rep.checked == checked
            assert Counter(rep.skipped) == Counter(skipped)
            assert Counter(rep.violations) == Counter(violations)
            seen.update(r.reason for r in rep.skipped + rep.violations)
    # skips and violations both occur, so the comparison is not vacuous
    assert seen[ORBIT_LEAVES] and seen[BINOMIAL_SUM] + seen[REFLECTED_SUM]
    # on G2 at this window no reflected orbit leaves before its orbit does
    assert seen[REFLECTED_ORBIT_LEAVES] or rtype == "G2"


def gkm_outcome(check, f, *args, **kwargs):
    """A GKM report as (checked, skipped, violations), records in order, or
    the type and text of the error the check raised."""
    try:
        rep = check(f, *args, **kwargs)
    except FadaError as exc:
        return type(exc).__name__, str(exc)
    return rep.checked, rep.skipped, rep.violations


@pytest.mark.parametrize("rtype,backend,fgl,precision,length", [
    (rtype, backend, None, 8, length)
    for rtype, length in (("A1", 6), ("A2", 4), ("B2", 4), ("G2", 5))
    for backend in BACKENDS
] + [("A1", "SER", "hyperbolic", 8, 4)])
def test_small_gkm_matches_the_dense_walk(rtype, backend, fgl, precision, length):
    alg = util.algebra(rtype, backend, "small", fgl=fgl, precision=precision)
    t = alg.torus
    tables = util.tables(alg, length)
    window = tables.window
    rng = random.Random(rtype + backend)
    duals = [dual_x(tables, w) for w in window.elements]
    shallow = [w for w in window.elements if window.lengths[w] <= 2]
    roots = t.datum.positive_roots
    cases = rng.sample(duals, min(10, len(duals)))
    for k in range(6):
        bump = rng.randint(1, 7)
        if k >= 3:
            bump = bump * t.x_root((rng.choice(roots), 0))
        cases.append(util.bumped(rng.choice(duals), rng.choice(shallow), bump))
    for _ in range(3):
        cases.append(sum((f.scale(rng.randint(1, 5)) for f in rng.sample(duals, 3)),
                         DualElement.zero(t, window)))
    cases.append(DualElement(t, window, {
        window.elements[1]: Localized(t, t.ring.one(), (util.alpha_vec(t),))}))
    seen = Counter()
    for f in cases:
        for degree_bound in (1, 2, 3):
            for grassmannian in (False, True):
                got = gkm_outcome(gkm_check_small, f, degree_bound, grassmannian=grassmannian)
                assert got == gkm_outcome(util.gkm_check_small_dense, f, degree_bound,
                                          grassmannian=grassmannian)
                if isinstance(got[0], str):
                    seen[got[0]] += 1
                else:
                    seen.update(r.reason for r in got[1] + got[2])
    # skips, violations and, on SER, exhausted precision all occur
    assert seen[ORBIT_LEAVES] and seen[NOT_REGULAR]
    assert seen[BINOMIAL_SUM] and seen[REFLECTED_SUM]
    assert seen["PrecisionError"] or backend != "SER"


# -- GKM, big torus ---------------------------------------------------------

def test_big_gkm_for_characteristic_values():
    alg = util.algebra("A1", "CON", "big")
    t = alg.torus
    win = t.group.window(4)
    u = t.ring.x_of((1, 0))
    f = characteristic(t, u * u + u, win)
    rep = gkm_check_big(f)
    assert rep.passed, rep.violations
    assert rep.checked > len(win.elements)


def test_big_gkm_rejects_perturbation():
    alg = util.algebra("A1", "CON", "big")
    t = alg.torus
    win = t.group.window(4)
    f = characteristic(t, t.ring.x_of((1, 0)), win)
    bad = dict(f.values)
    w0 = t.group.simple(1)
    bad[w0] = f.get(w0) + 1
    rep = gkm_check_big(DualElement(t, win, bad))
    assert not rep.passed


BIG_ORACLE_CASES = [(rtype, backend, None, 8, length)
                    for rtype, length in (("A1", 6), ("A2", 4), ("B2", 4), ("G2", 4))
                    for backend in BACKENDS] + [("A1", "SER", "hyperbolic", 14, 4),
                                                ("A2", "SER", "hyperbolic", 8, 2)]


@pytest.mark.parametrize("rtype,backend,fgl,precision,length", BIG_ORACLE_CASES,
                         ids=["%s-%s-L%d" % (c[0], c[1], c[4]) for c in BIG_ORACLE_CASES])
def test_big_gkm_matches_the_all_pairs_walk(rtype, backend, fgl, precision, length):
    alg = util.algebra(rtype, backend, "big", fgl=fgl, precision=precision)
    t = alg.torus
    tables = util.tables(alg, length)
    window = tables.window
    rng = random.Random(rtype + backend + "big")
    duals = [dual_x(tables, w) for w in window.elements]
    shallow = [w for w in window.elements if window.lengths[w] <= 2]
    roots = [(alpha, m) for alpha in t.datum.roots for m in (0, 1)]
    cases = rng.sample(duals, min(10, len(duals)))
    for k in range(6):
        bump = rng.randint(1, 7)
        if k >= 3:
            # divisible along the reflections of one affine root only
            bump = bump * t.x_root(rng.choice(roots))
        cases.append(util.bumped(rng.choice(duals), rng.choice(shallow), bump))
    for _ in range(3):
        cases.append(sum((f.scale(rng.randint(1, 5)) for f in rng.sample(duals, 3)),
                         DualElement.zero(t, window)))
    cases.append(DualElement(t, window, {
        window.elements[1]: Localized(t, t.ring.one(), (t.embed_root(t.group.simple_root(1)),))}))
    seen = Counter()
    for f in cases:
        got = gkm_outcome(gkm_check_big, f)
        assert got == gkm_outcome(util.gkm_check_big_all_pairs, f)
        if isinstance(got[0], str):
            seen[got[0]] += 1
        else:
            seen.update(r.reason for r in got[2])
            seen["passed"] += not got[2]
    # passes, violations and values that are not regular all occur
    assert seen["passed"] and seen[DIFFERENCE] and seen[NOT_REGULAR]


# -- support-only loops against the full-window oracles -----------------------

ORACLE_CASES = [(rtype, backend, length, None, 8)
                for rtype, length in (("A1", 6), ("A2", 4), ("B2", 3), ("G2", 3))
                for backend in BACKENDS] + [("A1", "SER", 4, "connective", 10)]


def _same(a, b):
    # the same value, certified precision and denominator as printed
    return (a.num.terms, a.num.prec, a.den_map) == (b.num.terms, b.num.prec, b.den_map)


@pytest.mark.parametrize("rtype,backend,length,fgl,precision", ORACLE_CASES,
                         ids=["%s-%s-L%d" % c[:3] for c in ORACLE_CASES])
def test_dual_loops_match_full_window_oracles(rtype, backend, length, fgl, precision):
    alg = util.algebra(rtype, backend, "small", fgl, precision)
    tables = util.tables(alg, length)
    win = tables.window
    g = alg.torus.group
    out = g.window(length - 1)
    ops = [op(i) for i in range(g.datum.rank + 1) for op in (alg.x_op, alg.y_op)]
    if rtype == "A1":
        # Y_{w_0} mixes denominators, so its terms are lifted to an lcm
        ops.append(ConnectiveContext(alg).y_w0())
    words = [alg.x_word(win.compat_word(v)) for v in win.elements]
    for w in win.elements:
        f = dual_x(tables, w)
        for z in words:
            # unsimplified sums: on the exact backends the zeros that pair
            # no longer lifts change the denominator, not the value
            got, want = pair(z, f), util.pair_full(z, f)
            assert _same(got, want) if backend == "SER" else got == want
        for z in ops:
            for act, oracle in ((bullet, util.bullet_full), (odot, util.odot_full)):
                got, want = act(z, f, out), oracle(z, f, out)
                assert got.values.keys() == want.values.keys()
                for u, a in got.values.items():
                    assert _same(a, want.values[u])


@pytest.mark.parametrize("act,oracle", [(bullet, util.bullet_full), (odot, util.odot_full)])
def test_a_ser_zero_still_costs_its_denominator_in_the_dual_loops(act, oracle):
    # (z . f)[e] = f[e] + (1/x_a) f[s_1] with f[s_1] = 0, and the same for
    # z o f: on SER the zero is O(p) over x_a, so the sum is lifted to x_a
    # and dividing it back out certifies one degree less
    alg = util.algebra("A1", "SER", "small", "connective", 10)
    t = alg.torus
    g = t.group
    e, s1 = g.identity, g.simple(1)
    one = Localized(t, t.ring.one())
    inv = Localized(t, t.ring.one(), (t.embed_root(g.simple_root(1)),))
    f = DualElement(t, g.window(1), {e: one})
    z = TwistedElement(alg, {e: one, s1: inv})
    got, want = act(z, f, g.window(0)), oracle(z, f, g.window(0))
    assert want.values[e].num.prec == 9
    assert _same(got.values[e], want.values[e])


@pytest.mark.parametrize("act,oracle,name", [
    (bullet, util.bullet_full, "bullet shift u*w"),
    (odot, util.odot_full, "odot shift v^{-1}*u"),
])
def test_a_shift_off_the_support_still_leaves_the_window(act, oracle, name):
    # f vanishes everywhere but at e, and the out window is the whole window:
    # the shifts of its longest elements leave it where f is zero
    alg, tables = setup_a1("CON", 4)
    t, win = alg.torus, tables.window
    f = DualElement(t, win, {t.group.from_word(()): Localized(t, t.ring.one())})
    z = alg.x_op(1)
    with pytest.raises(WindowExceededError) as want:
        oracle(z, f, win)
    with pytest.raises(WindowExceededError) as got:
        act(z, f, win)
    assert str(got.value) == str(want.value)
    assert name in str(got.value)


def test_a_pairing_off_the_support_still_leaves_the_window():
    alg, tables = setup_a1("CON", 4)
    t, win = alg.torus, tables.window
    f = DualElement(t, win, {t.group.from_word(()): Localized(t, t.ring.one())})
    far = alg.x_word((1, 0, 1, 0, 1))
    with pytest.raises(WindowExceededError) as want:
        util.pair_full(far, f)
    with pytest.raises(WindowExceededError) as got:
        pair(far, f)
    assert str(got.value) == str(want.value)
    assert "dual evaluation" in str(got.value)
