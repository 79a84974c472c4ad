"""Release gate: ten timed end-to-end checks at full scale.

Each check exercises a shipping requirement on the sizes it promises, asserts
exact values (no tolerances on the exact backends), and records a one-line
verdict in RESULT_LINES; the conftest hook prints the collected lines after
the run.  A check fails either on a wrong value or on blowing its time budget.
"""

import random
import time
from contextlib import contextmanager
from typing import List

import pytest

from fada.algebra import Localized
from fada.connective import (ConnectiveContext, bullet_yw0_check,
                             check_recursion, hecke_action_check)
from fada.duals import (DualElement, bullet, dual_x, gkm_check_small, pair,
                        w_invariance_report)
from fada.errors import PrecisionError, WindowExceededError
from fada.peterson import PetersonContext, antipode, centralizer_check, counit, pr
from fada.scalars import Scalar
from fada.twisted import braid_check
from fada.a1hat import appendix_crosscheck, s_leq_coeffs

import util

RESULT_LINES: List[str] = []

SIGMA = {1: (0,), 2: (1, 0), 3: (0, 1, 0)}

_CTX = {}


@contextmanager
def criterion(num, description, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULT_LINES.append("criterion %2d: FAIL  %s (%.1fs)"
                            % (num, description, time.perf_counter() - t0))
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    RESULT_LINES.append("criterion %2d: %s  %s (%.1fs, budget %ds)"
                        % (num, verdict, description, elapsed, budget))
    assert elapsed < budget, \
        "time budget exceeded: %.1fs >= %ds" % (elapsed, budget)


def peterson_a1(backend, length=4):
    key = (backend, length)
    if key not in _CTX:
        alg = util.algebra("A1", backend, "small")
        _CTX[key] = (alg, PetersonContext(alg, alg.torus.group.window(length)))
    return _CTX[key]


def e_alpha(t):
    return t.ring.element({(1,): Scalar.const(1, t.ring.params)})


# -- 1: rank-one basis goldens under three specializations -------------------

def test_criterion_01_rank_one_goldens():
    with criterion(1, "rank-one basis goldens on additive, multiplicative, "
                      "and generic connective backends", 10):
        for backend in ("ADD", "MUL", "CON"):
            alg, ctx = peterson_a1(backend)
            t = alg.torus
            g = t.group
            one = t.ring.one()
            by_word = lambda u: {ctx.window.word(v): c
                                 for v, c in ctx.expansion(u).coeffs.items()}
            got1 = by_word(g.from_word(SIGMA[1]))
            assert got1 == {(0,): one, (1,): one,
                            (0, 1): -t.neg_simple_x(1)}, backend
            corr = one if backend == "ADD" else e_alpha(t)
            got2 = by_word(g.from_word(SIGMA[2]))
            assert got2 == {(1, 0): one, (0, 1): corr}, backend
            got3 = by_word(g.from_word(SIGMA[3]))
            assert got3 == {(0, 1, 0): one, (1, 0, 1): one,
                            (0, 1, 0, 1): -t.neg_simple_x(1)}, backend


# -- 2: the translation element in Demazure form -----------------------------

def test_criterion_02_translation_element_golden():
    with criterion(2, "Z_alpha Demazure form on every law, including the "
                      "truncated backend, with regular coefficients", 5):
        builds = [util.algebra("A1", b, "small") for b in ("ADD", "MUL", "CON")]
        builds.append(util.algebra("A1", "SER", "small",
                                   fgl="connective", precision=8))
        builds.append(util.algebra("A1", "SER", "small",
                                   fgl="hyperbolic", precision=8))
        for alg in builds:
            t = alg.torus
            za = alg.z_alpha((1,))
            b = Localized(t, t.neg_simple_x(1))
            rhs = alg.x_op(0) + alg.x_op(1) - b * (alg.x_op(0) * alg.x_op(1))
            assert util.tw_zero(za - rhs), t.backend

        # specialized correction coefficients, and no denominators survive
        for backend, want in (("ADD", None), ("MUL", None), ("CON", None)):
            alg = util.algebra("A1", backend, "small")
            t = alg.torus
            tb = util.tables(alg, 2)
            exp = tb.expand_in_x(alg.z_alpha((1,)))
            assert all(not c.simplify().den for c in exp.values()), backend
            corr = {tb.window.word(v): c for v, c in exp.items()}[(0, 1)]
            if backend == "ADD":
                assert corr == Localized(t, t.simple_x(1))
            elif backend == "MUL":
                assert corr == Localized(t, e_alpha(t) - t.ring.one())
            else:
                assert corr == -Localized(t, t.neg_simple_x(1))


# -- 3: GKM membership at scale ----------------------------------------------

def coefficient_pool(t):
    pool = [1, 2, 3, Localized(t, t.ring.from_scalar(5))]
    for i in range(1, t.group.datum.rank + 1):
        pool.append(Localized(t, t.simple_x(i)))
        pool.append(Localized(t, t.neg_simple_x(i)))
    return pool


def test_criterion_03_gkm_at_scale():
    with criterion(3, "GKM conditions for every dual basis functional and "
                      "random combinations; seeded violators rejected", 120):
        for rtype, backend, length, seed in (("A1", "MUL", 8, 311),
                                             ("A2", "CON", 6, 312)):
            alg = util.algebra(rtype, backend, "small")
            t = alg.torus
            tb = util.tables(alg, length)
            win = tb.window
            duals = {w: dual_x(tb, w) for w in win.elements}
            for w, f in duals.items():
                rep = gkm_check_small(f, 2)
                assert rep.passed, (rtype, win.word(w), rep.violations[:2])
                assert rep.checked > 0

            rng = random.Random(seed)
            elems = list(win.elements)
            pool = coefficient_pool(t)
            for _ in range(10):
                picks = rng.sample(elems, rng.randint(1, 3))
                f = DualElement.zero(t, win)
                for w in picks:
                    f = f + duals[w].scale(rng.choice(pool))
                rep = gkm_check_small(f, 2)
                assert rep.passed, rep.violations[:2]

            # a constant bump at one point is never divisible by a root
            shallow = [w for w in elems if win.lengths[w] <= 2]
            for _ in range(25):
                w = rng.choice(elems)
                v = rng.choice(shallow)
                bad = dict(duals[w].values)
                bad[v] = duals[w].get(v) + rng.randint(1, 7)
                rep = gkm_check_small(DualElement(t, win, bad), 2)
                assert not rep.passed, (rtype, win.word(w), win.word(v))

            for u in win.minimal_coset_reps():
                rep = gkm_check_small(duals[u], 2, grassmannian=True)
                assert rep.passed, (rtype, win.word(u))
                inv = w_invariance_report(duals[u])
                assert inv.invariant and inv.checked > 0, (rtype, win.word(u))


# -- 4: centralizer membership ------------------------------------------------

def test_criterion_04_centralizer():
    with criterion(4, "basis elements centralize the group algebra, Demazure "
                      "words do not, and expansions have unitriangular shape",
                   60):
        alg, ctx = peterson_a1("CON", 8)
        g = alg.torus.group
        minimal = set(ctx.minimal)
        assert len(minimal) == 9
        for u in ctx.minimal:
            assert centralizer_check(alg, ctx.element(u)), ctx.window.word(u)
            exp = ctx.expansion(u)
            assert exp.coeffs[u] == alg.torus.ring.one()
            assert all(v not in minimal for v in exp.coeffs if v != u)
        for v in ctx.window.elements:
            if g.is_translation(v):
                continue
            word = ctx.window.compat_word(v)
            assert not centralizer_check(alg, alg.x_word(word)), word

        alg2 = util.algebra("A2", "CON", "small")
        g2 = alg2.torus.group
        ctx2 = PetersonContext(alg2, g2.window(6))
        shapes = 0
        refusals = 0
        for u in ctx2.minimal:
            assert centralizer_check(alg2, ctx2.element(u)), ctx2.window.word(u)
            try:
                exp = ctx2.expansion(u)
            except WindowExceededError:
                refusals += 1  # support leaves the window; refusing is correct
                continue
            assert exp.coeffs[u] == alg2.torus.ring.one()
            assert all(v not in set(ctx2.minimal) for v in exp.coeffs if v != u)
            shapes += 1
        assert len(ctx2.minimal) == 16 and shapes == 13 and refusals == 3
        for word in ((1,), (2,), (1, 2), (0, 1), (2, 1)):
            assert not centralizer_check(alg2, alg2.x_word(word)), word


# -- 5: structure constant identity ------------------------------------------

def test_criterion_05_structure_identity():
    with criterion(5, "structure identity for all rank-one pairs with total "
                      "length at most six", 60):
        alg, ctx = peterson_a1("CON", 8)
        g = alg.torus.group
        rows = ctx.structure_constants(6)
        assert len(rows) == 28
        for p in rows:
            assert p.identity_holds, (ctx.window.word(p.u),
                                      ctx.window.word(p.v))
        spot = ctx.structure_pair(g.from_word(SIGMA[1]),
                                  g.from_word(SIGMA[1]))
        assert spot.identity_holds
        p1 = ctx.element(g.from_word(SIGMA[1]))
        assert util.verified_d_expansion(ctx, p1 * p1) == spot.frak_row
        d_words = {ctx.window.word(v): c for v, c in spot.d_row.items()}
        assert d_words == {SIGMA[1]: alg.torus.kappa(1)}
        assert {ctx.window.word(v) for v in spot.frak_row} == \
            {SIGMA[1], SIGMA[2], SIGMA[3]}


# -- 6: connective recursions and changes of basis ----------------------------

def run_connective_block(alg, length, letters):
    cc = ConnectiveContext(alg)
    g = alg.torus.group
    tb = util.tables(alg, length)
    win = tb.window
    out = g.window(length - 1)
    for v in g.window(2).elements:
        for i in letters:
            for basis in ("X", "Y"):
                assert hecke_action_check(cc, tb, win, out, i, v, basis), \
                    (win.word(v), i, basis)
    datum = alg.torus.datum
    w0_len = len(datum.longest_element.word)
    out_b = g.window(length - w0_len)
    minimal = set(win.minimal_coset_reps())
    for v in out_b.elements:
        holds, vanishes = bullet_yw0_check(cc, tb, win, out_b, v)
        assert holds, win.word(v)
        if v in minimal:
            assert not vanishes, win.word(v)
    for w in win.elements:
        got = cc.x_in_y(win, w)
        assert util.tw_zero(got - alg.x_word(win.compat_word(w))), win.word(w)
    for flavor in ("x", "y"):
        rep = check_recursion(cc, win, flavor)
        assert rep.passed, rep.failures[:2]
    return True


def test_criterion_06_connective_recursions():
    with criterion(6, "Hecke closed forms, Y_w0 images, X/Y change of basis, "
                      "and row recursions at scale", 120):
        assert run_connective_block(util.algebra("A1", "CON", "small"), 8,
                                    (0, 1))
        assert run_connective_block(util.algebra("A2", "CON", "small"), 5,
                                    (0, 1, 2))


# -- 7: rank-one closed forms ------------------------------------------------

def test_criterion_07_rank_one_closed_forms():
    with criterion(7, "truncated sum goldens, both recurrences through "
                      "degree eight, and closed forms against the solver", 60):
        assert s_leq_coeffs(3, 3) == [1, 3, 6, 10]
        for i in range(1, 9):
            for a in range(0, 9):
                lhs = s_leq_coeffs(i, a)
                shifted = [0] + s_leq_coeffs(i, a - 1)
                other = s_leq_coeffs(i - 1, a)
                rhs = [0] * len(lhs)
                for j, c in enumerate(shifted):
                    rhs[j] += c
                for j, c in enumerate(other):
                    rhs[j] += c
                assert lhs == rhs, (i, a)
                # the same coefficients count monomials of bounded degree
                assert all(c > 0 for c in lhs)
        for backend in ("ADD", "MUL", "CON"):
            rep = appendix_crosscheck(util.algebra("A1", backend, "small"), 4)
            assert rep.passed, (backend, rep.mismatches[:2])
            assert rep.compared == 9


# -- 8: braid relations decide the law ---------------------------------------

def test_criterion_08_braid_dichotomy():
    with criterion(8, "braid relations hold for the connective law and fail "
                      "for the hyperbolic one, with a reported witness", 30):
        alg = util.algebra("A2", "CON", "small")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            rep = braid_check(alg, i, j)
            assert rep.holds and rep.witness is None, (i, j)
            assert "holds" in rep.line()
        for precision in (6, 8):
            hyp = util.algebra("A2", "SER", "small", fgl="hyperbolic",
                               precision=precision)
            rep = braid_check(hyp, 1, 2)
            assert not rep.holds, precision
            assert rep.witness and "eta[" in rep.witness
            assert "fails" in rep.line()
        # below the honest threshold the check must refuse, not guess
        shallow = util.algebra("A2", "SER", "small", fgl="hyperbolic",
                               precision=4)
        with pytest.raises(PrecisionError, match="precision"):
            braid_check(shallow, 1, 2)


# -- 9: backends agree under specialization ----------------------------------

def test_criterion_09_backend_coherence():
    with criterion(9, "generic goldens specialize to both exact models and "
                      "recompute identically on the truncated backend", 120):
        con, ctx_c = peterson_a1("CON")
        mul, ctx_m = peterson_a1("MUL")
        add, ctx_a = peterson_a1("ADD")
        ser_c = util.algebra("A1", "SER", "small", fgl="connective",
                             precision=8)
        ser_a = util.algebra("A1", "SER", "small", fgl="additive",
                             precision=8)
        for word in SIGMA.values():
            u_c = con.torus.group.from_word(word)
            exp_c = {ctx_c.window.word(v): c
                     for v, c in ctx_c.expansion(u_c).coeffs.items()}
            exp_m = {ctx_m.window.word(v): c for v, c in ctx_m.expansion(
                mul.torus.group.from_word(word)).coeffs.items()}
            exp_a = {ctx_a.window.word(v): c for v, c in ctx_a.expansion(
                add.torus.group.from_word(word)).coeffs.items()}
            assert set(exp_c) == set(exp_m) == set(exp_a)
            for key, coeff in exp_c.items():
                assert util.specialize(coeff, {"c": 1}) == \
                    exp_m[key].coefficients(), (word, key)
                down = con.torus.to_series(coeff, ser_c.torus)
                want = add.torus.to_series(exp_a[key], ser_a.torus)
                assert util.specialize(down, {"c": 0}) == want.coefficients(), (word, key)

        # full recomputation in the truncated model
        ser = util.algebra("A1", "SER", "small", fgl="connective",
                           precision=32)
        t = ser.torus
        ctx = PetersonContext(ser, t.group.window(4))
        z = ser.z_alpha((1,))
        d = util.verified_d_expansion(ctx, z * z)
        by_word = {ctx.window.word(v): c for v, c in d.items()}
        assert set(by_word) == {SIGMA[1], SIGMA[2], SIGMA[3]}
        assert by_word[SIGMA[2]] == 1
        assert by_word[SIGMA[1]] == t.kappa(1)
        assert by_word[SIGMA[3]] == -Localized(t, t.neg_simple_x(1))
        exp_s = {ctx.window.word(v): c for v, c in ctx.expansion(
            t.group.from_word(SIGMA[1])).coeffs.items()}
        exp_c = {ctx_c.window.word(v): c
                 for v, c in ctx_c.expansion(
                     con.torus.group.from_word(SIGMA[1])).coeffs.items()}
        for key, coeff in exp_c.items():
            assert exp_s[key] == con.torus.to_series(coeff, t), key


# -- 10: randomized property suite -------------------------------------------

def test_criterion_10_randomized_properties():
    with criterion(10, "at least five hundred randomized algebraic property "
                       "instances", 180):
        rng = random.Random(20230817)
        alg = util.algebra("A1", "CON", "small")
        t = alg.torus
        g = t.group
        tb = util.tables(alg, 4)
        win = tb.window
        elems = list(win.elements)
        duals = {w: dual_x(tb, w) for w in elems}
        cases = 0

        for _ in range(150):
            v, w = rng.choice(elems), rng.choice(elems)
            got = pair(alg.x_word(win.compat_word(v)), duals[w])
            assert got == (1 if v == w else 0), (win.word(v), win.word(w))
            cases += 1

        # the letters X_0, X_1 of the dot action against the circle action
        # of eta_{s_0}, eta_{s_1} and 1, which are no words of letters
        letters = [(0,), (1,)]
        etas = [alg.eta(g.simple(0)), alg.eta(g.simple(1)), alg.one()]
        w3, w2 = g.window(3), g.window(2)
        for _ in range(60):
            f = duals[rng.choice(elems)]
            word, z2 = rng.choice(letters), rng.choice(etas)
            assert bullet("x", word, util.odot_full(z2, f, w3), w2) == \
                util.odot_full(z2, bullet("x", word, f, w3), w2)
            cases += 1

        # projection kills right factors at finite letters only
        pool_z = [alg.one(), alg.x_op(0), alg.x_op(1), alg.x_word((0, 1)),
                  alg.eta(g.from_word((1, 0))), alg.z_alpha((1,))]
        for _ in range(80):
            z = rng.choice(pool_z)
            assert util.tw_zero(pr(alg, z * alg.x_op(1)))
            cases += 1

        trs = [g.translation((k,)) for k in (-2, -1, 0, 1, 2)]
        for _ in range(80):
            a = alg.eta(rng.choice(trs)) * Localized(
                t, t.ring.from_scalar(rng.randint(1, 4)))
            b = alg.eta(rng.choice(trs))
            assert counit(alg, a * b) == counit(alg, a) * counit(alg, b)
            assert antipode(alg, antipode(alg, a)) == a
            cases += 1

        mons = [t.simple_x(1), t.neg_simple_x(1), t.ring.one(), e_alpha(t)]
        for _ in range(60):
            w = rng.choice(elems)
            f1, f2 = rng.choice(mons), rng.choice(mons)
            assert t.act_elem(w, f1 * f2) == \
                t.act_elem(w, f1) * t.act_elem(w, f2)
            cases += 1

        for _ in range(60):
            i = rng.choice((0, 1))
            f1 = rng.choice(mons)
            lhs = alg.x_op(i) * Localized(t, f1)
            rhs = alg.coerce(Localized(t, t.demazure(i, f1))) + \
                Localized(t, t.act_elem(g.simple(i), f1)) * alg.x_op(i)
            assert util.tw_zero(lhs - rhs), i
            cases += 1

        for _ in range(60):
            k1, k2 = rng.randint(-3, 3), rng.randint(1, 3)
            u = Localized(t, t.simple_x(1)) * k2 + \
                util.over(t, t.ring.from_scalar(k1), util.alpha_vec(t))
            v = util.over(t, t.ring.one(), util.nalpha_vec(t))
            w_ = Localized(t, t.neg_simple_x(1)) + k1
            assert (u - u).simplify().is_negligible()
            assert (u + v) * w_ == u * w_ + v * w_
            assert v * Localized(t, t.neg_simple_x(1)) == 1
            cases += 1

        assert cases >= 500
