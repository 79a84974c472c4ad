"""Rank-one sigma bookkeeping and the closed-form eta expansions."""

import json
from itertools import combinations_with_replacement

import pytest

from fada import a1hat
from fada.a1hat import (appendix_crosscheck, eta_sigma_closed, mu_unit,
                        mu_unit_inverse, s_leq, s_leq_coeffs, sigma,
                        sigma_index, sigma_word)
from fada.algebra import Localized
from fada.cli import main
from fada.errors import NotApplicableError
from fada.scalars import Scalar

import util

BACKENDS = ("ADD", "MUL", "CON")


# -- sigma indexing ----------------------------------------------------------

def test_sigma_words():
    assert sigma_word(0) == ()
    assert sigma_word(1) == (0,)
    assert sigma_word(-1) == (1,)
    assert sigma_word(2) == (1, 0)
    assert sigma_word(-2) == (0, 1)
    assert sigma_word(3) == (0, 1, 0)
    assert sigma_word(-3) == (1, 0, 1)
    assert sigma_word(4) == (1, 0, 1, 0)


def test_sigma_round_trip():
    g = util.algebra("A1", "CON").torus.group
    for k in range(-6, 7):
        x = sigma(g, k)
        assert g.length(x) == abs(k)
        assert sigma_index(g, x) == k


def test_even_sigmas_are_translations():
    g = util.algebra("A1", "CON").torus.group
    for i in range(1, 4):
        assert sigma(g, 2 * i) == g.translation((-i,))
        assert sigma(g, -2 * i) == g.translation((i,))


def test_nonnegative_sigmas_are_the_minimal_representatives():
    g = util.algebra("A1", "CON").torus.group
    win = g.window(5)
    assert set(win.minimal_coset_reps()) == {sigma(g, k) for k in range(6)}


def test_sigma_needs_rank_one():
    g2 = util.algebra("A2", "CON").torus.group
    with pytest.raises(NotApplicableError):
        sigma(g2, 1)
    with pytest.raises(NotApplicableError):
        sigma_index(g2, g2.identity)
    with pytest.raises(NotApplicableError):
        appendix_crosscheck(util.algebra("A2", "CON"), 2)


# -- truncated homogeneous sums ----------------------------------------------

def test_s_golden():
    assert s_leq_coeffs(3, 3) == [1, 3, 6, 10]
    assert s_leq(3, 3, 1) == 20
    assert s_leq_coeffs(0, 5) == [1]
    assert s_leq_coeffs(2, -1) == []
    assert s_leq(2, -1, 7) == 0


def test_s_recurrence():
    # S^i_{<=a}(x) = x S^i_{<=a-1}(x) + S^{i-1}_{<=a}(x)
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


def test_s_coefficients_count_multisets():
    for i in range(1, 9):
        for a in range(0, 9):
            coeffs = s_leq_coeffs(i, a)
            for j, c in enumerate(coeffs):
                count = sum(1 for _ in combinations_with_replacement(range(i), j))
                assert c == count, (i, a, j)


def test_s_evaluates_on_ring_elements():
    t = util.algebra("A1", "CON").torus
    x = Localized(t, t.simple_x(1))
    got = s_leq(2, 2, x)
    want = Localized(t, t.ring.one()) + 2 * x + 3 * (x * x)
    assert got == want


# -- the unit mu -------------------------------------------------------------

def test_mu_specializations():
    t_add = util.algebra("A1", "ADD").torus
    assert mu_unit(t_add) == 1
    for backend in ("MUL", "CON"):
        t = util.algebra("A1", backend).torus
        e_alpha = t.ring.element({(1,): Scalar.const(1, t.ring.params)})
        assert mu_unit(t) == Localized(t, e_alpha), backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_mu_is_a_unit(backend):
    t = util.algebra("A1", backend).torus
    assert mu_unit(t) * mu_unit_inverse(t) == 1


# -- closed forms ------------------------------------------------------------

def test_eta_sigma_closed_identity():
    alg = util.algebra("A1", "CON")
    out = eta_sigma_closed(alg, 0)
    assert set(out) == {alg.torus.group.identity}
    assert out[alg.torus.group.identity] == 1


@pytest.mark.parametrize("kmax", [4, 10])
@pytest.mark.parametrize("backend", BACKENDS)
def test_closed_forms_match_triangular_solve(backend, kmax):
    alg = util.algebra("A1", backend)
    rep = appendix_crosscheck(alg, kmax)
    assert rep.passed, rep.mismatches
    assert rep.compared == len(rep.gkm) == 2 * kmax + 1


def test_crosscheck_keeps_records_and_the_cli_prints_them(monkeypatch, capsys):
    # a closed form bumped at one coefficient is the record (k, u); the
    # command prints the records as sorted text
    def bumped(algebra, k):
        out = dict(eta_sigma_closed(algebra, k))
        if k in (2, -1):
            u = sigma(algebra.torus.group, k - 1 if k > 0 else k + 1)
            out[u] = out[u] + 1
        return out

    monkeypatch.setattr(a1hat, "eta_sigma_closed", bumped)
    alg = util.algebra("A1", "MUL")
    g = alg.torus.group
    rep = appendix_crosscheck(alg, 2)
    assert sorted(rep.mismatches) == [(-1, g.identity), (2, sigma(g, 1))]
    assert not rep.passed and "2 mismatches" in rep.summary()
    assert main(["a1hat", "--kmax", "2", "--c", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["crosscheck"]["mismatches"] == [
        "eta_{sigma_-1}: coefficient at e differs",
        "eta_{sigma_2}: coefficient at s0 differs"]


def test_crosscheck_with_gkm():
    alg = util.algebra("A1", "CON")
    rep = appendix_crosscheck(alg, 3, degree_bound=1)
    assert rep.passed
    assert len(rep.gkm) == 7
    assert "0 mismatches" in rep.summary()
    assert "0 failing" in rep.summary()
