"""Rank-one affine Weyl group: sigma indexing and closed-form expansions.

For the rank-one datum every element has a unique reduced word, and the
whole group is the family

    sigma_0 = e,
    sigma_{2i}   = (s1 s0)^i = t_{-i alpha^},   sigma_{-2i}    = (s0 s1)^i,
    sigma_{2i+1} = s0 sigma_{2i},               sigma_{-(2i+1)} = s1 sigma_{-2i},

with minimal coset representatives exactly the sigma_k for k >= 0.  The
expansions of eta_{sigma_k} in the Demazure basis have closed forms built
from truncated one-variable sums of complete homogeneous symmetric functions
evaluated at the unit mu = -x_{-alpha}/x_alpha; ``appendix_crosscheck``
compares those forms against the triangular linear-algebra route and runs
the small-torus GKM conditions on the dual basis elements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import Localized, TorusAlgebra
from .duals import GkmReport, dual_x, gkm_check_small
from .errors import NotApplicableError
from .roots import AffineElt, AffineWeylGroup
from .twisted import ExpansionTables, TwistedAlgebra, combine_rows


def sigma_word(k: int) -> Tuple[int, ...]:
    """Reduced word of sigma_k; alternating letters ending as the sign demands."""
    if k == 0:
        return ()
    if k > 0:
        i, r = divmod(k, 2)
        return (1, 0) * i if r == 0 else (0,) + (1, 0) * i
    i, r = divmod(-k, 2)
    return (0, 1) * i if r == 0 else (1,) + (0, 1) * i


def sigma(group: AffineWeylGroup, k: int) -> AffineElt:
    _require_rank_one(group)
    return group.from_word(sigma_word(k))


def sigma_index(group: AffineWeylGroup, x: AffineElt) -> int:
    """The integer k with x = sigma_k; total on the rank-one group."""
    _require_rank_one(group)
    n = group.length(x)
    for k in (n, -n):
        if group.from_word(sigma_word(k)) == x:
            return k
    raise NotApplicableError("element is not of sigma form")


def _require_rank_one(group: AffineWeylGroup) -> None:
    if group.datum.rank != 1:
        raise NotApplicableError("sigma indexing needs a rank-one root datum")


# -- truncated homogeneous sums --------------------------------------------


def s_leq_coeffs(i: int, a: int) -> List[int]:
    """Coefficients of S^i_{<=a}(x) = sum_{j<=a} binom(j+i-1, i-1) x^j."""
    if a < 0:
        return []
    if i == 0:
        return [1]
    return [math.comb(j + i - 1, i - 1) for j in range(a + 1)]


def s_leq(i: int, a: int, x):
    """S^i_{<=a} evaluated at x; works for ints and ring elements alike."""
    coeffs = s_leq_coeffs(i, a)
    if not coeffs:
        return 0
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


# -- the unit mu -----------------------------------------------------------


def mu_unit(torus: TorusAlgebra) -> Localized:
    """mu = -x_{-alpha}/x_alpha; specializes to 1 additively and to the
    group-ring exponential multiplicatively."""
    den = torus.embed_root(torus.group.simple_root(1))
    return Localized(torus, -torus.neg_simple_x(1), (den,))


def mu_unit_inverse(torus: TorusAlgebra) -> Localized:
    mu, m = torus.group.simple_root(1)
    den = torus.embed_root((tuple(-v for v in mu), -m))
    return Localized(torus, -torus.simple_x(1), (den,))


# -- closed-form eta expansions --------------------------------------------


def _pow(x: Localized, n: int) -> Localized:
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def eta_sigma_closed(algebra: TwistedAlgebra, k: int) -> Dict[AffineElt, Localized]:
    """Expansion of eta_{sigma_k} over the Demazure elements X_{sigma_j},
    from the closed formulas; keys are the sigma_j, the identity key carries
    the constant term 1."""
    torus = algebra.torus
    group = torus.group
    _require_rank_one(group)
    sig = lambda j: group.from_word(sigma_word(j))
    one = Localized(torus, torus.ring.one())
    out: Dict[AffineElt, Localized] = {group.identity: one}
    if k == 0:
        return out
    x1 = Localized(torus, torus.simple_x(1))
    xm1 = Localized(torus, torus.neg_simple_x(1))
    mu = mu_unit(torus)
    mui = mu_unit_inverse(torus)
    half, odd = divmod(abs(k), 2)
    if not odd:
        xs, arg = (x1, mui) if k > 0 else (xm1, mu)
        sgn = 1 if k > 0 else -1
        out[sig(k)] = _pow(xs, 2 * half)
        for j in range(1, half):
            lead = _pow(xs, 2 * j)
            out[sig(sgn * 2 * j)] = lead * s_leq(2 * j, half - j, arg)
            out[sig(-sgn * 2 * j)] = lead * s_leq(2 * j, half - j - 1, arg)
        for i in range(1, half + 1):
            c = -(_pow(xs, 2 * i - 1) * s_leq(2 * i - 1, half - i, arg))
            out[sig(2 * i - 1)] = c
            out[sig(-(2 * i - 1))] = c
    else:
        # odd k = +-(2 half + 1); the formulas use the opposite root class
        xs, arg = (xm1, mu) if k > 0 else (x1, mui)
        sgn = 1 if k > 0 else -1
        out[sig(k)] = -_pow(xs, 2 * half + 1)
        for j in range(1, half + 1):
            c = _pow(xs, 2 * j) * s_leq(2 * j, half - j, arg)
            out[sig(2 * j)] = c
            out[sig(-2 * j)] = c
        for i in range(1, half + 1):
            lead = _pow(xs, 2 * i - 1)
            out[sig(sgn * (2 * i - 1))] = -(lead * s_leq(2 * i - 1, half - i + 1, arg))
            out[sig(-sgn * (2 * i - 1))] = -(lead * s_leq(2 * i - 1, half - i, arg))
    return {w: c for w, c in out.items()}


# -- cross-validation ------------------------------------------------------


@dataclass
class CrosscheckReport:
    kmax: int
    compared: int = 0
    # (k, u): the closed form of eta_{sigma_k} differs from the solve at u
    mismatches: List[Tuple[int, AffineElt]] = field(default_factory=list)
    gkm: List[GkmReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and all(r.passed for r in self.gkm)

    def summary(self) -> str:
        return ("closed forms |k|<=%d: %d compared, %d mismatches; "
                "GKM duals: %d checked, %d failing"
                % (self.kmax, self.compared, len(self.mismatches),
                   len(self.gkm), sum(0 if r.passed else 1 for r in self.gkm)))


def appendix_crosscheck(algebra: TwistedAlgebra, kmax: int,
                        degree_bound: int = 2) -> CrosscheckReport:
    """Compare every closed-form expansion with the triangular solve, and run
    small-torus GKM on each dual basis element."""
    torus = algebra.torus
    group = torus.group
    _require_rank_one(group)
    window = group.window(kmax)
    tables = ExpansionTables(algebra, window)
    report = CrosscheckReport(kmax)
    for k in range(-kmax, kmax + 1):
        closed = eta_sigma_closed(algebra, k)
        solved = {u: Localized(torus, b) for u, b in tables.eta_in_x(sigma(group, k)).items()}
        report.compared += 1
        for u in combine_rows(((1, closed), (-1, solved))):
            report.mismatches.append((k, u))
    for k in range(-kmax, kmax + 1):
        f = dual_x(tables, sigma(group, k))
        report.gkm.append(gkm_check_small(f, degree_bound))
    return report
