"""Rank-one affine Weyl group: sigma indexing and closed-form expansions.

For the rank-one datum every element has a unique reduced word, and the
whole group is the family

    sigma_0 = e,
    sigma_{2i}   = (s1 s0)^i = t_{-i alpha^},   sigma_{-2i}    = (s0 s1)^i,
    sigma_{2i+1} = s0 sigma_{2i},               sigma_{-(2i+1)} = s1 sigma_{-2i},

with minimal coset representatives exactly the sigma_k for k >= 0.  The
expansion of eta_{sigma_k} in the Demazure basis has one closed form over S,
built from truncated one-variable sums of complete homogeneous symmetric
functions at the unit mu = -x_{-alpha}/x_alpha or its inverse.  With n = |k|,
for each 0 < |m| <= n let g = n - |m| and b = floor(g/2), less 1 when g is
even and m, k have opposite signs; when b >= 0 the coefficient at sigma_m is

    (-1)^m x^{|m|} S^{|m|}_{<=b}(mu'),

where (x, mu') = (x_alpha, mu^{-1}) when k > 0 is even or k < 0 is odd, and
(x_{-alpha}, mu) otherwise; the identity carries 1.  ``appendix_crosscheck``
compares those forms with the algebra's expansion rows (`TwistedAlgebra.row`)
and runs the small-torus GKM conditions on the dual basis elements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import AlgebraElement, TorusAlgebra
from .duals import GkmReport, dual_x, gkm_check_small
from .errors import MembershipError, NotApplicableError
from .roots import AffineElt, AffineWeylGroup, AffRoot
from .twisted import ExpansionTables, TwistedAlgebra, row_sum


def sigma_word(k: int) -> Tuple[int, ...]:
    """Reduced word of sigma_k: |k| alternating letters, ending in 0 for k > 0
    and in 1 for k < 0."""
    return tuple((j + (k < 0)) % 2 for j in reversed(range(abs(k))))


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


def mu_unit(torus: TorusAlgebra) -> AlgebraElement:
    """mu = -x_{-alpha}/x_alpha in S; specializes to 1 additively and to the
    group-ring exponential multiplicatively."""
    return _unit(torus, -torus.neg_simple_x(1), torus.group.simple_root(1))


def mu_unit_inverse(torus: TorusAlgebra) -> AlgebraElement:
    """mu^{-1} = -x_alpha/x_{-alpha} in S."""
    mu, m = torus.group.simple_root(1)
    return _unit(torus, -torus.simple_x(1), (tuple(-v for v in mu), -m))


def _unit(torus: TorusAlgebra, num: AlgebraElement, beta: AffRoot) -> AlgebraElement:
    """num / x_beta, one exact division in S."""
    q, k = torus.ring.divide(num, torus.embed_root(beta), 1)
    if k != 1:
        raise MembershipError("x_%r does not divide %r in S" % (beta, num))
    return q


# -- closed-form eta expansions --------------------------------------------


def eta_sigma_closed(algebra: TwistedAlgebra, k: int) -> Dict[AffineElt, AlgebraElement]:
    """Expansion of eta_{sigma_k} over the Demazure elements X_{sigma_m}, in S:
    the identity key carries 1, and for 0 < |m| <= n = |k| with g = n - |m|
    and b = floor(g/2), less 1 when g is even and m k < 0, the key sigma_m
    carries (-1)^m x^{|m|} S^{|m|}_{<=b}(mu') when b >= 0.  (x, mu') is
    (x_alpha, mu^{-1}) when k > 0 is even or k < 0 is odd, else (x_{-alpha}, mu)."""
    torus = algebra.torus
    group = torus.group
    _require_rank_one(group)
    out = {group.identity: torus.ring.one()}
    n = abs(k)
    if (k > 0) == (k % 2 == 0):
        x, arg = torus.simple_x(1), mu_unit_inverse(torus)
    else:
        x, arg = torus.neg_simple_x(1), mu_unit(torus)
    for m in range(-n, n + 1):
        i = abs(m)
        b = (n - i) // 2 - ((n - i) % 2 == 0 and m * k < 0)
        if m and b >= 0:
            out[sigma(group, m)] = (-1) ** i * x ** i * s_leq(i, b, arg)
    return out


# -- cross-validation ------------------------------------------------------


@dataclass
class CrosscheckReport:
    kmax: int
    compared: int = 0
    # (k, u): the closed form of eta_{sigma_k} differs from the row at u
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
    """Compare every closed-form expansion with the algebra's row, and run
    small-torus GKM on each dual basis element."""
    group = algebra.torus.group
    _require_rank_one(group)
    window = group.window(kmax)
    tables = ExpansionTables(algebra, window)
    report = CrosscheckReport(kmax)
    for k in range(-kmax, kmax + 1):
        diff = row_sum(((1, eta_sigma_closed(algebra, k)),
                        (-1, tables.eta_in_x(sigma(group, k)))))
        report.compared += 1
        report.mismatches += [(k, u) for u, d in diff.items() if not d.is_zero()]
    for k in range(-kmax, kmax + 1):
        f = dual_x(tables, sigma(group, k))
        report.gkm.append(gkm_check_small(f, degree_bound))
    return report
