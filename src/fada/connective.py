"""Connective-theory structure: Y operators, basis transitions, recursions.

Everything here is specific to the group laws x + y - c x y, which carry
their c (`FormalGroupLaw.c`): the connective law a generic c, the
multiplicative law c = 1 and the additive law c = 0, on their exact backends
(CON, MUL, ADD) or on the truncated backend SER.  All other laws are
rejected.

Key facts implemented and cross-checked by the test-suite:

  * Y_i = c - X_i satisfies Y_i^2 = c Y_i, and Y_i = 1/x_{-alpha_i} eta_e
    + 1/x_{alpha_i} eta_{s_i}, so Y-words are eta-triangular with unit
    diagonal and admit the same expansion tables as X-words.
  * X_{I_w} = sum over v <= w of (-1)^{l(v)} c^{l(w)-l(v)} Y_{I_v}.  The
    dual Y*_w of Y_{I_w} is read off the Y-flavor table, as X*_w is off the
    X-flavor one; the dual transition Y*_w = (-1)^{l(w)} sum over v >= w of
    c^{l(v)-l(w)} X*_v is the test-suite's oracle for it.
  * Right multiplication by eta_i induces two-case recursions on both
    expansion tables (the X-flavor and the Y-flavor).  `twisted.right_step`
    implements them; for these laws, on every backend, they build each row
    of `TwistedAlgebra.row`, and `check_recursion` tests them against
    back-substituted rows.
  * Y_{w_0} (finite longest word) equals sum over finite w of
    w(1/x_Phi) eta_w with x_Phi the product of x_beta over negative finite
    roots, and acts on duals by Y_{w_0} . X*_{v} = sign(v2) c^{l(w_0)-l(v2)}
    X*_{v1} for the coset factorization v = v1 v2 (v1 minimal in v W).
  * The Hecke-type action X_{-i} (.) X*_v = 0 or c X*_v + X*_{s_i v}
    according to whether s_i v > v, and Y_{-i} on Y*_v alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Localized, TorusAlgebra
from .duals import DualElement, bullet, dual_x, odot
from .errors import UnsupportedTheoryError
from .roots import AffineElt, Window, vneg
from .twisted import (ExpansionTables, TwistedAlgebra, TwistedElement,
                      back_substitute, connective_scalar,
                      right_step, row_sum)


class ConnectiveContext:
    """Y operators and transition data over a twisted algebra."""

    def __init__(self, algebra: TwistedAlgebra):
        self.algebra = algebra
        self.torus = algebra.torus
        self.group = algebra.torus.group
        self.c = connective_scalar(algebra.torus)

    # -- operators ---------------------------------------------------------

    def y_word(self, word: Sequence[int]) -> TwistedElement:
        return self.algebra.y_word(word)

    def x_neg(self, i: int) -> TwistedElement:
        """X_{-i} = (1/x_{-alpha_i}) (1 - eta_i)."""
        mu, m = self.group.simple_root(i)
        return self.algebra.divided_difference(
            self.torus.embed_root((vneg(mu), -m)), self.group.simple(i))

    def y_neg(self, i: int) -> TwistedElement:
        """Y_{-i} = c - X_{-i} = 1/x_{alpha_i} + (1/x_{-alpha_i}) eta_i."""
        return self.algebra.coerce(self.c) - self.x_neg(i)

    # -- the finite longest element ----------------------------------------

    def y_w0(self) -> TwistedElement:
        return self.y_word(self.torus.datum.longest_element.word)

    def y_w0_closed(self) -> TwistedElement:
        """sum over finite w of w(1/x_Phi) eta_w, x_Phi the product of the
        negative-root classes."""
        torus = self.torus
        den = tuple(torus.embed_root((beta, 0)) for beta in torus.datum.negative_roots)
        inv = Localized(torus, torus.ring.one(), den)
        out: Dict[AffineElt, Localized] = {}
        for w in torus.datum.weyl_elements:
            x = AffineElt(w, (0,) * torus.datum.rank)
            out[x] = torus.act_loc(x, inv)
        return TwistedElement(self.algebra, out)

    # -- basis transitions -------------------------------------------------

    def x_in_y(self, window: Window, w: AffineElt) -> TwistedElement:
        """sum over v <= w of sign(v) c^{l(w)-l(v)} Y_{I_v}."""
        group = self.group
        lw = group.length(w)
        return TwistedElement(self.algebra, row_sum(
            (group.sign(v) * self.c ** (lw - group.length(v)),
             self.y_word(window.compat_word(v)).terms)
            for v in window.elements if group.bruhat_leq(v, w)))

    def dual_y_in_x(self, window: Window, w: AffineElt) -> DualElement:
        """Y*_w, the functional dual to Y_{I_w}, from the Y-flavor table."""
        return dual_x(ExpansionTables(self.algebra, window, "y"), w)


# -- recursion checks ------------------------------------------------------


@dataclass
class RecursionReport:
    """Outcome of verifying a two-case expansion-table recursion; a failure
    (w, i, v) is a row of w = u s_i predicted wrong in its column v."""

    flavor: str
    checked: int = 0
    failures: List[Tuple[AffineElt, int, AffineElt]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures


def check_recursion(ctx: ConnectiveContext, window: Window, flavor: str = "x",
                    letters: Optional[Sequence[int]] = None) -> RecursionReport:
    """Verify the right-multiplication recursion on every covered pair of
    the window, for the X-flavor or Y-flavor table.

    The rows come from back-substitution, not from `TwistedAlgebra.row`,
    which these laws build by this same step: the check asks whether
    `right_step`, applied to back-substituted rows, predicts
    back-substituted rows."""
    group = ctx.group
    rows = back_substitute(ctx.algebra, window, flavor)
    if letters is None:
        letters = range(ctx.torus.datum.rank + 1)
    report = RecursionReport(flavor)
    for u in window.elements:
        for i in letters:
            u_si = group.mul(u, group.simple(i))
            if group.right_descent(u, i) or u_si not in window:
                continue
            predicted = right_step(ctx.algebra, ctx.c, rows[u], u, i, flavor)
            diff = row_sum(((1, predicted), (-1, rows[u_si])))
            report.failures += [(u_si, i, v) for v, d in diff.items() if not d.is_zero()]
            report.checked += 1
    return report


# -- Hecke-type action on duals --------------------------------------------


def hecke_action_check(ctx: ConnectiveContext, tables: ExpansionTables,
                       window: Window, out_window: Window, i: int,
                       v: AffineElt, basis: str = "X") -> bool:
    """X_{-i} (.) X*_v (or Y_{-i} (.) Y*_v) equals 0 when s_i v > v and
    c X*_v + X*_{s_i v} (resp. the Y-starred version) otherwise.

    Both duals are read off the table of the basis's flavor: `tables` when
    its flavor matches, else that flavor's view over the same window."""
    group = ctx.group
    if basis not in ("X", "Y"):
        raise UnsupportedTheoryError("basis must be X or Y")
    op = ctx.x_neg(i) if basis == "X" else ctx.y_neg(i)
    if tables.flavor != basis.lower():
        tables = ExpansionTables(ctx.algebra, window, basis.lower())
    f = dual_x(tables, v)
    lhs = odot(op, f, out_window)
    if not group.left_descent(v, i):
        return lhs == DualElement.zero(ctx.torus, out_window)
    g = dual_x(tables, group.mul(group.simple(i), v))
    return lhs == f.restrict(out_window).scale(ctx.c) + g.restrict(out_window)


def bullet_yw0_check(ctx: ConnectiveContext, tables: ExpansionTables,
                     window: Window, out_window: Window,
                     v: AffineElt) -> Tuple[bool, bool]:
    """Evaluate Y_{w_0} . X*_v against sign(v2) c^{l(w_0)-l(v2)} X*_{v1}.

    Returns (identity_holds, row_vanishes) where the second component reports
    whether the result is identically zero; for v minimal it never is, since
    then the identity reads Y_{w_0} . X*_v = c^{l(w_0)} X*_v.
    """
    group = ctx.group
    zw = ctx.y_w0()
    f = dual_x(tables, v)
    lhs = bullet(zw, f, out_window)
    v1, u2 = group.coset_decompose_right(v)
    l2 = len(u2.word)
    l_w0 = len(ctx.torus.datum.positive_roots)
    coeff = ctx.c ** (l_w0 - l2)
    if l2 % 2:
        coeff = -coeff
    rhs = dual_x(tables, v1).restrict(out_window).scale(coeff)
    return lhs == rhs, not lhs.values


def dual_y_vanishing_check(ctx: ConnectiveContext, window: Window,
                           out_window: Window, w: AffineElt) -> bool:
    """Y_{w_0} . Y*_w = 0 for minimal w: the Y-flavor dual rows are killed."""
    ystar = ctx.dual_y_in_x(window, w)
    return bullet(ctx.y_w0(), ystar, out_window) == DualElement.zero(ctx.torus, out_window)


# -- conjugation by the longest element ------------------------------------


def dynkin_involution(torus: TorusAlgebra, i: int) -> int:
    """The index i* with w_0(alpha_i) = -alpha_{i*} (finite i only)."""
    datum = torus.datum

    def unit(j: int):
        return tuple(1 if k == j - 1 else 0 for k in range(datum.rank))

    target = tuple(-v for v in datum.longest_element.act_root(unit(i)))
    for j in range(1, datum.rank + 1):
        if unit(j) == target:
            return j
    raise UnsupportedTheoryError("longest element does not permute simple roots")


def conjugation_check(ctx: ConnectiveContext, i: int) -> bool:
    """eta_{w_0} X_i eta_{w_0} = X_{-i*} for finite i."""
    datum = ctx.torus.datum
    w0 = AffineElt(datum.longest_element, (0,) * datum.rank)
    eta = ctx.algebra.eta(w0)
    lhs = eta * ctx.algebra.x_op(i) * eta
    rhs = ctx.x_neg(dynkin_involution(ctx.torus, i))
    return lhs == rhs
