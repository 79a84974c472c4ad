"""The Peterson subalgebra: centralizer elements, basis, structure constants.

Over the small torus, translations act trivially on coefficients, so an
element of the twisted algebra commutes with the whole coefficient algebra
exactly when its eta-support consists of translations.  The basis element
attached to a minimal coset representative u (no finite right descent) is the
projection of the Demazure word element,

    P_u = pr(X_{I_u}),    pr(eta_{t_lam w}) = eta_{t_lam},

which is translation-supported and expands back in the Demazure basis as
X_{I_u} plus corrections carried entirely by non-minimal representatives,
with every coefficient in the base ring S.  Both shape facts are checked by
``expansion`` and exercised heavily in the tests; they are what makes the
family {P_u} a basis of the centralizer.

Because of the delta shape, the basis coefficients of any translation
supported element are just its Demazure coefficients at minimal
representatives, so products expand by reading off one table.  The separate
d-table (structure constants of the Demazure basis itself) ties the two
pictures together through the comparison identity checked in
``structure_pair``.

For the group laws x + y - c x y the d-table needs no eta-expansion: the
Hecke relations give X_{I_u} X_{I_v} = c^m X_{I_{u*v}}, one monomial at the
Demazure product u*v (`twisted.demazure_walk`).  The identity then compares
the Peterson product, expanded through the eta basis, with this Hecke
combinatorics, two independent routes.  Other laws break the braid
relations, and their d-table multiplies the word products out in the eta
basis and expands the result back (the eta-route).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import AlgebraElement, Localized
from .errors import ConfigError, MembershipError
from .memo import memo
from .roots import AffineElt, Vec, Window
from .twisted import (ExpansionTables, TwistedAlgebra, TwistedElement, combine_rows,
                      demazure_walk, row_sum)


def pr(algebra: TwistedAlgebra, z: TwistedElement) -> TwistedElement:
    """Project eta_x to eta at the unique translation in the coset x W."""
    group = algebra.torus.group
    return TwistedElement(algebra, row_sum(
        (1, {group.translation(x.w.act_coroot(x.t)): c}) for x, c in z.terms.items()))


def is_translation_supported(algebra: TwistedAlgebra, z: TwistedElement) -> bool:
    group = algebra.torus.group
    return all(group.is_translation(x) for x in z.terms)


@dataclass
class PetersonExpansion:
    """Demazure-basis expansion of a Peterson basis element."""

    u: AffineElt
    coeffs: Dict[AffineElt, AlgebraElement]


class PetersonContext:
    """Peterson basis elements and expansions over a fixed window.

    `d_expansion` reads the Peterson coefficients off the minimal columns
    only.  That they rebuild the whole Demazure expansion, the non-minimal
    columns included, is checked by the test-suite's reconstruction oracle
    (`tests/util.py`), not here.
    """

    def __init__(self, algebra: TwistedAlgebra, window: Window):
        if algebra.torus.torus != "small":
            raise ConfigError("the Peterson subalgebra lives over the small torus")
        self.algebra = algebra
        self.window = window
        self.tables = ExpansionTables(algebra, window)
        self.minimal: Tuple[AffineElt, ...] = window.minimal_coset_reps()
        self._minimal_set = set(self.minimal)

    # -- the basis ---------------------------------------------------------

    @memo
    def element(self, u: AffineElt) -> TwistedElement:
        """P_u = pr(X_{I_u}), translation-supported by construction."""
        self.window.require(u)
        if u not in self._minimal_set:
            raise ConfigError("Peterson basis is indexed by minimal coset "
                              "representatives; got a non-minimal element")
        return pr(self.algebra, self.algebra.x_word(self.window.compat_word(u))).simplify()

    @memo
    def x_expansion(self, u: AffineElt) -> Dict[AffineElt, Localized]:
        return self.tables.expand_in_x(self.element(u))

    def expansion(self, u: AffineElt) -> PetersonExpansion:
        """The checked expansion: unit coefficient at u, zero at every other
        minimal representative, and everything denominator-free.  The entries
        of `x_expansion` are settled already, so none is simplified again."""
        coeffs: Dict[AffineElt, AlgebraElement] = {}
        for v, c in self.x_expansion(u).items():
            if v in self._minimal_set and v != u:
                raise ConfigError(
                    "expansion of P_%s has an unexpected coefficient at the "
                    "minimal representative %s"
                    % (self.algebra.torus.group.element_name(u),
                       self.algebra.torus.group.element_name(v)))
            if c.den_map:
                raise MembershipError(
                    "coefficient at %s does not lie in S"
                    % self.algebra.torus.group.element_name(v))
            coeffs[v] = c.num
        one = self.algebra.torus.ring.one()
        if u not in coeffs or not (coeffs[u] == one):
            raise ConfigError("leading Peterson coefficient is not 1")
        return PetersonExpansion(u, coeffs)

    # -- expansion of translation-supported elements -----------------------

    def d_expansion(self, z: TwistedElement) -> Dict[AffineElt, Localized]:
        """Peterson-basis coefficients of a translation-supported element;
        these are its Demazure coefficients at minimal representatives."""
        if not is_translation_supported(self.algebra, z):
            raise MembershipError("element is not supported on translations")
        full = self.tables.expand_in_x(z)
        return {v: c for v, c in full.items() if v in self._minimal_set}

    # -- structure constants -----------------------------------------------

    @memo
    def x_product_expansion(self, w2: AffineElt, v: AffineElt
                            ) -> Dict[AffineElt, Localized]:
        """Demazure coefficients of X_{I_{w2}} X_{I_v}.

        For the group laws x + y - c x y this is {w: c^m} for the Demazure
        walk (w, m) of the word I_{w2} from v, empty when c^m vanishes (the
        additive law with m > 0), and it asks the window for w alone, the
        longest element of the eta-support.  Other laws take the eta-route:
        the product of the two word elements, expanded back in the X basis.
        """
        word = self.window.compat_word(w2)
        torus = self.algebra.torus
        c = torus.ring.fgl.c
        if c is None:
            prod = self.algebra.x_word(word) * self.algebra.x_word(self.window.compat_word(v))
            return self.tables.expand_in_x(prod)
        w, m = demazure_walk(torus.group, word, v)
        coeff = c ** m
        if coeff.is_zero():
            return {}
        self.window.require(w, "eta support of the element")
        return {w: Localized(torus, torus.ring.from_scalar(coeff))}

    def structure_pair(self, u: AffineElt, v: AffineElt) -> "StructurePair":
        """d-row, Peterson row and the comparison identity for one pair."""
        d_row = self.x_product_expansion(u, v)
        frak_row = self.d_expansion(self.element(u) * self.element(v))
        # P_u P_v = sum_{w2} c_{w2} X_{I_{w2}} X_{I_v} at the minimal columns
        diff = combine_rows([(1, frak_row)] + [
            (-c, {w3: d for w3, d in self.x_product_expansion(w2, v).items()
                  if w3 in self._minimal_set})
            for w2, c in self.x_expansion(u).items()])
        return StructurePair(u, v, d_row, frak_row, list(diff))

    def structure_constants(self, total_length: int) -> List["StructurePair"]:
        out = []
        lengths = self.window.lengths
        for u in self.minimal:
            for v in self.minimal:
                if lengths[u] + lengths[v] <= total_length:
                    out.append(self.structure_pair(u, v))
        return out


@dataclass
class StructurePair:
    """X_{I_u} X_{I_v} in the Demazure basis, P_u P_v in the Peterson basis,
    and the places where the comparison identity fails (normally empty)."""

    u: AffineElt
    v: AffineElt
    d_row: Dict[AffineElt, Localized]
    frak_row: Dict[AffineElt, Localized]
    mismatches: List[AffineElt]

    @property
    def identity_holds(self) -> bool:
        return not self.mismatches


# -- centralizer checks ----------------------------------------------------


@dataclass
class CentralizerReport:
    translation_supported: bool
    commutes: bool
    witnesses: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.translation_supported == self.commutes


def centralizer_report(algebra: TwistedAlgebra, z: TwistedElement) -> CentralizerReport:
    """Cross-validate the two characterizations of centrality: support on
    translations, and commutation with the coefficient generators x_{+-alpha_i}."""
    torus = algebra.torus
    supported = is_translation_supported(algebra, z)
    witnesses: List[str] = []
    n = torus.datum.rank
    gens: List[Tuple[str, AlgebraElement]] = []
    for i in range(1, n + 1):
        gens.append(("x[alpha_%d]" % i, torus.simple_x(i)))
        gens.append(("x[-alpha_%d]" % i, torus.neg_simple_x(i)))
    for name, c in gens:
        ce = algebra.coerce(c)
        if not (z * ce == ce * z):
            witnesses.append("does not commute with %s" % name)
    return CentralizerReport(supported, not witnesses, witnesses)


def centralizer_check(algebra: TwistedAlgebra, z: TwistedElement) -> bool:
    report = centralizer_report(algebra, z)
    if not report.consistent:
        raise ConfigError("support and commutation criteria disagree: %r"
                          % (report.witnesses,))
    return report.commutes


# -- Hopf structure on translation-supported elements ----------------------


def counit(algebra: TwistedAlgebra, z: TwistedElement) -> Localized:
    """Pairing against the constant function: eta_{t_lam} -> 1."""
    if not is_translation_supported(algebra, z):
        raise MembershipError("counit is defined on translation-supported elements")
    out = Localized(algebra.torus, algebra.torus.ring.zero())
    for c in z.terms.values():
        out = out + c
    return out.simplify()


def antipode(algebra: TwistedAlgebra, z: TwistedElement) -> TwistedElement:
    """eta_{t_lam} -> eta_{t_{-lam}}; coefficients are untouched because
    translations act trivially on the small torus."""
    if not is_translation_supported(algebra, z):
        raise MembershipError("antipode is defined on translation-supported elements")
    group = algebra.torus.group
    return TwistedElement(algebra, row_sum(
        (1, {group.translation(tuple(-a for a in x.t)): c}) for x, c in z.terms.items()))


Coproduct = Dict[Tuple[Vec, Vec], Localized]


def coproduct(algebra: TwistedAlgebra, z: TwistedElement) -> Coproduct:
    """Group-like coproduct eta_t -> eta_t (x) eta_t, coefficients on the
    left tensor factor."""
    if not is_translation_supported(algebra, z):
        raise MembershipError("coproduct is defined on translation-supported elements")
    return {(x.t, x.t): c for x, c in z.terms.items()}


def coproduct_multiply(a: Coproduct, b: Coproduct) -> Coproduct:
    """Product in the tensor square of the translation group algebra."""
    out = row_sum((c1, {(tuple(x + y for x, y in zip(l1, l2)),
                         tuple(x + y for x, y in zip(r1, r2))): c2})
                  for (l1, r1), c1 in a.items() for (l2, r2), c2 in b.items())
    return {k: v for k, v in out.items() if not v.is_zero()}
