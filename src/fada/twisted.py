"""The twisted formal group algebra and the affine Demazure elements.

Q_W is the free left module over the localized algebra Q with basis eta_w for
w in the affine Weyl group, multiplied by the twisted rule

    (c * eta_w) (c' * eta_w') = c * w(c') * eta_{w w'}.

The Demazure elements X_i = (1/x_{alpha_i}) (1 - eta_{s_i}) generate the
subalgebra of interest; products along reduced words expand triangularly in
the eta basis.  For the group law x + y - c x y the operators Y_i = c - X_i
expand the same way.

The inverse change of basis, eta_w = sum_u b_{w,u} X_{I_u} (or Y_{I_u}), is
`TwistedAlgebra.row`, kept by `memo` per algebra, flavor and element: the
row of eta_w depends only on w and on shorter elements, never on a window,
so a window only reads rows, and a row outside every window is asked for
like any other.  Rows are over S (Calmes-Petrov-Zainoulline 2013).  For the
laws x + y - c x y, X_{I_w} does not depend on the reduced word, so the row
of u s_i follows from the row of u by right multiplication with eta_{s_i}
(Kostant-Kumar), by products in S.  Other laws break the braid relations
(Bressler-Evens, Trans. AMS 1990), so their rows are solved by
back-substitution in the localized ring, which also serves, over a whole
window, as the independent oracle for the recursion.  Back-substitution
divides each summed entry once by the diagonal of X_{I_w}, a unit over a
product of x_beta, by subtracting denominator multiplicities.

Twisted elements, duals and the Peterson projections are maps from affine
Weyl elements to localized values, rows to ring elements, and functions on
the translation lattice are maps from lattice points.  `row_sum` is the one
accumulator of such maps: it forms every linear combination
sum_u c_u map_u, the twisted product included, left unsimplified, and
`combine_rows` is the same localized sum settled; a difference that settles
to the empty map is the one equality test of localized maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import AlgebraElement, Localized, TorusAlgebra
from .errors import ConfigError, MembershipError, NotApplicableError, UnsupportedTheoryError
from .memo import memo
from .roots import AffineElt, AffineWeylGroup, Vec, Window, vneg
from .scalars import Scalar


def connective_scalar(torus: TorusAlgebra) -> Scalar:
    """The parameter c of the group law x + y - c x y of the torus's ring."""
    law = torus.ring.fgl
    if law.c is None:
        raise UnsupportedTheoryError(
            "this construction needs the group law x + y - c x y; law %r is "
            "not of that form" % law.kind)
    return law.c


class TwistedElement:
    """A finite left-Q combination of eta_w basis elements."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "TwistedAlgebra", terms: Dict[AffineElt, Localized]):
        """Keeps the terms that are not known zeros (`Localized.is_zero`), so
        an unknown SER value is kept, not read as zero."""
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self.algebra.coerce(other)
        return TwistedElement(self.algebra, row_sum(((1, self.terms), (1, other.terms))))

    __radd__ = __add__

    def __neg__(self):
        return TwistedElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.algebra.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # sum_w c * (sum_w2 w(c2) eta_{w w2}), one row per term of self
        other = self.algebra.coerce(other)
        torus = self.algebra.torus
        mul, act = torus.group.mul, torus.act_loc
        return TwistedElement(self.algebra, row_sum(
            (c, {mul(w, w2): act(w, c2) for w2, c2 in other.terms.items()})
            for w, c in self.terms.items()))

    def __rmul__(self, other):
        # scalars embed as coefficients of eta_e, so coerce and multiply
        return self.algebra.coerce(other) * self

    def __eq__(self, other):
        return not combine_rows(((1, self.terms), (-1, self.algebra.coerce(other).terms)))

    def __hash__(self):
        raise TypeError("TwistedElement is unhashable")

    def simplify(self) -> "TwistedElement":
        return TwistedElement(self.algebra, {w: c.simplify() for w, c in self.terms.items()})

    def coefficient(self, w: AffineElt) -> Localized:
        if w in self.terms:
            return self.terms[w]
        return Localized(self.algebra.torus, self.algebra.torus.ring.zero())

    def __repr__(self):
        group = self.algebra.torus.group
        parts = []
        for w in sorted(self.terms, key=group.length):
            parts.append("(%r) eta[%s]" % (self.terms[w], group.element_name(w)))
        return " + ".join(parts) if parts else "0"


class TwistedAlgebra:
    """Q_W over a torus algebra, with its Demazure word products and the rows
    of the inverse change of basis kept by `memo`."""

    def __init__(self, torus: TorusAlgebra):
        self.torus = torus

    # -- constructors ------------------------------------------------------

    def zero(self) -> TwistedElement:
        return TwistedElement(self, {})

    def one(self) -> TwistedElement:
        return self.eta(self.torus.group.identity)

    def eta(self, w: AffineElt) -> TwistedElement:
        return TwistedElement(self, {w: Localized(self.torus, self.torus.ring.one())})

    def coerce(self, value) -> TwistedElement:
        if isinstance(value, TwistedElement):
            return value
        ident = self.torus.group.identity
        if isinstance(value, Localized):
            return TwistedElement(self, {ident: value})
        if isinstance(value, AlgebraElement):
            return TwistedElement(self, {ident: Localized(self.torus, value)})
        if isinstance(value, (int, Scalar)):
            return TwistedElement(
                self, {ident: Localized(self.torus, self.torus.ring.from_scalar(value))})
        raise TypeError("cannot coerce %r into the twisted algebra" % type(value))

    # -- Demazure elements -------------------------------------------------

    def divided_difference(self, b: Vec, g: AffineElt) -> TwistedElement:
        """(1/x_b) (1 - eta_g)."""
        inv = Localized(self.torus, self.torus.ring.one(), (b,))
        return TwistedElement(self, {self.torus.group.identity: inv, g: -inv})

    @memo
    def x_op(self, i: int) -> TwistedElement:
        """X_i = (1/x_{alpha_i}) (1 - eta_{s_i})."""
        group = self.torus.group
        return self.divided_difference(self.torus.embed_root(group.simple_root(i)),
                                       group.simple(i))

    def y_op(self, i: int) -> TwistedElement:
        """Y_i = c - X_i, for the group law x + y - c x y."""
        return self.coerce(connective_scalar(self.torus)) - self.x_op(i)

    @memo
    def word_product(self, flavor: str, word: Tuple[int, ...]) -> TwistedElement:
        """X_{i_1} ... X_{i_k} (flavor "x") or Y_{i_1} ... Y_{i_k} (flavor
        "y") for a tuple `word`, kept by `memo` along its prefixes.  Prefixes
        not held are asked shortest first, so no call recurses through them."""
        if not word:
            return self.one()
        k = len(word) - 1  # the longest proper prefix held, or ()
        while k and not TwistedAlgebra.word_product.holds(self, flavor, word[:k]):
            k -= 1
        for j in range(k + 1, len(word)):
            self.word_product(flavor, word[:j])
        op = self.x_op if flavor == "x" else self.y_op
        return self.word_product(flavor, word[:-1]) * op(word[-1])

    def x_word(self, word: Sequence[int]) -> TwistedElement:
        return self.word_product("x", tuple(word))

    def y_word(self, word: Sequence[int]) -> TwistedElement:
        return self.word_product("y", tuple(word))

    @memo
    def row(self, flavor: str, w: AffineElt) -> "Row":
        """eta_w = sum_u row[u] X_{I_u} (flavor "x") or Y_{I_u} ("y"), kept by
        `memo` with the rows it is built from: for the laws x + y - c x y by
        `right_step` from the row of w s_i, i the least right descent of w;
        for the others by back-substitution from the rows of the support of
        X_{I_w}, I_w the group's compat word of w; no window is built.  Rows
        not held are asked shortest first, so no call recurses through lengths."""
        _require_flavor(flavor)
        torus, group = self.torus, self.torus.group
        c = torus.ring.fgl.c
        held = partial(TwistedAlgebra.row.holds, self, flavor)
        if c is None:
            word = group.compat_word(w)
            below = [u for u in self.word_product(flavor, word).terms if u != w and not held(u)]
            for u in sorted(below, key=group.length):
                self.row(flavor, u)
            return _solve_row(self, flavor, w, word, partial(self.row, flavor))
        if w == group.identity:
            return {w: torus.ring.one()}
        u, i = _right_down(group, w)
        chain, v = [], u  # the right chain down to the first row held
        while v != group.identity and not held(v):
            chain.append(v)
            v = _right_down(group, v)[0]
        for v in reversed(chain):
            self.row(flavor, v)
        return right_step(self, c, self.row(flavor, u), u, i, flavor)

    def z_alpha(self, alpha: Vec) -> TwistedElement:
        """Z_alpha = (1/x_{-alpha}) (1 - eta_{t_{alpha^v}}) for a finite root."""
        torus = self.torus
        coroot = torus.datum.coroot_of.get(tuple(alpha))
        if coroot is None:
            raise ConfigError("%r is not a finite root" % (alpha,))
        return self.divided_difference(torus.embed_root((vneg(alpha), 0)),
                                       torus.group.translation(coroot))


# -- change of basis -------------------------------------------------------


Row = Dict[AffineElt, AlgebraElement]  # u -> b_{w,u} in S, no zero entry
Coefficient = Union[int, Scalar, AlgebraElement, Localized]


def combine_rows(terms: Iterable[Tuple[Coefficient, Mapping]]) -> Dict:
    """sum_u c_u map_u for the pairs (c_u, map_u), localized, simplified, without
    its negligible entries; two maps are equal when their difference is empty."""
    simplified = ((v, c.simplify()) for v, c in row_sum(terms).items())
    return {v: c for v, c in simplified if not c.is_negligible()}


def row_sum(terms: Iterable[Tuple[Coefficient, Mapping]]) -> Dict:
    """sum_u c_u map_u, each entry over the lcm of its terms' denominators.
    The keys may be anything hashable: elements, lattice points, pairs.
    An entry with the coefficient 1 is taken as it is, not copied."""
    out: Dict = {}
    for c, row in terms:
        for v, b in row.items():
            delta = b if type(c) is int and c == 1 else c * b
            out[v] = out[v] + delta if v in out else delta
    return out


def _require_flavor(flavor: str) -> None:
    if flavor not in ("x", "y"):
        raise ConfigError("expansion flavor must be 'x' or 'y', not %r" % (flavor,))


class ExpansionTables:
    """Triangular change of basis between {eta_w} and {X_{I_w}} on a window.

    I_w is the group's compat word of w, the canonical reduced word of the
    form (finite part) + (minimal coset representative part), read from the
    group's length layers, so products X_{I_u} X_{I_v} respect
    the Weyl-translation factorization used by the Peterson expansion.  With
    ``flavor="y"`` the basis is {Y_{I_w}} instead.

    The table is a window view of the algebra's rows over S, `TwistedAlgebra.row`,
    which chooses the route by the law; rows are shared and must not be modified.
    """

    def __init__(self, algebra: TwistedAlgebra, window: Window, flavor: str = "x"):
        self.algebra = algebra
        self.window = window
        self.flavor = flavor
        # b[w][u]: eta_w = sum_u b[w][u] X_{I_u}
        self.b: Dict[AffineElt, Row] = {w: algebra.row(flavor, w) for w in window.elements}

    @cached_property
    def a(self) -> Dict[AffineElt, Row]:
        """a[w][u]: X_{I_w} = sum_u a[w][u] eta_u."""
        return {w: self.algebra.word_product(self.flavor, self.window.compat_word(w)).terms
                for w in self.window.elements}

    def eta_in_x(self, w: AffineElt) -> Row:
        self.window.require(w)
        return self.b[w]

    def expand_in_x(self, z: TwistedElement) -> Dict[AffineElt, Localized]:
        """Left-coefficient expansion of z in the X_{I_w} basis, localized.  When
        the eta-support leaves the window, the error names its longest element,
        so the window it asks for holds the whole support."""
        outside = [u for u in z.terms if u not in self.window.index]
        if outside:
            self.window.require(max(outside, key=self.window.group.length),
                                "eta support of the element")
        return combine_rows((c, self.b[u]) for u, c in z.terms.items())


def back_substitute(algebra: TwistedAlgebra, window: Window, flavor: str = "x"
                    ) -> Dict[AffineElt, Row]:
    """The rows of eta_w for every w of the window, solved from the word
    products X_{I_w} in increasing length, each from the rows solved before
    it.  Reads and writes no row of the algebra, so it is the independent
    oracle of the recursion (`check_recursion`).

    With X_{I_w} = sum_u a_{w,u} eta_u, the entry of eta_w at v is s_v /
    a_{w,w}, s_v = delta_{wv} - sum_{u != w} a_{w,u} b_{u,v} summed
    unsimplified.  On the exact backends a partial sum that cancels to zero
    is passed over, so the next term is not lifted to the lcm of the terms
    before it; SER sums lift as before.  a_{w,w} is a unit over a product
    of x_beta, so the division subtracts denominator multiplicities and
    multiplies no x_beta in to be divided back out, which on SER would cost
    one degree of certified precision each; each entry is then simplified
    once, and its numerator kept.
    """
    _require_flavor(flavor)
    rows: Dict[AffineElt, Row] = {}

    def solved(u: AffineElt) -> Row:
        if u not in rows:
            raise ConfigError(
                "expansion of X_{I_w} is not triangular; unexpected "
                "support at an element not yet solved")
        return rows[u]

    for w in window.elements:
        rows[w] = _solve_row(algebra, flavor, w, window.compat_word(w), solved)
    return rows


def _solve_row(algebra: TwistedAlgebra, flavor: str, w: AffineElt,
               word: Tuple[int, ...], row_of: Callable[[AffineElt], Row]) -> Row:
    """The row of eta_w by back-substitution from X_{I_w}, I_w = `word`, and
    the rows `row_of(u)` of the other u of its support; raises if not over S."""
    aw = algebra.word_product(flavor, word).terms
    one = Localized(algebra.torus, algebra.torus.ring.one())
    s = row_sum([(1, {w: one})] + [(-c, row_of(u)) for u, c in aw.items() if u != w])
    settled = combine_rows([(1, {v: e / aw[w] for v, e in s.items()})])
    for v, e in settled.items():
        if e.den_map:
            name = algebra.torus.group.element_name
            raise MembershipError("row of eta[%s] not over S at %s" % (name(w), name(v)))
    return {v: e.num for v, e in settled.items()}


def _right_down(group: AffineWeylGroup, w: AffineElt) -> Tuple[AffineElt, int]:
    """(w s_i, i) for i the least right descent of w != e."""
    i = next(i for i in group.labels if group.right_descent(w, i))
    return group.mul(w, group.simple(i)), i


def right_step(algebra: TwistedAlgebra, c: Scalar, row: Row, u: AffineElt, i: int,
               flavor: str) -> Row:
    """The row of eta_{u s_i} from the row of eta_u, for u s_i > u, over S.

    Write Op for X or Y and x for x_{u(alpha_i)} = u(x_{alpha_i}).  Then
    eta_{u s_i} = eta_u eta_{s_i} = a eta_u + b eta_u Op_i, with (a, b) =
    (1, -x) for X and (1 - c x, x) for Y, and Op_{I_v} Op_i is Op_{I_{v s_i}}
    when v s_i > v ("i is no right descent of v", one root action) and c
    Op_{I_v} otherwise.  So the entry r_v of the row of eta_u puts a r_v at
    v and b r_v at v s_i, or (a + b c) r_v at v.  That needs Op_{I_w} to be
    independent of the reduced word, which holds for the laws x + y - c x y.
    """
    torus, group = algebra.torus, algebra.torus.group
    x = torus.x_root(group.act(u, group.simple_root(i)))
    a, b = (1, -x) if flavor == "x" else (1 - x * c, x)
    a_down = a + b * c
    terms: List[Tuple[Coefficient, Row]] = []
    for v, r in row.items():
        if not group.right_descent(v, i):
            terms += [(a, {v: r}), (b, {group.mul(v, group.simple(i)): r})]
        else:
            terms.append((a_down, {v: r}))
    return {v: r for v, r in row_sum(terms).items() if not r.is_zero()}


def demazure_walk(group: AffineWeylGroup, word: Sequence[int], v: AffineElt
                  ) -> Tuple[AffineElt, int]:
    """(w, m) with Op_{i_1} ... Op_{i_k} Op_{I_v} = c^m Op_{I_w} for the
    word i_1 ... i_k, Op standing for X or Y.

    The left-handed rule of `right_step`: Op_i Op_{I_w} is Op_{I_{s_i w}}
    when s_i w > w and c Op_{I_w} otherwise (Kostant-Kumar), the second from
    Op_i^2 = c Op_i, which holds for Y_i as for X_i.  So the letters are read
    from right to left, starting at w = v: a left descent i of w adds 1 to
    m, any other letter moves w to s_i w.  The w reached is the Demazure
    product of the word with v.  Like `right_step`, this needs the group law
    x + y - c x y.
    """
    w, m = v, 0
    for i in reversed(word):
        if group.left_descent(w, i):
            m += 1
        else:
            w = group.mul(group.simple(i), w)
    return w, m


# -- braid relations -------------------------------------------------------


@dataclass
class BraidReport:
    i: int
    j: int
    order: int
    holds: bool
    witness: Optional[str] = None

    def line(self) -> str:
        if self.holds:
            return "braid (%d,%d) of order %d: holds" % (self.i, self.j, self.order)
        return ("braid (%d,%d) of order %d: fails at %s"
                % (self.i, self.j, self.order, self.witness))


def braid_check(algebra: TwistedAlgebra, i: int, j: int) -> BraidReport:
    """Compare the two alternating Demazure products of the braid length.

    Raises NotApplicableError when i == j, whose relation of order 1 would
    compare X_i with itself, and when the Coxeter order of s_i s_j is
    infinite, as for the two generators of the rank-one affine group.
    """
    if i == j:
        raise NotApplicableError(
            "a braid relation needs two distinct generators, not %d twice" % i)
    datum = algebra.torus.datum
    m = datum.braid_order(i, j)
    if m is None:
        raise NotApplicableError(
            "generators %d and %d have infinite braid order; no braid "
            "relation exists to check" % (i, j))
    word_a = tuple((i, j)[k % 2] for k in range(m))
    word_b = tuple((j, i)[k % 2] for k in range(m))
    lhs = algebra.x_word(word_a)
    rhs = algebra.x_word(word_b)
    diff = row_sum(((1, lhs.terms), (-1, rhs.terms)))
    group = algebra.torus.group
    # settle the entries in order and stop at the first that does not vanish:
    # on SER a later entry may need more precision than the witness does
    for w in sorted(diff, key=lambda x: (group.length(x), group.reduced_word(x))):
        if not diff[w].simplify().is_negligible():
            return BraidReport(i, j, m, False, witness="eta[%s]: %r vs %r" % (
                group.element_name(w),
                lhs.coefficient(w).simplify(), rhs.coefficient(w).simplify()))
    return BraidReport(i, j, m, True)
