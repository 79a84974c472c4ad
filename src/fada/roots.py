"""Finite root data and affine Weyl groups in the translation normal form.

A finite root datum is built from a Cartan matrix A with A[i][j] = <alpha_i^v,
alpha_j>.  Roots are stored as integer coordinate tuples in the basis of simple
roots, coroots in the basis of simple coroots.  The affine Weyl group is the
semidirect product W x Q^v; an element is a pair (w, lam) standing for
w * t_lam, where the translation t_lam acts on an affine root mu + m*delta by
mu + (m - <lam, mu>)*delta.

Generator labels are 0..n: label 0 is the affine reflection in delta - theta,
labels 1..n are the finite simple reflections.

The finite Weyl group is small (at most 48 elements for the predefined
types, 5,040 for A6, the largest accepted), so a root datum enumerates it
once, breadth first, and keeps each element's least reduced word, in labels
1..n, and its right neighbours w s_i: the Cayley graph.  A product a * b
walks b's word from a along that graph, and a product of affine elements is
one such walk plus one integer matrix-vector product.

The affine group is enumerated once, by length layers, the one home of each
affine element's least word; a window is a group and a length bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul as _imul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigError, WindowExceededError
from .memo import memo

Vec = Tuple[int, ...]
Mat = Tuple[Vec, ...]
AffRoot = Tuple[Vec, int]  # (finite part in root coords, delta coefficient)


# -- small integer linear algebra -----------------------------------------


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple([sum(map(_imul, row, v)) for row in m])


def _times_reflection(m: Mat, i: int, row: Vec) -> Mat:
    """m s for the matrix s that is the identity but for its row i, e_i - row
    (row[i] = 2): (m s)[r][j] = m[r][j] - m[r][i] row[j]."""
    return tuple(tuple([x - r[i] * a for x, a in zip(r, row)]) for r in m)


# -- finite Weyl group elements -------------------------------------------


class FiniteWeylElt:
    """An element of the finite Weyl group of a root datum: a vertex of its
    Cayley graph.

    `FiniteRootDatum` creates each of its elements once, numbered in the
    order of `weyl_elements` (by length, then least reduced word), and every
    product, inverse and reflection returns one of those objects.  Equality
    is therefore identity, and the hash is the index.  An element carries its
    action on roots (`mat`) and on coroots (`cmat`), the coroot action of its
    inverse (`cmat_inv`), its inverse, its least reduced word in the labels
    1..n (`word`) and its right neighbours by label (`_right`: None, w s_1,
    ..., w s_n), so that `a * b` walks `b.word` from `a` through `_right`.
    """

    __slots__ = ("index", "mat", "cmat", "cmat_inv", "_inv", "word", "_right")

    def __init__(self, index: int, mat: Mat, cmat: Mat, word: Tuple[int, ...]):
        self.index = index
        self.mat = mat
        self.cmat = cmat
        self.word = word

    def __mul__(self, other: "FiniteWeylElt") -> "FiniteWeylElt":
        out = self
        for i in other.word:
            out = out._right[i]
        return out

    def inverse(self) -> "FiniteWeylElt":
        return self._inv

    def act_root(self, v: Vec) -> Vec:
        return matvec(self.mat, v)

    def act_coroot(self, v: Vec) -> Vec:
        return matvec(self.cmat, v)

    def __hash__(self):
        return self.index

    def __repr__(self):
        return "FiniteWeylElt(%d, %r)" % (self.index, self.mat)


class AffineElt(NamedTuple):
    """w * t_lam in the affine Weyl group."""

    w: FiniteWeylElt
    t: Vec


# -- root datum ------------------------------------------------------------

_PREDEFINED: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    "B2": ((2, -1), (-2, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
}


# |W(A6)|: enumerating A7 (40,320 elements) or E6 (51,840) would take about
# 3 s and 100-125 MB before any window exists
_WEYL_ORDER_BOUND = 5040


def _type_a_cartan(n: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


class FiniteRootDatum:
    """Roots, coroots and the finite Weyl group of a finite-type Cartan matrix.

    Only irreducible types are accepted: the untwisted affinization adds one
    node attached through the highest root, which requires a unique highest
    root.
    """

    def __init__(self, cartan: Mat):
        self.cartan = cartan
        self.rank = len(cartan)
        self._validate()
        self._build_weyl()
        self._close_roots()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_cartan(cls, rows: Sequence[Sequence[int]]) -> "FiniteRootDatum":
        """The datum of a matrix of ints; no other entry (float, string or
        bool) is read as one."""
        try:
            cartan = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise ConfigError("Cartan matrix must be a list of rows") from exc
        bad = [v for row in cartan for v in row if type(v) is not int]
        if bad:
            raise ConfigError("Cartan matrix entries must be integers, not %r" % (bad[0],))
        return cls(cartan)

    @classmethod
    def from_type(cls, name: str) -> "FiniteRootDatum":
        name = name.strip().upper().replace("_", "")
        if name in _PREDEFINED:
            return cls(_PREDEFINED[name])
        if name.startswith("A") and name[1:].isdigit() and int(name[1:]) >= 1:
            return cls(_type_a_cartan(int(name[1:])))
        raise ConfigError("unknown root system type %r" % name)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        A = self.cartan
        n = self.rank
        if n == 0 or any(len(row) != n for row in A):
            raise ConfigError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if A[i][i] != 2:
                raise ConfigError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j:
                    if A[i][j] > 0:
                        raise ConfigError("off-diagonal Cartan entries must be <= 0")
                    if (A[i][j] == 0) != (A[j][i] == 0):
                        raise ConfigError("Cartan zero pattern must be symmetric")
        # symmetrizer d with d_i * A[i][j] = d_j * A[j][i], by a walk of the
        # Dynkin graph from node 0; a node it never reaches means a reducible
        # matrix, and affinization needs the unique highest root of an
        # irreducible one
        d: List[Optional[Fraction]] = [None] * n
        d[0] = Fraction(1)
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if A[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(A[i][j], A[j][i])
                    frontier.append(j)
        if None in d:
            raise ConfigError("Cartan matrix must be irreducible")
        scale = math.lcm(*(x.denominator for x in d))
        self.symmetrizer: Vec = tuple(int(x * scale) for x in d)
        if any(x <= 0 for x in self.symmetrizer):
            raise ConfigError("Cartan matrix is not symmetrizable with positive weights")
        # positive definiteness of the symmetrized matrix = finite type
        sym = [[Fraction(self.symmetrizer[i] * A[i][j]) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            if _leading_minor(sym, k) <= 0:
                raise ConfigError("Cartan matrix is not of finite type")

    # -- pairing and roots -------------------------------------------------

    def pairing(self, coroot: Vec, root: Vec) -> int:
        """<lam, mu> for lam in coroot coordinates, mu in root coordinates."""
        A = self.cartan
        total = 0
        for i, li in enumerate(coroot):
            if li:
                row = A[i]
                total += li * sum(row[j] * root[j] for j in range(self.rank) if root[j])
        return total

    # -- finite Weyl group -------------------------------------------------

    def _build_weyl(self) -> None:
        """Enumerate W breadth-first by right multiplication with the simple
        reflections, keeping each element's right neighbours; then each
        inverse is the walk of the reversed least word from the identity.
        An enumeration that passes `_WEYL_ORDER_BOUND` elements stops with a
        ConfigError."""
        n = self.rank
        A = self.cartan
        # s_{i+1} acts on roots by e_i - A[i] in row i, on coroots by e_i - A[:,i]
        gens = [(A[i], tuple(row[i] for row in A)) for i in range(n)]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        elements = [FiniteWeylElt(0, ident, ident, ())]
        by_mat: Dict[Mat, FiniteWeylElt] = {ident: elements[0]}
        # elements are visited in index order, so each new element is met
        # first through its least word and indices follow (length, least word)
        for w in elements:
            right = []
            for i, (root_row, coroot_row) in enumerate(gens):
                ws = _times_reflection(w.mat, i, root_row)
                if ws not in by_mat:
                    if len(elements) == _WEYL_ORDER_BOUND:
                        raise ConfigError("finite Weyl group has more than %d elements, "
                                          "the most a root datum takes (A6)" % _WEYL_ORDER_BOUND)
                    by_mat[ws] = FiniteWeylElt(len(elements), ws,
                                               _times_reflection(w.cmat, i, coroot_row),
                                               w.word + (i + 1,))
                    elements.append(by_mat[ws])
                right.append(by_mat[ws])
            w._right = (None, *right)
        identity = elements[0]
        for w in elements:
            inv = identity
            for i in reversed(w.word):
                inv = inv._right[i]
            w._inv = inv
            w.cmat_inv = inv.cmat
        self.weyl_elements: Tuple[FiniteWeylElt, ...] = tuple(elements)
        self.weyl_identity = identity
        self.longest_element = elements[-1]
        # the identity's right neighbours are s_1, ..., s_n
        self.simple_reflections: Tuple[FiniteWeylElt, ...] = identity._right[1:]

    # -- roots and reflections ---------------------------------------------

    def _close_roots(self) -> None:
        n = self.rank
        simples = self.simple_reflections
        pairs: Dict[Vec, Vec] = {}
        reflections: Dict[Vec, FiniteWeylElt] = {}
        frontier: List[Vec] = []
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            pairs[e] = e
            reflections[e] = simples[i]
            frontier.append(e)
        while frontier:
            root = frontier.pop()
            for s in simples:
                r2 = s.act_root(root)
                if r2 not in pairs:
                    pairs[r2] = s.act_coroot(pairs[root])
                    reflections[r2] = s * reflections[root] * s  # s_{s(a)} = s s_a s
                    frontier.append(r2)
        self.coroot_of: Dict[Vec, Vec] = pairs
        self._reflections = reflections
        self.roots: Tuple[Vec, ...] = tuple(sorted(pairs))
        self.positive_roots: Tuple[Vec, ...] = tuple(
            sorted(r for r in pairs if all(c >= 0 for c in r))
        )
        self.negative_roots: Tuple[Vec, ...] = tuple(vneg(r) for r in self.positive_roots)
        if 2 * len(self.positive_roots) != len(self.roots):
            raise ConfigError("root system closure is not symmetric")
        if len(self.longest_element.word) != len(self.positive_roots):
            raise ConfigError("finite Weyl group enumeration is inconsistent")
        by_height = sorted(self.positive_roots, key=lambda r: (sum(r), r))
        self.theta: Vec = by_height[-1]
        if len(by_height) > 1 and sum(by_height[-2]) == sum(self.theta):
            # a tie would mean the system is reducible; already excluded
            raise ConfigError("highest root is not unique")
        self.theta_coroot: Vec = pairs[self.theta]

    def reflection(self, root: Vec) -> FiniteWeylElt:
        """The reflection s_alpha for any (positive or negative) root."""
        try:
            return self._reflections[root]
        except KeyError:
            raise ConfigError("%r is not a root" % (root,)) from None

    # -- affine data -------------------------------------------------------

    def braid_order(self, i: int, j: int) -> Optional[int]:
        """Order of s_i s_j in the affine group; None means infinite.

        It is read off a_ij a_ji, a_ij = <alpha_i^v, alpha_j>, with
        alpha_0 = -theta and alpha_0^v = -theta^v."""
        if i == j:
            return 1
        units = [tuple(int(m == k) for m in range(self.rank)) for k in range(self.rank)]
        simple = [(vneg(self.theta_coroot), vneg(self.theta))] + [(e, e) for e in units]
        (coi, ri), (coj, rj) = simple[i], simple[j]
        prod = self.pairing(coi, rj) * self.pairing(coj, ri)
        return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod)


def _leading_minor(m: List[List[Fraction]], k: int) -> Fraction:
    sub = [row[:k] for row in m[:k]]
    det = Fraction(1)
    for col in range(k):
        pivot = None
        for r in range(col, k):
            if sub[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            sub[col], sub[pivot] = sub[pivot], sub[col]
            det = -det
        det *= sub[col][col]
        for r in range(col + 1, k):
            factor = sub[r][col] / sub[col][col]
            sub[r] = [sub[r][j] - factor * sub[col][j] for j in range(k)]
    return det


# -- affine Weyl group -----------------------------------------------------


@dataclass
class Window:
    """All affine Weyl elements of length at most `length_bound`, read from
    the group's length layers.

    Elements are canonically ordered by (length, lexicographically least
    reduced word); `word(x)` reads that word from the layer of x, so a window
    keeps no word.  Tables derived from the elements are kept on the window
    by `memo`, outside its fields.  A window compares and prints as its group
    and bound, which determine the rest.
    """

    group: "AffineWeylGroup"
    length_bound: int
    elements: Tuple[AffineElt, ...] = field(init=False, compare=False, repr=False)
    lengths: Dict[AffineElt, int] = field(init=False, compare=False, repr=False)
    index: Dict[AffineElt, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.lengths = {}
        # a negative bound still gives the identity
        for d in range(max(self.length_bound, 0) + 1):
            self.lengths.update(dict.fromkeys(self.group._layer(d), d))
        self.elements = tuple(self.lengths)
        self.index = {x: k for k, x in enumerate(self.elements)}

    @memo
    def root_steps(self, alpha: Vec) -> Tuple[Tuple[Optional[int], ...],
                                              Tuple[Optional[int], ...]]:
        """For each element x, by position, the positions of t_{alpha^v} x and
        of s_alpha x, or None outside the window.  Built once per root (`memo`)
        with no group product: t_mu (u t_a) = u t_{a + u^-1 mu}, s_alpha (u t_a)
        = (s_alpha u) t_a."""
        coroot = self.group.datum.coroot_of[alpha]
        s = self.group.datum.reflection(alpha)
        shifted = (AffineElt(x.w, tuple(a + b for a, b in
                                        zip(x.t, matvec(x.w.cmat_inv, coroot))))
                   for x in self.elements)
        reflected = (AffineElt(s * x.w, x.t) for x in self.elements)
        return (tuple(map(self.index.get, shifted)), tuple(map(self.index.get, reflected)))

    @memo
    def reflection_pairs(self) -> Tuple[Tuple[int, int, AffRoot], ...]:
        """(a, b, beta) for every pair of positions a < b whose elements
        differ by a real affine reflection, x_b x_a^-1 = s_beta with beta
        positive, in order of a and then b.  Built once by `memo`, with no
        group product.

        For x = u t_a and a positive root alpha the partners are
        s_{alpha + m delta} x = (s_alpha u) t_{a + m gamma^v}, gamma =
        u^-1 alpha, looked up in the window for each m with
        |<a, gamma> + 2m| <= L + 1.  That bound is one term of the length
        formula: the term of the positive root +-gamma in the length of the
        partner is |+-(<a, gamma> + 2m) + chi| with chi 0 or 1, and it is at
        most the partner's length, at most L.  beta is (alpha, m), or
        (-alpha, -m) when m < 0."""
        datum = self.group.datum
        bound = self.length_bound + 1
        pairs, finite_parts = [], {x.w for x in self.elements}
        for alpha in datum.positive_roots:
            s, coroot, neg = datum.reflection(alpha), datum.coroot_of[alpha], vneg(alpha)
            # per finite part u: s_alpha u, gamma^v, and A gamma, so that
            # <a, gamma> is a dot product with a
            by_w = {u: (s * u, matvec(u.cmat_inv, coroot),
                        matvec(datum.cartan, u.inverse().act_root(alpha)))
                    for u in finite_parts}
            for a, x in enumerate(self.elements):
                su, step, a_gamma = by_w[x.w]
                p = sum(map(_imul, x.t, a_gamma))
                for m in range(-((bound + p) // 2), (bound - p) // 2 + 1):
                    b = self.index.get(AffineElt(su, tuple(
                        [t + m * v for t, v in zip(x.t, step)])))
                    if b is not None and b > a:
                        pairs.append((a, b, (alpha, m) if m >= 0 else (neg, -m)))
        # one reflection per pair (a, b), so beta never decides the order
        return tuple(sorted(pairs))

    def __contains__(self, x: AffineElt) -> bool:
        return x in self.index

    def require(self, x: AffineElt, context: str = "") -> None:
        if x not in self.index:
            need = self.group.length(x)
            raise WindowExceededError(
                "element of length %d lies outside window of size %d%s; "
                "rerun with window >= %d"
                % (need, self.length_bound, (" (%s)" % context) if context else "", need)
            )

    def word(self, x: AffineElt) -> Tuple[int, ...]:
        self.require(x)
        return self.group._layer(self.lengths[x])[x]

    def compat_word(self, x: AffineElt) -> Tuple[int, ...]:
        """The group's compat word of x, an element of the window."""
        self.require(x)
        return self.group.compat_word(x)

    def minimal_coset_reps(self) -> Tuple[AffineElt, ...]:
        return tuple(x for x in self.elements if self.group.is_minimal_rep(x))


class AffineWeylGroup:
    """The affine Weyl group of a finite root datum, with reduced words and
    Bruhat order.  Windows and compat words read the length layers
    `_layer(d)` in increasing d, so no call recurses through lengths."""

    def __init__(self, datum: FiniteRootDatum):
        self.datum = datum
        n = datum.rank
        self.identity = AffineElt(datum.weyl_identity, (0,) * n)
        gens = [AffineElt(datum.reflection(datum.theta), vneg(datum.theta_coroot))]
        for i in range(n):
            gens.append(AffineElt(datum.simple_reflections[i], (0,) * n))
        self.generators: Tuple[AffineElt, ...] = tuple(gens)
        self.labels: Tuple[int, ...] = tuple(range(n + 1))

    # -- structure ---------------------------------------------------------

    def simple(self, i: int) -> AffineElt:
        return self.generators[i]

    def simple_root(self, i: int) -> AffRoot:
        n = self.datum.rank
        if i == 0:
            return (vneg(self.datum.theta), 1)
        return (tuple(1 if j == i - 1 else 0 for j in range(n)), 0)

    def mul(self, x: AffineElt, y: AffineElt) -> AffineElt:
        # (u t_a)(v t_b) = uv t_{v^-1(a) + b}
        v = y.w
        a = x.t
        return AffineElt(x.w * v, tuple(
            [sum(map(_imul, row, a)) + b for row, b in zip(v.cmat_inv, y.t)]))

    def inv(self, x: AffineElt) -> AffineElt:
        return AffineElt(x.w.inverse(), vneg(x.w.act_coroot(x.t)))

    def from_word(self, word: Iterable[int]) -> AffineElt:
        out = self.identity
        for i in word:
            out = self.mul(out, self.generators[i])
        return out

    def translation(self, lam: Vec) -> AffineElt:
        return AffineElt(self.datum.weyl_identity, tuple(lam))

    def is_translation(self, x: AffineElt) -> bool:
        return x.w is self.datum.weyl_identity

    def affine_reflection(self, beta: AffRoot) -> AffineElt:
        """The reflection in the real affine root alpha + m*delta."""
        mu, m = beta
        if mu not in self.datum.coroot_of:
            raise ConfigError("%r is not a real affine root" % (beta,))
        coroot = self.datum.coroot_of[mu]
        return AffineElt(self.datum.reflection(mu), tuple(m * v for v in coroot))

    # -- action on affine roots --------------------------------------------

    def act(self, x: AffineElt, beta: AffRoot) -> AffRoot:
        mu, m = beta
        return (x.w.act_root(mu), m - self.datum.pairing(x.t, mu))

    def is_negative_root(self, beta: AffRoot) -> bool:
        mu, m = beta
        if m != 0:
            return m < 0
        return any(c < 0 for c in mu)

    # -- length and descents -----------------------------------------------

    def length(self, x: AffineElt) -> int:
        """Closed form: sum over finite positive roots alpha of
        |<lam, alpha> + [w(alpha) < 0]| for x = w t_lam."""
        total = 0
        datum = self.datum
        for alpha in datum.positive_roots:
            chi = 1 if any(c < 0 for c in x.w.act_root(alpha)) else 0
            total += abs(datum.pairing(x.t, alpha) + chi)
        return total

    def right_descent(self, x: AffineElt, i: int) -> bool:
        return self.is_negative_root(self.act(x, self.simple_root(i)))

    def left_descent(self, x: AffineElt, i: int) -> bool:
        return self.is_negative_root(self.act(self.inv(x), self.simple_root(i)))

    def sign(self, x: AffineElt) -> int:
        return -1 if self.length(x) % 2 else 1

    # -- enumeration -------------------------------------------------------

    @memo
    def _layer(self, d: int) -> Dict[AffineElt, Tuple[int, ...]]:
        """The elements of length d, each with its lexicographically least
        reduced word, in word order.  That word is the least (word of y s_i)
        + (i,) over right descents i, and with layer d - 1 in word order the
        loop meets it first."""
        if d == 0:
            return {self.identity: ()}
        layer: Dict[AffineElt, Tuple[int, ...]] = {}
        for x, word in self._layer(d - 1).items():
            for i in self.labels:
                if not self.right_descent(x, i):
                    y = self.mul(x, self.generators[i])
                    if y not in layer:
                        layer[y] = word + (i,)
        return layer

    @memo
    def window(self, length_bound: int) -> Window:
        return Window(self, length_bound)

    def _least_word(self, x: AffineElt) -> Tuple[int, ...]:
        """The lexicographically least reduced word of x, read from the first
        layer that holds it."""
        d = 0
        while x not in self._layer(d):
            d += 1
        return self._layer(d)[x]

    @memo
    def compat_word(self, x: AffineElt) -> Tuple[int, ...]:
        """The reduced word (least word of u) + (least word of v) of x = u v,
        v of minimal length in W x.  Kept per element by `memo`."""
        u, v = self.coset_decompose(x)
        return u.word + self._least_word(v)

    def is_minimal_rep(self, x: AffineElt) -> bool:
        """Minimal length in its coset x W: no finite right descent."""
        return not any(self.right_descent(x, i) for i in range(1, self.datum.rank + 1))

    def coset_decompose(self, x: AffineElt) -> Tuple[FiniteWeylElt, AffineElt]:
        """x = u v with u finite and v minimal in W x; lengths add."""
        u = self.datum.weyl_identity
        v = x
        moved = True
        while moved:
            moved = False
            for i in range(1, self.datum.rank + 1):
                if self.left_descent(v, i):
                    v = self.mul(self.generators[i], v)
                    u = u * self.datum.simple_reflections[i - 1]
                    moved = True
                    break
        return u, v

    def coset_decompose_right(self, x: AffineElt) -> Tuple[AffineElt, FiniteWeylElt]:
        """x = v u with u finite and v minimal in x W; lengths add."""
        u, v = self.coset_decompose(self.inv(x))
        return self.inv(v), u.inverse()

    def reduced_word(self, x: AffineElt) -> Tuple[int, ...]:
        """Lexicographically least reduced word, read from the length layers."""
        return self._least_word(x)

    # -- Bruhat order ------------------------------------------------------

    @memo
    def bruhat_leq(self, x: AffineElt, y: AffineElt) -> bool:
        if x == y:
            return True
        lx = self.length(x)
        if lx >= self.length(y):
            return False
        for i in self.labels:
            if self.right_descent(y, i):
                ys = self.mul(y, self.generators[i])
                xs = self.mul(x, self.generators[i])
                return self.bruhat_leq(xs, ys) if self.length(xs) < lx else self.bruhat_leq(x, ys)
        raise ConfigError("nonidentity element without right descent")

    # -- formatting --------------------------------------------------------

    def word_name(self, word: Sequence[int]) -> str:
        if not word:
            return "e"
        return " ".join("s%d" % i for i in word)

    def element_name(self, x: AffineElt) -> str:
        return self.word_name(self.reduced_word(x))
