"""Formal group algebras of the big and small torus, in four exact models.

Backends:

* ``ADD``  polynomials in x_1..x_nvars, with x_mu linear in mu  (additive law)
* ``MUL``  the integral group ring of the lattice, x_mu = 1 - e_{-mu}
           (multiplicative law with inverted parameter set to 1)
* ``CON``  group ring over Z[c, c^{-1}], x_mu = c^{-1}(1 - e_{-mu})
           (connective law with generic invertible c)
* ``SER``  truncated power series for an arbitrary formal group law, with a
           tracked per-element precision

The big torus has character lattice Q + Z*delta (coordinates: simple roots,
then delta); the small torus has Q only, and translations act trivially on it.

Every element stores its terms as one dict from folded monomials to nonzero
ints (see `polyops`): ``nvars`` lattice slots -- exponents of x_1..x_nvars
for ADD/SER, a lattice point for MUL/CON -- followed by one exponent per
parameter of the law, in ``ring.params`` order.  ADD and MUL have no
parameters, CON has c, and SER has the parameters of its law.  `Scalar`
coefficients appear only at the boundary: `FormalRing.element` folds them in
and `AlgebraElement.coefficients` regroups the terms into them.

On every backend each monomial is packed into one integer key on its ring's
`polyops.KeyCodec` (`FormalRing.codec`), so products, substitutions, the
Weyl action and divisions add integers instead of building tuples.  Terms
are packed where they enter: the `AlgebraElement` constructor, which
`FormalRing.element`, `one`, `from_scalar` and the exact x_mu go through,
and `zero` and the x-series, built on packed keys by the law.  They
are unpacked only where they leave: `AlgebraElement.terms`, `coefficients`
(and so `__repr__` and `TorusAlgebra.augmentation`).  So `terms` is keyed by
exponent tuples, and nothing outside this module and `polyops` (and the
law's series operations) sees a packed key.

`FormalRing.divide` divides by powers of x_b, on the one layout of x_b that
`FormalRing.divisor` builds per ring and lattice point b.  On MUL and CON it
divides by a running sum along each chain lambda + Z*b of lattice points,
with no polynomial division.  On ADD x_b is the linear form l_b = sum_i b_i
x_i, and on SER l_b is its lowest form; both divide by synthetic division in
one variable, once per lattice degree, in `polyops.series_div_exact` (ADD
with no precision bound).  `Localized.simplify` cancels through it, and
`TorusAlgebra.divisible` is the one test "x_beta^d divides f" of the GKM
checks: an exact zero passes with no division, and every other verdict is
kept on the torus by `memo` as a bool, keyed by (frozenset of f's packed
terms, f.prec, beta, d), so a question the checks ask again on the same
torus is answered without dividing.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from . import polyops
from .errors import ConfigError, MembershipError, PrecisionError
from .fgl import FormalGroupLaw, from_descriptor
from .memo import memo
from .polyops import Series, Terms
from .scalars import Scalar
from .roots import AffineElt, AffineWeylGroup, AffRoot, FiniteRootDatum, Vec

# each exact backend and the one law it realizes; SER takes any law
EXACT_BACKENDS = {"ADD": "additive", "MUL": "multiplicative", "CON": "connective"}
BACKENDS = (*EXACT_BACKENDS, "SER")


class FormalRing:
    """One model of the formal group algebra R[[x_Lambda]] of a lattice."""

    def __init__(self, backend: str, nvars: int, fgl: Optional[FormalGroupLaw] = None,
                 precision: int = 8):
        if backend not in BACKENDS:
            raise ConfigError("unknown backend %r" % backend)
        self.backend = backend
        self.nvars = nvars
        if backend in EXACT_BACKENDS:
            self.fgl = from_descriptor({"kind": EXACT_BACKENDS[backend]})
        elif fgl is None:
            raise ConfigError("SER backend needs an explicit formal group law")
        else:
            self.fgl = fgl
        self.params: Tuple[str, ...] = self.fgl.params
        self.precision = precision
        if backend == "SER" and precision < 1:
            raise ConfigError("series precision must be at least 1")
        # the packed-key layout of every element's terms
        self.codec = polyops.KeyCodec(nvars, len(self.params))

    # -- constants and the scalar boundary ---------------------------------

    def element(self, coeffs: Mapping[Vec, Union[int, Scalar]]) -> "AlgebraElement":
        """sum_k coeffs[k] * (the monomial of lattice key k), with int
        coefficients or Scalars over this ring's parameters."""
        zero = (0,) * len(self.params)
        terms: Terms = {}
        for k, v in coeffs.items():
            k = tuple(k)
            if isinstance(v, Scalar):
                if v.params != self.params:
                    raise ValueError("scalar parameter mismatch: %r vs %r"
                                     % (v.params, self.params))
                terms.update((k + e, c) for e, c in v.terms.items())
            elif v:
                terms[k + zero] = int(v)
        return AlgebraElement(self, terms, None)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._cut(self, {}, self.precision if self.backend == "SER" else None)

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(0,) * (self.nvars + len(self.params)): 1}, None)

    def from_scalar(self, v: Union[int, Scalar]) -> "AlgebraElement":
        return self.element({(0,) * self.nvars: v})

    # -- the Euler classes x_mu -------------------------------------------

    def x_of(self, mu: Vec) -> "AlgebraElement":
        return self._x(tuple(mu))

    @memo
    def _x(self, mu: Vec) -> "AlgebraElement":
        """x_mu, kept per lattice point by `memo`."""
        if len(mu) != self.nvars:
            raise ConfigError("lattice point has wrong rank")
        zero = (0,) * self.nvars
        neg = tuple(-v for v in mu)
        if self.backend == "ADD":
            terms = {
                tuple(1 if j == i else 0 for j in range(self.nvars)): mu[i]
                for i in range(self.nvars) if mu[i]
            }
            return AlgebraElement(self, terms, None)
        if self.backend == "MUL":
            return AlgebraElement(self, {zero: 1, neg: -1} if any(mu) else {}, None)
        if self.backend == "CON":
            # c^{-1} (1 - e_{-mu}): the c slot of both keys is -1
            terms = {zero + (-1,): 1, neg + (-1,): -1} if any(mu) else {}
            return AlgebraElement(self, terms, None)
        # SER: the formal sum of the multiples [mu_i](x_i)
        prec, codec = self.precision, self.codec
        acc: Optional[Series] = None
        for i, k in enumerate(mu):
            if not k:
                continue
            part = self._multiple(i, k)
            acc = part if acc is None else self.fgl.add(acc, part, prec, codec)
        return AlgebraElement._cut(self, acc or {}, prec)

    @memo
    def x_pow(self, mu: Vec, k: int) -> "AlgebraElement":
        """x_mu^k for k >= 1, kept by `memo`; `mu` must be a tuple."""
        return self.x_of(mu) * (self.x_pow(mu, k - 1) if k > 1 else 1)

    @memo
    def _multiple(self, i: int, k: int) -> Series:
        """The formal multiple [k](x_i) for k != 0, kept by `memo`: [k] is
        F([k - 1], x_i) and [-k] is F([-k + 1], [-1](x_i)), so the law's
        inverse runs once per variable."""
        prec, codec = self.precision, self.codec
        if k == 1:
            return {codec.units[i]: 1}
        if k == -1:
            return self.fgl.inverse(self._multiple(i, 1), prec, codec)
        step = 1 if k > 0 else -1
        return self.fgl.add(self._multiple(i, k - step), self._multiple(i, step), prec, codec)

    # -- division by powers of x_b -----------------------------------------

    @memo
    def divisor(self, b: Vec) -> Union[Tuple[int, int, int], polyops.SeriesDivisor]:
        """x_b laid out for division, once per ring and point by `memo`.  On
        MUL and CON: a slot i with b_i != 0, which keys the chains lam + Z*b,
        and the key steps of b and of the c slot (0 on MUL; keys are affine in
        the exponents).  On ADD and SER: a `polyops.SeriesDivisor`."""
        codec = self.codec
        if self.backend in ("MUL", "CON"):
            step = codec.pack(b + (0,) * len(self.params)) - codec.offset
            lift = (codec.pack((0,) * len(b) + (1,)) - codec.offset
                    if self.backend == "CON" else 0)
            return (next(j for j, v in enumerate(b) if v), step, lift)
        return polyops.SeriesDivisor(self.x_of(b)._terms, codec)

    def divide(self, f: "AlgebraElement", b: Vec, m: int) -> Tuple["AlgebraElement", int]:
        """(f / x_b^k, k) for the largest k <= m with x_b^k dividing f."""
        if not any(b):
            raise ConfigError("cannot divide by x_0 = 0")
        for k in range(m):
            q = self._quotient(f, b)
            if q is None:
                return f, k
            f = q
        return f, m

    def _quotient(self, f: "AlgebraElement", b: Vec) -> Optional["AlgebraElement"]:
        if self.backend in ("MUL", "CON"):
            return self._chain_quotient(f, b)
        # x_b has lattice valuation 1: on SER the quotient is cut at
        # f.prec - 1, and on ADD, where x_b is the linear form sum_i b_i x_i
        # itself, it is exact
        if f.prec is not None and f.prec < 1:
            raise PrecisionError("series precision exhausted in division; %s"
                                 % self.fgl.precision_hint(self.precision + 1 - f.prec))
        res = polyops.series_div_exact(f._terms, self.divisor(b), f.prec)
        return None if res is None else AlgebraElement._cut(self, *res)

    def _chain_quotient(self, f: "AlgebraElement", b: Vec) -> Optional["AlgebraElement"]:
        """x_b = c^{-1}(1 - e_{-b}) (c = 1 on MUL) divides f iff f sums to 0 along
        each chain lam + Z*b, parameter slots fixed; q_lam = c sum_{j>=0} f_{lam+jb}."""
        codec = self.codec
        i, step, lift = self.divisor(b)
        # chains are keyed by their point with slot i in [0, b_i), c slot lifted
        chains: Dict[int, List[Tuple[int, int]]] = {}
        for k, c in f._terms.items():
            t = codec.exponent(k, i) // b[i]
            chains.setdefault(k - t * step + lift, []).append((t, c))
        # a chain key out of range could alias another chain
        codec.check(chains)
        q: Series = {}
        for base, points in chains.items():
            points.sort(reverse=True)
            total, top = 0, points[0][0]
            for t, c in points:
                for u in range(t + 1, top + 1) if total else ():
                    q[base + u * step] = total
                total, top = total + c, t
            if total:
                return None
        return AlgebraElement._cut(self, q, None)


class AlgebraElement:
    """An element of a FormalRing: folded monomials to nonzero ints.  SER
    elements carry the lattice degree to which their terms are certified and
    drop the terms beyond it.  `_terms` holds the ring's packed keys; `terms`
    gives them as exponent tuples."""

    __slots__ = ("ring", "_terms", "prec")

    def __init__(self, ring: FormalRing, terms: Terms, prec: Optional[int]):
        """An element from terms keyed by exponent tuples, packed; SER drops
        those beyond `prec` (by default the ring's precision)."""
        self.ring = ring
        self._terms = ring.codec.pack_terms(terms)
        if ring.backend == "SER":
            if prec is None:
                prec = ring.precision
            self._terms = polyops.ptruncate(self._terms, prec, ring.codec)
        else:
            prec = None
        self.prec = prec

    @classmethod
    def _cut(cls, ring: FormalRing, terms: Series, prec: Optional[int]) -> "AlgebraElement":
        """An element from terms on the ring's packed keys, cut at `prec`
        already, such as products from `polyops.pmul(..., prec)` (SER
        elements always carry one)."""
        out = cls.__new__(cls)
        out.ring = ring
        out._terms = terms
        out.prec = prec
        return out

    @property
    def terms(self) -> Terms:
        return self.ring.codec.unpack_terms(self._terms)

    # -- helpers -----------------------------------------------------------

    def _join(self, other: "AlgebraElement") -> Optional[int]:
        if self.ring is not other.ring:
            if (self.ring.backend != other.ring.backend
                    or self.ring.nvars != other.ring.nvars
                    or self.ring.params != other.ring.params):
                raise ConfigError("elements live in different rings")
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def with_terms(self, terms: Series) -> "AlgebraElement":
        """Terms on the ring's packed keys, no higher in lattice degree than
        ours, at our precision."""
        return AlgebraElement._cut(self.ring, terms, self.prec)

    def _sum(self, other: "AlgebraElement", terms: Series) -> "AlgebraElement":
        """The sum or difference `terms` of self and other, at the joined
        precision: cut again only when the precisions differ."""
        prec = self._join(other)
        if self.prec != other.prec:
            terms = polyops.ptruncate(terms, prec, self.ring.codec)
        return AlgebraElement._cut(self.ring, terms, prec)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (AlgebraElement, int, Scalar)):
            return NotImplemented
        other = self._coerce(other)
        return self._sum(other, polyops.padd(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        """self - other, with no arithmetic when either is an exact zero."""
        if not isinstance(other, (AlgebraElement, int, Scalar)):
            return NotImplemented
        other = self._coerce(other)
        if other.is_exact_zero():
            return self
        if self.is_exact_zero():
            return -other
        return self._sum(other, polyops.psub(self._terms, other._terms))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.with_terms(polyops.pneg(self._terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.with_terms(polyops.pscale(self._terms, other))
        if isinstance(other, Scalar):
            other = self.ring.from_scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        prec = self._join(other)
        return AlgebraElement._cut(
            self.ring, polyops.pmul(self._terms, other._terms, prec, self.ring.codec), prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the formal ring")
        out = self.ring.one()
        base = self
        for _ in range(n):
            out = out * base
        if self.prec is not None:
            out = AlgebraElement._cut(
                self.ring, polyops.ptruncate(out._terms, self.prec, self.ring.codec), self.prec)
        return out

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return other
        if isinstance(other, (int, Scalar)):
            return self.ring.from_scalar(other)
        raise TypeError("cannot combine AlgebraElement with %r" % type(other))

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.ring.from_scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        prec = self._join(other)
        if prec is None:
            return self._terms == other._terms
        codec = self.ring.codec
        return (polyops.ptruncate(self._terms, prec, codec)
                == polyops.ptruncate(other._terms, prec, codec))

    def __hash__(self):
        raise TypeError("AlgebraElement is unhashable; compare with ==")

    def is_zero(self) -> bool:
        return not self._terms

    def is_exact_zero(self) -> bool:
        """Zero with no precision to pay for: a zero of ADD, MUL or CON.  A
        SER zero only vanishes through O(p)."""
        return not self._terms and self.prec is None

    def coefficients(self) -> Dict[Vec, Scalar]:
        """The terms regrouped by lattice key, each coefficient a Scalar over
        the ring's parameters."""
        n = self.ring.nvars
        groups: Dict[Vec, Dict[Vec, int]] = {}
        for e, c in self.terms.items():
            groups.setdefault(e[:n], {})[e[n:]] = c
        return {k: Scalar(self.ring.params, t) for k, t in groups.items()}

    def coefficient(self, key: Vec) -> Scalar:
        return self.coefficients().get(tuple(key), Scalar.const(0, self.ring.params))

    def __repr__(self):
        items = sorted(self.coefficients().items(), key=lambda kv: polyops.grlex_key(kv[0]))
        parts = ["%s*[%s]" % (c, ",".join(map(str, k))) for k, c in items]
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.prec is None else " + O(%d)" % (self.prec + 1)
        return "<%s %s%s>" % (self.ring.backend, body, tail)


# -- localization ----------------------------------------------------------


class Localized:
    """num / prod_b x_b^{m_b}, the denominator `den_map` a dict of nonzero
    lattice points b with multiplicities m_b, never mutated once built; `den`
    is the same as a sorted tuple with repeats.  Sums go over the lcm
    (pointwise max) of denominators, and a - b == 0 decides a == b.  An exact
    zero (no terms, no precision: ADD, MUL, CON) adds nothing and lifts
    nothing: the other summand comes back as it is, whatever the zero's
    denominator.  A SER numerator vanishes only through O(p), so a SER zero
    is summed over the lcm like any other value, and it is a known zero
    (`is_zero`) only when p is at least the degree of its denominator; below
    that it is an unknown value, which a map of values keeps and `==`
    refuses with a `PrecisionError`.  a / d
    is defined when d's numerator is a unit monomial; it subtracts d's
    multiplicities from a's and cancels nothing further.  b and
    -b stay apart (x_{-b} = -e_b x_b on MUL and CON), so denominators print
    with the signs they were built with."""

    __slots__ = ("torus", "num", "den_map")

    def __init__(self, torus: "TorusAlgebra", num: AlgebraElement, den: Iterable[Vec] = ()):
        """`den` lists points with repeats, or is a `den_map` kept as is."""
        self.torus = torus
        self.num = num
        if isinstance(den, dict):
            self.den_map = den
            return
        self.den_map = {}
        for b in map(tuple, den):
            if not any(b):
                raise ConfigError("zero lattice point cannot be inverted")
            self.den_map[b] = self.den_map.get(b, 0) + 1

    # -- basics ------------------------------------------------------------

    @property
    def den(self) -> Tuple[Vec, ...]:
        return tuple(sorted(b for b, m in self.den_map.items() for _ in range(m)))

    def _over(self, den_map: Dict[Vec, int]) -> AlgebraElement:
        """The numerator over `den_map`, a multiple of the denominator."""
        num = self.num
        for b, m in den_map.items():
            k = m - self.den_map.get(b, 0)
            if k:
                num = num * self.torus.ring.x_pow(b, k)
        return num

    def is_zero(self) -> bool:
        """A known zero: a zero numerator whose precision, on SER, is at least
        the degree of the denominator; 0 + O(p) below it is an unknown value."""
        num = self.num
        return num.is_zero() and (num.prec is None or num.prec >= sum(self.den_map.values()))

    def is_negligible(self) -> bool:
        """Zero through the whole tracked precision, denominator included.

        On exact backends this is plain zeroness.  On SER a vanishing
        numerator only certifies a vanishing value once the denominator's
        valuation is paid for (`is_zero`); past that point nothing about the
        value is known and the ambiguity is an error, not a silent zero.
        """
        if self.is_zero():
            return True
        if not self.num.is_zero():
            return False
        ring, prec = self.torus.ring, self.num.prec
        raise PrecisionError(
            "series precision exhausted by a localized denominator; %s"
            % ring.fgl.precision_hint(max(ring.precision + sum(self.den_map.values()) - prec,
                                          ring.precision + 1)))

    def __neg__(self):
        return Localized(self.torus, -self.num, self.den_map)

    def is_exact_zero(self) -> bool:
        """An exact zero numerator, whatever the denominator."""
        return self.num.is_exact_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other.is_exact_zero():
            return self
        if self.is_exact_zero():
            return other
        if self.den_map == other.den_map:
            return Localized(self.torus, self.num + other.num, self.den_map)
        lcm = dict(self.den_map)
        for b, m in other.den_map.items():
            lcm[b] = max(m, lcm.get(b, 0))
        return Localized(self.torus, self._over(lcm) + other._over(lcm), lcm)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, AlgebraElement)):
            return Localized(self.torus, self.num * other, self.den_map)
        if not isinstance(other, Localized):
            return NotImplemented
        den_map = dict(self.den_map)
        for b, m in other.den_map.items():
            den_map[b] = den_map.get(b, 0) + m
        return Localized(self.torus, self.num * other.num, den_map)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Localized":
        if isinstance(other, Localized):
            return other
        if isinstance(other, AlgebraElement):
            return Localized(self.torus, other)
        if isinstance(other, (int, Scalar)):
            return Localized(self.torus, self.torus.ring.from_scalar(other))
        raise TypeError("cannot combine Localized with %r" % type(other))

    def __eq__(self, other):
        diff = self - other
        if diff.num.prec is None:
            return diff.is_zero()
        # On the truncated backend cross multiplication raises the valuation
        # by the denominator degree, which can push every visible term past
        # the tracked precision and fake an equality.  Cancel denominators
        # first and let the zero test pay for whatever is left.
        return diff.simplify().is_negligible()

    def __hash__(self):
        raise TypeError("Localized is unhashable")

    # -- simplification ----------------------------------------------------

    def simplify(self) -> "Localized":
        """Cancel the largest power of each x_b, in point order, dividing num."""
        num = self.num
        if num.is_zero():
            if num.prec is not None and self.den_map:
                # a numerator that vanishes through O(p) over a denominator
                # of valuation d is only known to vanish through O(p - d)
                num = AlgebraElement._cut(num.ring, {}, num.prec - sum(self.den_map.values()))
            return Localized(self.torus, num)
        left: Dict[Vec, int] = {}
        for b in sorted(self.den_map):
            m = self.den_map[b]
            num, k = self.torus.ring.divide(num, b, m)
            if k < m:
                left[b] = m - k
        return Localized(self.torus, num, left)

    def __truediv__(self, other):
        """self / other for a divisor u / prod_b x_b^{m_b} whose numerator u
        is a unit monomial.  The multiplicities are subtracted: a power of
        x_b that other's denominator has beyond ours is multiplied into the
        numerator, and one that ours has beyond other's stays in the
        denominator, uncancelled until `simplify`."""
        other = self._coerce(other)
        ring = self.torus.ring
        if len(other.num._terms) != 1:
            raise MembershipError("numerator is not a unit monomial")
        (key, coeff), = other.num._terms.items()
        if coeff not in (1, -1):
            raise MembershipError("numerator coefficient is not a unit")
        if ring.backend in ("ADD", "SER") and any(ring.codec.split(key)[0]):
            raise MembershipError("numerator is not a unit in this backend")
        num = self.num * coeff
        offset = ring.codec.offset
        if key != offset:
            # keys are affine in the exponents: the inverse monomial's key
            # is the reflection of this one through the key of 1
            num = num * AlgebraElement._cut(ring, {2 * offset - key: 1}, None)
        den_map = dict(self.den_map)
        for b, m in other.den_map.items():
            k = den_map.pop(b, 0) - m
            if k > 0:
                den_map[b] = k
            elif k:
                num = num * ring.x_pow(b, -k)
        return Localized(self.torus, num, den_map)

    def __repr__(self):
        if not self.den_map:
            return repr(self.num)
        return "(%r) / x%s" % (self.num, list(self.den))


# -- torus algebras --------------------------------------------------------


class TorusAlgebra:
    """A formal group algebra together with the affine Weyl group action.

    ``torus == 'big'`` uses the lattice Q + Z*delta and the level-zero affine
    action; ``torus == 'small'`` uses Q, on which translations act trivially.
    """

    def __init__(self, datum: FiniteRootDatum, backend: str, torus: str,
                 fgl: Optional[FormalGroupLaw] = None, precision: int = 8):
        if torus not in ("big", "small"):
            raise ConfigError("torus must be 'big' or 'small'")
        self.datum = datum
        self.torus = torus
        self.group = AffineWeylGroup(datum)
        nvars = datum.rank + (1 if torus == "big" else 0)
        self.ring = FormalRing(backend, nvars, fgl, precision)

    # -- lattice embedding -------------------------------------------------

    def embed_root(self, beta: AffRoot) -> Vec:
        mu, m = beta
        if self.torus == "big":
            return tuple(mu) + (m,)
        return tuple(mu)

    def x_root(self, beta: AffRoot) -> AlgebraElement:
        return self.ring.x_of(self.embed_root(beta))

    def simple_x(self, i: int) -> AlgebraElement:
        return self.x_root(self.group.simple_root(i))

    def neg_simple_x(self, i: int) -> AlgebraElement:
        mu, m = self.group.simple_root(i)
        return self.x_root((tuple(-v for v in mu), -m))

    # -- Weyl action -------------------------------------------------------

    def act_vec(self, x: AffineElt, v: Vec) -> Vec:
        n = self.datum.rank
        if self.torus == "small":
            return x.w.act_root(v)
        mu = v[:n]
        m = v[n]
        return x.w.act_root(mu) + (m - self.datum.pairing(x.t, mu),)

    @memo
    def _images(self, x: AffineElt) -> List:
        """Per x (`memo`): the key steps (MUL, CON) or x_v (ADD, SER) of the basis images v."""
        ring = self.ring
        n = ring.nvars
        basis = [self.act_vec(x, tuple(int(j == i) for j in range(n))) for i in range(n)]
        if ring.backend in ("MUL", "CON"):
            zero = (0,) * len(ring.params)
            return [ring.codec.pack(v + zero) - ring.codec.offset for v in basis]
        return [ring.x_of(v)._terms for v in basis]

    def act_elem(self, x: AffineElt, f: AlgebraElement) -> AlgebraElement:
        ring, images = self.ring, self._images(x)
        if ring.backend in ("MUL", "CON"):
            # the action is linear on lattice points; the c slot rides along
            return AlgebraElement._cut(ring, polyops.pmove(f._terms, images, ring.codec), None)
        # ADD and SER act by substituting each variable's image series
        return AlgebraElement._cut(ring, polyops.psubstitute(f._terms, images, f.prec, ring.codec),
                                   f.prec)

    def act_loc(self, x: AffineElt, f: Localized) -> Localized:
        # the action is a bijection of the lattice: multiplicities carry over
        den_map = {self.act_vec(x, b): m for b, m in f.den_map.items()}
        return Localized(self, self.act_elem(x, f.num), den_map)

    # -- division ----------------------------------------------------------

    def divide_once(self, f: AlgebraElement, b: Vec) -> Optional[AlgebraElement]:
        """f / x_b as a ring element, or None when not exactly divisible."""
        q, k = self.ring.divide(f, tuple(b), 1)
        return q if k else None

    def divisible(self, f: AlgebraElement, beta: AffRoot, d: int) -> bool:
        """Whether x_beta^d divides f.  An exact zero passes with no division
        and no key.  Any other f is answered once per torus by `_divides`,
        keyed by (frozenset of f's packed terms, f.prec, beta, d).  A SER
        zero is divided, so a precision it exhausts still raises, on every
        repeat, since a call that raises stores nothing."""
        return f.is_exact_zero() or self._divides(frozenset(f._terms.items()), f.prec, beta, d)

    @memo
    def _divides(self, terms: frozenset, prec: Optional[int], beta: AffRoot, d: int) -> bool:
        """The verdict of `divisible`, kept by `memo` as a bool: the element
        is rebuilt from its frozen terms for the division and not kept."""
        f = AlgebraElement._cut(self.ring, dict(terms), prec)
        return self.ring.divide(f, self.embed_root(beta), d)[1] == d

    # -- classical operators ----------------------------------------------

    def demazure(self, i: int, f: AlgebraElement) -> AlgebraElement:
        """Delta_i(f) = (f - s_i f) / x_{alpha_i}; always an exact division."""
        diff = f - self.act_elem(self.group.simple(i), f)
        b = self.embed_root(self.group.simple_root(i))
        q = self.divide_once(diff, b)
        if q is None:
            raise MembershipError("difference f - s_i(f) is not divisible by x_i")
        return q

    def kappa(self, i: int) -> Localized:
        """kappa_i = 1/x_{alpha_i} + 1/x_{-alpha_i}, returned simplified."""
        b = self.embed_root(self.group.simple_root(i))
        nb = tuple(-v for v in b)
        one = self.ring.one()
        k = Localized(self, one, (b,)) + Localized(self, one, (nb,))
        return k.simplify()

    def augmentation(self, f: AlgebraElement) -> Scalar:
        """The counit: e_lam -> 1 on group-ring models, x -> 0 on series."""
        if self.ring.backend in ("MUL", "CON"):
            return sum(f.coefficients().values(), Scalar.const(0, self.ring.params))
        return f.coefficient((0,) * self.ring.nvars)

    # -- backend bridges ---------------------------------------------------

    def to_series(self, f: AlgebraElement, target: "TorusAlgebra") -> AlgebraElement:
        """Re-express an exact-backend element in a SER model of the matching
        formal group law, for cross-checking."""
        if target.ring.backend != "SER":
            raise ConfigError("target must be a SER algebra")
        src = self.ring.backend
        if src not in EXACT_BACKENDS:
            raise ConfigError("to_series expects an exact-backend source")
        ring = target.ring
        n = self.ring.nvars
        cpar = Scalar.param("c", ring.params) if src == "CON" else 1
        out = ring.zero()
        for lam, c in f.coefficients().items():
            term = ring.from_scalar(c)
            if src == "ADD":
                for i in range(n):
                    basis = tuple(1 if j == i else 0 for j in range(n))
                    term = term * (ring.x_of(basis) ** lam[i])
            else:
                # e_lam = 1 - c * x_{-lam} in the connective normalization
                term = term * (ring.one() - ring.x_of(tuple(-v for v in lam)) * cpar)
            out = out + term
        return out
