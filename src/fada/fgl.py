"""One-dimensional commutative formal group laws over exact coefficient rings.

Supported families:

* ``additive``        F(x, y) = x + y                          over Z
* ``multiplicative``  F(x, y) = x + y - xy                     over Z
* ``connective``      F(x, y) = x + y - c*xy                   over Z[c]
* ``hyperbolic``      F(x, y) = (x + y - c*xy) / (1 + a*xy)    over Z[c, a]
* ``custom``          arbitrary coefficient table, validated to its degree

The first three form the connective family x + y - c*xy, and the law says so:
`FormalGroupLaw.c` is 0, 1 or the parameter c for them and None for the other
kinds.  Their coefficient tables are finite, and they admit exact polynomial
or group-algebra models elsewhere in the package; every kind is also handled
through truncated power series with tracked precision.

Each law keeps one table of coefficients as `Scalar` values, the form a
custom descriptor is parsed into.  A custom or connective-family table is
complete when the law is made; the hyperbolic one is built to the largest
degree asked for so far, and rebuilt only when a larger degree is asked
for.  `table(d)` cuts the table to degree d.  The series operations `add` and `inverse` take and return
term dicts on packed keys, the one key layout of every ring element (see
`polyops`): the keys of a `polyops.KeyCodec` whose lattice slots are the
series variables, followed by one slot per parameter of the law, cut at a
precision counted in the variables only.  A coefficient a_ij is packed where
it enters a product (`_constant`); nothing here unpacks.  The operations
carry no precision of their own: the one truncated-series type of the
package is the SER `AlgebraElement`, which wraps their results, on its
ring's codec.  Formal multiples [k](x_i) are built from them, once per ring,
by `FormalRing.x_of`.
"""
from __future__ import annotations

import keyword
from typing import Dict, Optional, Tuple

from . import polyops
from .errors import ConfigError, PrecisionError
from .polyops import KeyCodec, Series
from .scalars import Scalar


def _constant(s: Scalar, codec: KeyCodec) -> Series:
    """The scalar s as a series of degree zero."""
    zero = (0,) * codec.nvars
    return {codec.pack(zero + e): c for e, c in s.terms.items()}


class FormalGroupLaw:
    """A formal group law presented by its coefficient table F = sum a_ij x^i y^j."""

    def __init__(self, kind: str, params: Tuple[str, ...], table_degree: Optional[int],
                 c: Optional[Scalar]):
        self.kind = kind
        self.params = params
        # None means the coefficient table is finite and exact at all degrees
        self.table_degree = table_degree
        # the c of x + y - c*xy for a law of the connective family, else None
        self.c = c
        # the one coefficient table: the hyperbolic one is complete through
        # degree self._built, every other one is complete when made
        self._table: Dict[Tuple[int, int], Scalar] = {}
        self._built: Optional[int] = 0 if kind == "hyperbolic" else None
        if c is not None:
            one = Scalar.const(1, params)
            self._table = {(1, 0): one, (0, 1): one, (1, 1): -c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def additive() -> "FormalGroupLaw":
        return FormalGroupLaw("additive", (), None, Scalar.const(0, ()))

    @staticmethod
    def multiplicative() -> "FormalGroupLaw":
        return FormalGroupLaw("multiplicative", (), None, Scalar.const(1, ()))

    @staticmethod
    def connective() -> "FormalGroupLaw":
        return FormalGroupLaw("connective", ("c",), None, Scalar.param("c", ("c",)))

    @staticmethod
    def hyperbolic() -> "FormalGroupLaw":
        return FormalGroupLaw("hyperbolic", ("c", "a"), None, None)

    @staticmethod
    def custom(coeffs: Dict[Tuple[int, int], Scalar], degree: int, params: Tuple[str, ...]) -> "FormalGroupLaw":
        fgl = FormalGroupLaw("custom", params, degree, None)
        fgl._table = dict(coeffs)
        fgl.validate(degree)
        return fgl

    # -- coefficient table -------------------------------------------------

    def table(self, degree: int) -> Dict[Tuple[int, int], Scalar]:
        """The nonzero coefficients a_ij with 1 <= i + j <= degree, cut from the
        law's one table, which is first extended if it stops below `degree`."""
        if self.table_degree is not None and degree > self.table_degree:
            raise PrecisionError(self.precision_hint(degree))
        if self._built is not None and degree > self._built:
            self._table = self._hyperbolic_table(degree)
            self._built = degree
        return {ij: a for ij, a in self._table.items()
                if ij[0] + ij[1] <= degree and not a.is_zero()}

    def precision_hint(self, precision: int) -> str:
        """How to rerun for `precision`: past the degree where a custom law's
        coefficients stop, only more of them helps."""
        stop = self.table_degree
        if stop is None:
            return "rerun with precision >= %d" % precision
        limit = "the %s law's coefficients stop at degree %d" % (self.kind, stop)
        if precision > stop:
            return "%s; give them to degree %d" % (limit, precision)
        return "rerun with precision >= %d; %s" % (precision, limit)

    def _hyperbolic_table(self, degree: int) -> Dict[Tuple[int, int], Scalar]:
        # (x + y - c*xy) / (1 + a*xy) = sum_k (-a)^k (xy)^k (x + y - c*xy),
        # whose entries for k start at degree 2k + 1
        c, a = (Scalar.param(name, self.params) for name in ("c", "a"))
        tab: Dict[Tuple[int, int], Scalar] = {}
        s = Scalar.const(1, self.params)
        for k in range((degree + 1) // 2):
            tab[(k + 1, k)] = tab[(k, k + 1)] = s
            tab[(k + 1, k + 1)] = -(s * c)
            s = s * -a
        return tab

    # -- series operations -------------------------------------------------

    def _check_args(self, prec: int, codec: KeyCodec, *series: Series) -> None:
        for s in series:
            if polyops.pvaluation(s, codec) == 0:
                raise ValueError("formal group law arguments must have zero constant term")
        if prec < 1:
            raise PrecisionError("cannot certify any positive degree (precision %d)" % prec)

    def add(self, p: Series, q: Series, prec: int, codec: KeyCodec) -> Series:
        """F(p, q) cut at degree `prec`, for series on the keys of `codec`
        (its variables, then the law's parameters), themselves cut at `prec`.

        F(p, q) = sum_j (sum_i a_ij p^i) q^j: the inner sums first, then
        Horner's rule in q, one truncated product per power of q."""
        self._check_args(prec, codec, p, q)
        pows: Dict[int, Series] = {0: {codec.offset: 1}}

        def power(i: int) -> Series:
            if i not in pows:
                pows[i] = polyops.pmul(power(i - 1), p, prec, codec)
            return pows[i]

        inner: Dict[int, Series] = {}
        for (i, j), a_ij in self.table(prec).items():
            term = polyops.pmul(power(i), _constant(a_ij, codec), prec, codec)
            inner[j] = polyops.padd(inner.get(j, {}), term)
        out: Series = {}
        for j in range(max(inner), -1, -1):
            out = polyops.padd(polyops.pmul(out, q, prec, codec), inner.get(j, {}))
        return out

    def inverse(self, p: Series, prec: int, codec: KeyCodec) -> Series:
        """The formal inverse i(p) with F(p, i(p)) = 0, solved degree by degree.

        Before step d, cur agrees with i(p) through degree d - 1, so F(p, cur)
        starts at degree d and step d runs `add` at precision d, the one
        degree it certifies.  The table is asked for at `prec` first, so it is
        built once and each step cuts it."""
        self._check_args(prec, codec, p)
        self.table(prec)
        cur = polyops.pneg(p)
        for d in range(2, prec + 1):
            cur = polyops.psub(cur, self.add(p, cur, d, codec))
        return cur

    # -- axioms ------------------------------------------------------------

    def validate(self, degree: int) -> None:
        """Check unit, commutativity and associativity up to total degree."""
        tab = self.table(degree)
        one = Scalar.const(1, self.params)
        if tab.get((1, 0)) != one or tab.get((0, 1)) != one:
            raise ConfigError("formal group law must satisfy F(x,0) = x and F(0,y) = y")
        for (i, j), cij in tab.items():
            if j == 0 and i != 1 and not cij.is_zero():
                raise ConfigError("F(x, 0) must equal x; found coefficient at x^%d" % i)
            if i == 0 and j != 1 and not cij.is_zero():
                raise ConfigError("F(0, y) must equal y; found coefficient at y^%d" % j)
            if tab.get((j, i), Scalar.const(0, self.params)) != cij:
                raise ConfigError("coefficient table is not symmetric at (%d, %d)" % (i, j))
        codec = KeyCodec(3, len(self.params))
        x, y, z = ({u: 1} for u in codec.units)
        left = self.add(self.add(x, y, degree, codec), z, degree, codec)
        right = self.add(x, self.add(y, z, degree, codec), degree, codec)
        if left != right:
            raise ConfigError("associativity fails up to degree %d" % degree)

    def __repr__(self):
        return "FormalGroupLaw(%s)" % self.kind


def from_descriptor(desc: dict) -> FormalGroupLaw:
    """Build a formal group law from a JSON-style descriptor.

    ``{"kind": "connective"}`` or
    ``{"kind": "custom", "degree": N, "params": [...], "coeffs": [[i, j, "scalar"], ...]}``.
    The params are distinct Python identifiers that are not keywords.  Each
    scalar is read by `Scalar.parse`: integers and params combined by
    ``+ - *``, unary signs and ``param ^ k`` for a signed integer k, an
    integer before a param meaning their product ("2b", "3c^2*a - a").
    A descriptor outside this grammar raises ConfigError.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("formal group law descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    if kind in ("additive", "multiplicative", "connective", "hyperbolic"):
        return getattr(FormalGroupLaw, kind)()
    if kind == "custom":
        try:
            degree = int(desc["degree"])
            params = desc.get("params", [])
            if not (isinstance(params, (list, tuple))
                    and all(isinstance(p, str) and p.isidentifier() and not keyword.iskeyword(p)
                            for p in params)
                    and len(set(params)) == len(params)):
                raise ValueError("params must be a list of distinct identifiers, not %r"
                                 % (params,))
            params = tuple(params)
            coeffs = {}
            for i, j, text in desc["coeffs"]:
                coeffs[(int(i), int(j))] = Scalar.parse(text, params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("bad custom formal group law descriptor: %s" % exc) from exc
        try:
            return FormalGroupLaw.custom(coeffs, degree, params)
        except PrecisionError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("unknown formal group law kind %r" % kind)
