"""One-dimensional commutative formal group laws over exact coefficient rings.

Supported families:

* ``additive``        F(x, y) = x + y                          over Z
* ``multiplicative``  F(x, y) = x + y - xy                     over Z
* ``connective``      F(x, y) = x + y - c*xy                   over Z[c]
* ``hyperbolic``      F(x, y) = (x + y - c*xy) / (1 + a*xy)    over Z[c, a]
* ``custom``          arbitrary coefficient table, validated to its degree

The first three have finite coefficient tables and admit exact polynomial or
group-algebra models elsewhere in the package; the hyperbolic and custom kinds
are handled through truncated power series with tracked precision.

Coefficient tables are kept as `Scalar` values, the form a custom descriptor
is parsed into.  Series store folded integer terms (see `polyops`): the
variable exponents followed by the parameter exponents, with precision
counted in the variables only.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import polyops
from .errors import ConfigError, PrecisionError
from .polyops import Terms
from .scalars import Scalar

DEFAULT_DEGREE = 8


class TruncatedSeries:
    """A multivariate power series over Z[params] known up to a degree.

    Terms use the folded keys of `polyops`: `nvars` variable exponents, then
    one exponent per parameter.  `prec` is inclusive and counts the variable
    degree only: all terms of degree <= prec are correct and stored, higher
    terms are unknown.
    """

    __slots__ = ("nvars", "params", "prec", "terms")

    def __init__(self, nvars: int, params: Tuple[str, ...], prec: int, terms: Terms):
        self.nvars = nvars
        self.params = params
        self.prec = prec
        self.terms = polyops.ptruncate(terms, prec, nvars)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int, params: Tuple[str, ...], prec: int) -> "TruncatedSeries":
        return TruncatedSeries(nvars, params, prec, {})

    @staticmethod
    def variable(i: int, nvars: int, params: Tuple[str, ...], prec: int) -> "TruncatedSeries":
        e = tuple(1 if j == i else 0 for j in range(nvars)) + (0,) * len(params)
        return TruncatedSeries(nvars, params, prec, {e: 1})

    @staticmethod
    def const(s: Scalar, nvars: int, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(nvars, s.params, prec, _constant(s, nvars))

    # -- arithmetic --------------------------------------------------------

    def _join(self, other: "TruncatedSeries") -> int:
        if self.nvars != other.nvars or self.params != other.params:
            raise ValueError("series ring mismatch")
        return min(self.prec, other.prec)

    def _new(self, prec: int, terms: Terms) -> "TruncatedSeries":
        return TruncatedSeries(self.nvars, self.params, prec, terms)

    def __add__(self, other):
        return self._new(self._join(other), polyops.padd(self.terms, other.terms))

    def __sub__(self, other):
        return self._new(self._join(other), polyops.psub(self.terms, other.terms))

    def __neg__(self):
        return self._new(self.prec, polyops.pneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self._new(self.prec, polyops.pmul(self.terms, _constant(other, self.nvars)))
        p = self._join(other)
        return self._new(p, polyops.pmul(self.terms, other.terms, p, self.nvars))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        p = self._join(other)
        return (polyops.ptruncate(self.terms, p, self.nvars)
                == polyops.ptruncate(other.terms, p, self.nvars))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Optional[int]:
        return polyops.pvaluation(self.terms, self.nvars)

    def coefficient(self, e: Tuple[int, ...]) -> Scalar:
        n = self.nvars
        return Scalar(self.params, {k[n:]: c for k, c in self.terms.items() if k[:n] == e})

    def __repr__(self):
        keys = sorted({k[:self.nvars] for k in self.terms}, key=polyops.grlex_key)
        body = ", ".join("%s: %s" % (e, self.coefficient(e)) for e in keys)
        return "TruncatedSeries({%s} + O(deg %d))" % (body, self.prec + 1)


def _constant(s: Scalar, nvars: int) -> Terms:
    """The folded terms of the scalar s as a series of degree zero."""
    zero = (0,) * nvars
    return {zero + e: c for e, c in s.terms.items()}


class FormalGroupLaw:
    """A formal group law presented by its coefficient table F = sum a_ij x^i y^j."""

    def __init__(self, kind: str, params: Tuple[str, ...], table_degree: Optional[int]):
        self.kind = kind
        self.params = params
        # None means the coefficient table is finite and exact at all degrees
        self.table_degree = table_degree
        self._table_cache: Dict[int, Dict[Tuple[int, int], Scalar]] = {}
        self._custom: Optional[Dict[Tuple[int, int], Scalar]] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def additive() -> "FormalGroupLaw":
        return FormalGroupLaw("additive", (), None)

    @staticmethod
    def multiplicative() -> "FormalGroupLaw":
        return FormalGroupLaw("multiplicative", (), None)

    @staticmethod
    def connective() -> "FormalGroupLaw":
        return FormalGroupLaw("connective", ("c",), None)

    @staticmethod
    def hyperbolic() -> "FormalGroupLaw":
        return FormalGroupLaw("hyperbolic", ("c", "a"), None)

    @staticmethod
    def custom(coeffs: Dict[Tuple[int, int], Scalar], degree: int, params: Tuple[str, ...]) -> "FormalGroupLaw":
        fgl = FormalGroupLaw("custom", params, degree)
        fgl._custom = dict(coeffs)
        fgl.validate(degree)
        return fgl

    # -- coefficient table -------------------------------------------------

    def table(self, degree: int) -> Dict[Tuple[int, int], Scalar]:
        """Coefficients a_ij for 1 <= i + j <= degree."""
        if self.table_degree is not None and degree > self.table_degree:
            raise PrecisionError(
                "table for %s known to degree %d, requested %d"
                % (self.kind, self.table_degree, degree)
            )
        if degree in self._table_cache:
            return self._table_cache[degree]
        one = Scalar.const(1, self.params)
        if self.kind == "additive":
            tab = {(1, 0): one, (0, 1): one}
        elif self.kind == "multiplicative":
            tab = {(1, 0): one, (0, 1): one, (1, 1): -one}
        elif self.kind == "connective":
            c = Scalar.param("c", self.params)
            tab = {(1, 0): one, (0, 1): one, (1, 1): -c}
        elif self.kind == "hyperbolic":
            tab = self._hyperbolic_table(degree)
        elif self.kind == "custom":
            tab = {ij: c for ij, c in self._custom.items() if ij[0] + ij[1] <= degree}
        else:
            raise ConfigError("unknown formal group law kind %r" % self.kind)
        tab = {ij: c for ij, c in tab.items() if not c.is_zero()}
        self._table_cache[degree] = tab
        return tab

    def _hyperbolic_table(self, degree: int) -> Dict[Tuple[int, int], Scalar]:
        # (x + y - c*xy) / (1 + a*xy) = sum_k (-a)^k (xy)^k (x + y - c*xy)
        params = self.params
        c = Scalar.param("c", params)
        a = Scalar.param("a", params)
        tab: Dict[Tuple[int, int], Scalar] = {}
        s = Scalar.const(1, params)
        for k in range(degree):
            for ij, v in (((k + 1, k), s), ((k, k + 1), s), ((k + 1, k + 1), -(s * c))):
                if sum(ij) <= degree:
                    tab[ij] = v
            s = s * -a
        return tab

    # -- series operations -------------------------------------------------

    def _check_args(self, *series: TruncatedSeries) -> Tuple[int, Tuple[str, ...], int]:
        nvars = series[0].nvars
        params = series[0].params
        prec = min(s.prec for s in series)
        for s in series:
            if s.nvars != nvars or s.params != params:
                raise ValueError("series ring mismatch")
            if s.valuation() == 0:
                raise ValueError("formal group law arguments must have zero constant term")
        if prec < 1:
            raise PrecisionError("cannot certify any positive degree (precision %d)" % prec)
        for p in self.params:
            if p not in params:
                raise ValueError("series scalars lack parameter %r" % p)
        return nvars, params, prec

    def add(self, p: TruncatedSeries, q: TruncatedSeries) -> TruncatedSeries:
        """Evaluate F(p, q) as a truncated series."""
        nvars, params, prec = self._check_args(p, q)
        tab = self.table(prec)
        out: Terms = {}
        one = {(0,) * (nvars + len(params)): 1}
        pows_p: Dict[int, Terms] = {0: one}
        pows_q: Dict[int, Terms] = {0: one}

        def power(cache, base, k):
            if k not in cache:
                cache[k] = polyops.pmul(power(cache, base, k - 1), base.terms, prec, nvars)
            return cache[k]

        for (i, j), a_ij in sorted(tab.items()):
            term = polyops.pmul(power(pows_p, p, i), power(pows_q, q, j), prec, nvars)
            aij = a_ij if a_ij.params == params else a_ij.with_params(params)
            out = polyops.padd(out, polyops.pmul(term, _constant(aij, nvars)))
        return TruncatedSeries(nvars, params, prec, out)

    def inverse(self, p: TruncatedSeries) -> TruncatedSeries:
        """The formal inverse i(p) with F(p, i(p)) = 0, solved term by term."""
        nvars, params, prec = self._check_args(p)
        cur = -p
        while True:
            err = self.add(p, cur)
            v = err.valuation()
            if v is None or v > prec:
                return cur
            cur = cur - err

    def multiple(self, p: TruncatedSeries, n: int) -> TruncatedSeries:
        """The n-fold formal sum [n](p); negative n uses the formal inverse."""
        nvars, params, prec = self._check_args(p)
        if n < 0:
            return self.multiple(self.inverse(p), -n)
        acc = TruncatedSeries.zero(nvars, params, prec)
        for _ in range(n):
            acc = self.add(acc, p) if not acc.is_zero() else p
        return acc if n else TruncatedSeries.zero(nvars, params, prec)

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
        params = self.params
        x = TruncatedSeries.variable(0, 3, params, degree)
        y = TruncatedSeries.variable(1, 3, params, degree)
        z = TruncatedSeries.variable(2, 3, params, degree)
        left = self.add(self.add(x, y), z)
        right = self.add(x, self.add(y, z))
        if left != right:
            raise ConfigError("associativity fails up to degree %d" % degree)

    def __repr__(self):
        return "FormalGroupLaw(%s)" % self.kind


def from_descriptor(desc: dict) -> FormalGroupLaw:
    """Build a formal group law from a JSON-style descriptor.

    ``{"kind": "connective"}`` or
    ``{"kind": "custom", "degree": N, "params": [...], "coeffs": [[i, j, "scalar"], ...]}``.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("formal group law descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    if kind == "additive":
        return FormalGroupLaw.additive()
    if kind == "multiplicative":
        return FormalGroupLaw.multiplicative()
    if kind == "connective":
        return FormalGroupLaw.connective()
    if kind == "hyperbolic":
        return FormalGroupLaw.hyperbolic()
    if kind == "custom":
        try:
            degree = int(desc["degree"])
            params = tuple(desc.get("params", ()))
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
