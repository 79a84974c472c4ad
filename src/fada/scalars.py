"""Exact coefficient scalars at the boundary of the package.

A `Scalar` is an integer-coefficient Laurent polynomial in a fixed tuple of
named formal parameters, such as Z[c], Z[c, 1/c] and Z[c, a].  Ring elements
do not store Scalars: they fold the parameter exponents into their term keys
(see `polyops`).  Scalars are the value type where coefficients meet the
outside: parsed custom-law descriptors, the coefficient tables of formal
group laws, the printed coefficients of the CLI and the parameter c handed to
the connective constructions.

Terms are stored as a dict mapping exponent tuples (one slot per parameter) to
nonzero ints.  Products pack them on a parameter-only `polyops.KeyCodec` for
the one packed `polyops.pmul` and unpack the result; exact division calls
`polyops.pdiv_exact`, which takes the tuples themselves.  The zero scalar has
an empty term dict.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, Mapping, Tuple, Union

from . import polyops

Expt = Tuple[int, ...]


@lru_cache(maxsize=None)
def _codec(nparams: int) -> polyops.KeyCodec:
    return polyops.KeyCodec(0, nparams)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^]))")


class Scalar:
    __slots__ = ("params", "terms")

    def __init__(self, params: Tuple[str, ...], terms: Dict[Expt, int]):
        self.params = params
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(n: int, params: Tuple[str, ...] = ()) -> "Scalar":
        if n == 0:
            return Scalar(params, {})
        return Scalar(params, {(0,) * len(params): n})

    @staticmethod
    def param(name: str, params: Tuple[str, ...]) -> "Scalar":
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return Scalar(params, {e: 1})

    @staticmethod
    def monomial(params: Tuple[str, ...], expo: Expt) -> "Scalar":
        return Scalar(params, {tuple(expo): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Union["Scalar", int]) -> "Scalar":
        if isinstance(other, Scalar):
            if other.params != self.params:
                raise ValueError("scalar parameter mismatch: %r vs %r" % (self.params, other.params))
            return other
        return Scalar.const(other, self.params)

    def __add__(self, other):
        if not isinstance(other, (Scalar, int)):
            return NotImplemented
        return Scalar(self.params, polyops.padd(self.terms, self._coerce(other).terms))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int)):
            return NotImplemented
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int)):
            return NotImplemented
        codec = _codec(len(self.params))
        prod = polyops.pmul(codec.pack_terms(self.terms),
                            codec.pack_terms(self._coerce(other).terms), None, codec)
        return Scalar(self.params, codec.unpack_terms(prod))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.const(1, self.params)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.const(other, self.params)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        zero = (0,) * len(self.params)
        if self.terms.keys() <= {zero}:
            # a constant equals its int, so it hashes as that int
            return hash(self.terms.get(zero, 0))
        return hash((self.params, frozenset(self.terms.items())))

    # -- division ----------------------------------------------------------

    def inverse(self) -> "Scalar":
        """Inverse of a monomial unit; raises ValueError otherwise."""
        if len(self.terms) != 1:
            raise ValueError("not a unit: %s" % self)
        (e, c), = self.terms.items()
        if c not in (1, -1):
            raise ValueError("not a unit: %s" % self)
        return Scalar(self.params, {tuple(-x for x in e): c})

    def exact_div(self, other: Union["Scalar", int]):
        """Exact quotient self / other in the Laurent ring, or None when it
        does not exist."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        quo = polyops.pdiv_exact(self.terms, other.terms)
        return None if quo is None else Scalar(self.params, quo)

    # -- specialization ----------------------------------------------------

    def substitute(self, assignment: Mapping[str, int]) -> "Scalar":
        """Substitute integer values for a subset of the parameters.

        Substituting 0 for a parameter that occurs with a negative exponent is
        rejected, since the result would not live in the scalar ring.
        """
        keep = tuple(p for p in self.params if p not in assignment)
        idx = [self.params.index(p) for p in keep]
        out: Dict[Expt, int] = {}
        for e, c in self.terms.items():
            val = c
            for j, p in enumerate(self.params):
                if p in assignment:
                    v = assignment[p]
                    k = e[j]
                    if k < 0 and v not in (1, -1):
                        raise ZeroDivisionError(
                            "cannot substitute %s=%d into negative exponent" % (p, v)
                        )
                    # for v = +-1 negative powers coincide with positive ones
                    val *= v ** abs(k)
            ee = tuple(e[i] for i in idx)
            out[ee] = out.get(ee, 0) + val
        return Scalar(keep, out)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=polyops.grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.params, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else "%s^%d" % (name, k))
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        s = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            s += " %s %s" % (sign, body)
        return s

    def __repr__(self):
        return "Scalar(%s)" % self

    @staticmethod
    def parse(text: str, params: Tuple[str, ...]) -> "Scalar":
        """Parse the canonical string format produced by __str__."""
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError("bad scalar syntax at %r" % text[pos:])
                break
            pos = m.end()
            tokens.append(m)
        result = Scalar.const(0, params)
        sign = 1
        cur = None  # current term, None before first factor
        pending = False  # an operator is waiting for its factor
        i = 0

        def flush():
            nonlocal result, cur, sign
            if cur is not None:
                result = result + cur * sign
            cur = None
            sign = 1

        while i < len(tokens):
            t = tokens[i]
            if t.lastgroup == "op" and t.group("op") in "+-":
                if cur is not None or sign != 1:
                    flush()
                if t.group("op") == "-":
                    sign = -sign
                pending = True
                i += 1
                continue
            if t.lastgroup == "op" and t.group("op") == "*":
                pending = True
                i += 1
                continue
            if t.lastgroup == "int":
                f = Scalar.const(int(t.group("int")), params)
                i += 1
            elif t.lastgroup == "name":
                name = t.group("name")
                if name not in params:
                    raise ValueError("unknown parameter %r" % name)
                expo = 1
                i += 1
                if i < len(tokens) and tokens[i].lastgroup == "op" and tokens[i].group("op") == "^":
                    i += 1
                    esign = 1
                    if i < len(tokens) and tokens[i].lastgroup == "op" and tokens[i].group("op") == "-":
                        esign = -1
                        i += 1
                    if i >= len(tokens) or tokens[i].lastgroup != "int":
                        raise ValueError("bad exponent in %r" % text)
                    expo = esign * int(tokens[i].group("int"))
                    i += 1
                f = Scalar.monomial(params, tuple(expo if p == name else 0 for p in params))
            else:
                raise ValueError("bad scalar syntax near %r" % t.group(0))
            cur = f if cur is None else cur * f
            pending = False
        if pending:
            raise ValueError("dangling operator in %r" % text)
        flush()
        return result
