"""Exact coefficient scalars at the boundary of the package.

A `Scalar` is an integer-coefficient Laurent polynomial in a fixed tuple of
named formal parameters, such as Z[c], Z[c, 1/c] and Z[c, a].  Ring elements
do not store Scalars: they fold the parameter exponents into their term keys
(see `polyops`).  Scalars are the value type where coefficients meet the
outside: parsed custom-law descriptors, the coefficient tables of formal
group laws, the printed coefficients of the CLI and the parameter c handed to
the connective constructions.  `Scalar.parse` reads a custom law's text with
Python's expression grammar (`ast`), keeping integers, the parameters, signs,
``+ - *`` and integer powers of a parameter.

Terms are stored as a dict mapping exponent tuples (one slot per parameter) to
nonzero ints.  Products pack them on a parameter-only `polyops.KeyCodec` for
the one packed `polyops.pmul` and unpack the result; exact division calls
`polyops.pdiv_exact`, which takes the tuples themselves.  The zero scalar has
an empty term dict.
"""
from __future__ import annotations

import ast
import operator
import re
from functools import lru_cache
from typing import Dict, Mapping, Tuple, Union

from . import polyops

Expt = Tuple[int, ...]


@lru_cache(maxsize=None)
def _codec(nparams: int) -> polyops.KeyCodec:
    return polyops.KeyCodec(0, nparams)


_ALPHABET = re.compile(r"[\w\s+\-*^]*", re.ASCII)


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
        """Read the format `__str__` writes, or any sum of products like it.

        The text may hold integers, the names in `params`, ``+ - * ^`` and
        whitespace.  Python's expression grammar reads it, with ``^`` as
        ``**`` and an integer written before a name multiplied into it
        ("3c^2*a", "2 b").  The tree may hold integers, the parameters, unary
        signs nested to any depth, ``+ - *`` and ``name ^ k`` for a signed
        integer k.  Anything else raises ValueError: parentheses, two names
        or two integers side by side, an integer with a leading zero, or a
        sum nested deeper than the parser allows (about a thousand terms)."""
        if not _ALPHABET.fullmatch(text):
            raise ValueError("bad scalar syntax in %.60r: only integers, parameters, "
                             "+ - * ^ and spaces" % text)
        source = " ".join(text.split()).replace("^", "**")
        source = re.sub(r"\b(\d+) ?(?=[A-Za-z_])", r"\1*", source)
        try:
            return _read(ast.parse(source, mode="eval").body, params)
        except (SyntaxError, RecursionError):
            raise ValueError("bad scalar syntax in %.60r" % text) from None


_OPS = {ast.UAdd: lambda s: s, ast.USub: operator.neg,
        ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _read(node: ast.expr, params: Tuple[str, ...]) -> Scalar:
    """The value of a tree of `Scalar.parse`'s grammar."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Scalar.const(node.value, params)
    if isinstance(node, ast.Name) and node.id in params:
        return Scalar.param(node.id, params)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_read(node.operand, params))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_read(node.left, params), _read(node.right, params))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Name):
        # the exponent is read over no parameters, so only signs and an integer pass
        return _read(node.left, params) ** _read(node.right, ()).terms.get((), 0)
    raise ValueError("cannot read %.60r as a scalar over %s"
                     % (ast.unparse(node), ", ".join(params) or "no parameters"))
