"""Sparse Laurent polynomial and truncated power-series arithmetic over Z.

Every function works on plain dicts mapping exponent tuples to nonzero ints.
The ring elements of the package fold the coefficient ring of the formal
group law into the key: a key is the lattice exponents (``nvars`` slots)
followed by one exponent per law parameter, so Z[c, c^{-1}][Lambda] and
Z[c, a][[Lambda]] are themselves (truncated) polynomial rings and one product
loop and one exact division serve every model.  `Scalar` keeps its
parameter-only terms in the same format and calls the same functions.

Exponents may be negative (Laurent keys) unless a function says otherwise.
The optional `trunc` argument drops terms whose lattice degree, the sum of
the first ``nvars`` slots, exceeds the bound; parameter exponents never count.
`trunc=None` means exact arithmetic.
"""
from __future__ import annotations

from operator import add, sub
from typing import Dict, List, Optional, Sequence, Tuple

Expt = Tuple[int, ...]
Terms = Dict[Expt, int]


def grlex_key(e: Expt):
    return (sum(e), e)


def _accumulate(out: Terms, b: Terms, sign: int = 1) -> Terms:
    """Add sign * b into out in place, dropping cancelled keys."""
    get = out.get
    for e, c in b.items():
        s = get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def padd(a: Terms, b: Terms) -> Terms:
    return _accumulate(dict(a), b)


def pneg(a: Terms) -> Terms:
    return {e: -c for e, c in a.items()}


def psub(a: Terms, b: Terms) -> Terms:
    return _accumulate(dict(a), b, -1)


def pscale(a: Terms, s: int) -> Terms:
    if not s:
        return {}
    return {e: c * s for e, c in a.items()}


def pmul(a: Terms, b: Terms, trunc: Optional[int] = None,
         nvars: Optional[int] = None) -> Terms:
    """The product a * b; with `trunc`, only terms of lattice degree (the sum
    of the first `nvars` slots) at most `trunc` are formed."""
    out: Terms = {}
    get = out.get
    if trunc is None:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    else:
        # group b by lattice degree so each term of a stops at its budget
        # before any out-of-range key is built
        by_degree: Dict[int, List[Tuple[Expt, int]]] = {}
        for e2, c2 in b.items():
            by_degree.setdefault(sum(e2[:nvars]), []).append((e2, c2))
        layers = sorted(by_degree.items())
        for e1, c1 in a.items():
            budget = trunc - sum(e1[:nvars])
            for d2, items in layers:
                if d2 > budget:
                    break
                for e2, c2 in items:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ptruncate(a: Terms, trunc: int, nvars: int) -> Terms:
    return {e: c for e, c in a.items() if sum(e[:nvars]) <= trunc}


def pvaluation(a: Terms, nvars: int) -> Optional[int]:
    """Smallest lattice degree with a nonzero term, or None for zero."""
    if not a:
        return None
    return min(sum(e[:nvars]) for e in a)


def psubstitute(a: Terms, images: Sequence[Terms], trunc: Optional[int] = None) -> Terms:
    """Ring homomorphism sending lattice variable i to images[i].

    The lattice slots are the first ``len(images)`` slots of each key; the
    parameter slots ride along.  Lattice exponents must be nonnegative
    (polynomial and series elements only).
    """
    n = len(images)
    pow_cache: List[Dict[int, Terms]] = [{1: im} for im in images]

    def power(i: int, k: int) -> Terms:
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = pmul(power(i, k - 1), images[i], trunc, n)
        return cache[k]

    zero = (0,) * n
    out: Terms = {}
    for e, c in a.items():
        term = {zero + e[n:]: c}
        for i in range(n):
            k = e[i]
            if k < 0:
                raise ValueError("substitution requires nonnegative exponents")
            if k:
                term = pmul(term, power(i, k), trunc, n)
        _accumulate(out, term)
    return out


def pdiv_exact(num: Terms, den: Terms, poly: int = 0) -> Optional[Terms]:
    """Exact single-divisor division of Laurent dicts over Z.

    Returns the quotient q with num == q*den, or None when no such quotient
    exists.  With a single divisor the division algorithm's remainder
    vanishes exactly on multiples, for any monomial order, so the folded
    keys need no special order.  The first `poly` slots are polynomial
    variables: a quotient with a negative exponent there is reported as
    non-divisible instead.
    """
    if not den:
        raise ZeroDivisionError("division by zero element")
    if not num:
        return {}
    # strip per-coordinate valuations; they add exactly under multiplication
    # over a domain, so the quotient may sit at fresh negative keys even when
    # both operands do not
    nshift = tuple(map(min, zip(*num)))
    dshift = tuple(map(min, zip(*den)))
    n = {tuple(map(sub, e, nshift)): c for e, c in num.items()}
    d = [(tuple(map(sub, e, dshift)), c) for e, c in den.items()]
    d_lead, d_lc = max(d, key=lambda ec: grlex_key(ec[0]))
    quo: Terms = {}
    while n:
        lead = max(n, key=grlex_key)
        qe = tuple(map(sub, lead, d_lead))
        if min(qe, default=0) < 0:
            return None
        qc, r = divmod(n[lead], d_lc)
        if r:
            return None
        # leads strictly decrease, so each quotient key is met once
        quo[qe] = qc
        get = n.get
        for e, c in d:
            ee = tuple(map(add, e, qe))
            s = get(ee, 0) - c * qc
            if s:
                n[ee] = s
            else:
                del n[ee]
    # quotient keys shift back by the difference of the two frames
    back = tuple(map(sub, nshift, dshift))
    out = {tuple(map(add, e, back)): c for e, c in quo.items()}
    if poly and any(x < 0 for e in out for x in e[:poly]):
        return None
    return out


def series_div_exact(num: Terms, den: Terms, prec: int,
                     nvars: int) -> Optional[Tuple[Terms, int]]:
    """Divide truncated series num by den, requiring exact divisibility.

    `den` must have a nonzero lowest homogeneous form (in lattice degree).
    Returns (quotient, quotient_precision) or None when some homogeneous
    slice fails to divide.  The quotient is certified to degree
    prec - val(den).
    """
    dval = pvaluation(den, nvars)
    if dval is None:
        raise ZeroDivisionError("series division by zero")
    dlow = {e: c for e, c in den.items() if sum(e[:nvars]) == dval}
    qprec = prec - dval
    if qprec < 0:
        return ({}, -1)
    quo: Terms = {}
    rem = ptruncate(num, prec, nvars)
    while True:
        v = pvaluation(rem, nvars)
        if v is None or v - dval > qprec:
            break
        rlow = {e: c for e, c in rem.items() if sum(e[:nvars]) == v}
        qslice = pdiv_exact(rlow, dlow, nvars)
        if qslice is None:
            return None
        # slices sit in distinct lattice degrees and never cancel
        quo.update(qslice)
        rem = psub(rem, pmul(qslice, den, prec, nvars))
    return (quo, qprec)
