"""Sparse multivariate polynomial and power-series helpers.

All functions operate on plain dicts mapping exponent tuples to `Scalar`
coefficients.  They are shared by the formal group law machinery, the exact
polynomial and group-algebra backends, and the truncated-series backend.
The optional `trunc` argument drops terms of total degree above the bound;
`trunc=None` means exact arithmetic.

Group-algebra elements reuse the same representation with exponent tuples
allowed to be negative (Laurent keys).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import Scalar

Expt = Tuple[int, ...]
Terms = Dict[Expt, Scalar]


def grlex_key(e: Expt):
    return (sum(e), e)


def clean(terms: Terms) -> Terms:
    return {e: c for e, c in terms.items() if not c.is_zero()}


def padd(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = out[e] + c
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def pneg(a: Terms) -> Terms:
    return {e: -c for e, c in a.items()}


def psub(a: Terms, b: Terms) -> Terms:
    return padd(a, pneg(b))


def pscale(a: Terms, s: Scalar) -> Terms:
    if s.is_zero():
        return {}
    return clean({e: c * s for e, c in a.items()})


def pmul(a: Terms, b: Terms, trunc: Optional[int] = None) -> Terms:
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if trunc is not None and sum(e) > trunc:
                continue
            if e in out:
                s = out[e] + c1 * c2
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                p = c1 * c2
                if not p.is_zero():
                    out[e] = p
    return out


def ptruncate(a: Terms, trunc: int) -> Terms:
    return {e: c for e, c in a.items() if sum(e) <= trunc}


def pvaluation(a: Terms) -> Optional[int]:
    """Smallest total degree with a nonzero term, or None for the zero element."""
    if not a:
        return None
    return min(sum(e) for e in a)


def lowest_form(a: Terms) -> Terms:
    v = pvaluation(a)
    return {e: c for e, c in a.items() if sum(e) == v}


def psubstitute(
    a: Terms,
    images: Sequence[Terms],
    nvars_out: int,
    params: Tuple[str, ...],
    trunc: Optional[int] = None,
) -> Terms:
    """Ring homomorphism sending variable i to images[i].

    Exponents must be nonnegative (polynomial/series elements only).
    """
    pow_cache: List[Dict[int, Terms]] = [dict() for _ in images]
    one: Terms = {(0,) * nvars_out: Scalar.const(1, params)}

    def power(i: int, k: int) -> Terms:
        if k == 0:
            return one
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = pmul(power(i, k - 1), images[i], trunc)
        return cache[k]

    out: Terms = {}
    for e, c in a.items():
        term = {(0,) * nvars_out: c}
        for i, k in enumerate(e):
            if k < 0:
                raise ValueError("substitution requires nonnegative exponents")
            if k:
                term = pmul(term, power(i, k), trunc)
        out = padd(out, term)
    return out


def pdiv_exact(num: Terms, den: Terms, laurent: bool = True) -> Optional[Terms]:
    """Exact single-divisor division for polynomial or Laurent dicts.

    Returns the quotient q with num == q*den, or None when no such quotient
    exists.  Correct over any integral coefficient domain because with a
    single divisor the division algorithm's remainder vanishes exactly on
    multiples.  With ``laurent`` false the quotient must stay in the
    polynomial range: a quotient with a negative key is reported as
    non-divisible instead.
    """
    if not den:
        raise ZeroDivisionError("division by zero element")
    if not num:
        return {}
    # strip per-coordinate valuations unclamped; they add exactly under
    # multiplication over a domain, so the quotient may sit at fresh
    # negative keys even when both operands do not
    nv = len(next(iter(den)))
    nshift = tuple(min(e[i] for e in num) for i in range(nv))
    dshift = tuple(min(e[i] for e in den) for i in range(nv))

    def unshift(terms: Terms, shift: Expt) -> Terms:
        return {tuple(a - b for a, b in zip(e, shift)): c for e, c in terms.items()}

    n = unshift(num, nshift)
    d = unshift(den, dshift)
    d_lead = max(d, key=grlex_key)
    d_lc = d[d_lead]
    quo: Terms = {}
    while n:
        lead = max(n, key=grlex_key)
        qe = tuple(a - b for a, b in zip(lead, d_lead))
        if any(x < 0 for x in qe):
            return None
        qc = n[lead].exact_div(d_lc)
        if qc is None:
            return None
        quo[qe] = (quo[qe] + qc) if qe in quo else qc
        for e, c in d.items():
            ee = tuple(a + b for a, b in zip(e, qe))
            if ee in n:
                s = n[ee] - c * qc
                if s.is_zero():
                    del n[ee]
                else:
                    n[ee] = s
            else:
                p = -(c * qc)
                if not p.is_zero():
                    n[ee] = p
    # quotient keys shift back by the difference of the two frames
    back = tuple(a - b for a, b in zip(nshift, dshift))
    out = clean({tuple(a + b for a, b in zip(e, back)): c for e, c in quo.items()})
    if not laurent and any(x < 0 for e in out for x in e):
        return None
    return out


def series_div_exact(num: Terms, den: Terms, prec: int) -> Optional[Tuple[Terms, int]]:
    """Divide truncated series num by den, requiring exact divisibility.

    `den` must have a nonzero lowest homogeneous form.  Returns (quotient,
    quotient_precision) or None when some homogeneous slice fails to divide.
    The quotient is certified to degree prec - val(den).
    """
    dval = pvaluation(den)
    if dval is None:
        raise ZeroDivisionError("series division by zero")
    dlow = lowest_form(den)
    qprec = prec - dval
    if qprec < 0:
        return ({}, -1)
    quo: Terms = {}
    rem = dict(num)
    while True:
        rem = {e: c for e, c in rem.items() if sum(e) <= prec}
        v = pvaluation(rem)
        if v is None or v - dval > qprec:
            break
        rlow = lowest_form(rem)
        qslice = pdiv_exact(rlow, dlow, laurent=False)
        if qslice is None:
            return None
        quo = padd(quo, qslice)
        rem = psub(rem, pmul(qslice, den, prec))
    return (clean(quo), qprec)


def series_inverse_unit(a: Terms, nvars: int, params: Tuple[str, ...], prec: int) -> Terms:
    """Inverse of a series whose constant term is a unit scalar."""
    zero_e = (0,) * nvars
    c0 = a.get(zero_e)
    if c0 is None:
        raise ZeroDivisionError("series has no constant term")
    c0inv = c0.inverse()
    # a = c0 (1 - g) with val(g) >= 1, so 1/a = (1/c0) sum g^k
    g = pscale({e: c for e, c in a.items() if e != zero_e}, -c0inv)
    out: Terms = {zero_e: Scalar.const(1, params)}
    power: Terms = {zero_e: Scalar.const(1, params)}
    for _ in range(prec):
        power = pmul(power, g, prec)
        if not power:
            break
        out = padd(out, power)
    return pscale(out, c0inv)
