"""Sparse Laurent polynomial and truncated power-series arithmetic over Z.

Every function works on plain dicts mapping exponent tuples to nonzero ints.
The ring elements of the package fold the coefficient ring of the formal
group law into the key: a key is the lattice exponents (``nvars`` slots)
followed by one exponent per law parameter, so Z[c, c^{-1}][Lambda] and
Z[c, a][[Lambda]] are themselves (truncated) polynomial rings and one product
loop and one exact division serve every model.  `Scalar` keeps its
parameter-only terms in the same format and calls the same functions.

Division by x_b on the polynomial and series models needs less: by
F(x, y) = x + y + ..., the lowest form of x_b is the integer linear form
l_b = sum_i b_i x_i (on the additive model x_b is l_b).  `pdiv_linear`
divides by l_b in one synthetic-division pass, and `series_div_exact` walks
the lattice-degree buckets of a series once, dividing each by l_b.

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


def pdiv_linear(num: Terms, form: Sequence[int]) -> Optional[Terms]:
    """Exact division of num by the integer linear form l = sum_i form[i] x_i.

    Synthetic division in one pivot variable x_j: the terms are grouped once
    by their x_j exponent and the groups walked from the top down.  Each
    group divided by form[j] x_j is a slice of the quotient, and that slice
    times l - form[j] x_j is subtracted from the group below.  Returns None
    when form[j] does not divide a coefficient or a term is left at x_j^0,
    which is exactly when no quotient over Z exists.  The first len(form)
    slots of each key are the lattice variables, with nonnegative exponents;
    the parameter slots after them ride along.
    """
    if not any(form):
        raise ZeroDivisionError("division by the zero linear form")
    if not num:
        return {}
    j = next(i for i, v in enumerate(form) if v)
    pivot = form[j]
    rest = [(i, v) for i, v in enumerate(form) if v and i != j]
    groups: Dict[int, Terms] = {}
    for e, c in num.items():
        groups.setdefault(e[j], {})[e] = c
    quo: Terms = {}
    for k in range(max(groups), 0, -1):
        group = groups.get(k)
        if not group:
            continue
        below = groups.setdefault(k - 1, {})
        get = below.get
        for e, c in group.items():
            qc, r = divmod(c, pivot)
            if r:
                return None
            key = list(e)
            key[j] = k - 1
            quo[tuple(key)] = qc
            for i, v in rest:
                key[i] += 1
                ee = tuple(key)
                key[i] -= 1
                s = get(ee, 0) - v * qc
                if s:
                    below[ee] = s
                else:
                    del below[ee]
    # a multiple of l leaves nothing at x_j^0 (nor below it)
    if any(group for k, group in groups.items() if k < 1):
        return None
    return quo


def series_div_exact(num: Terms, den: Terms, prec: int,
                     nvars: int) -> Optional[Tuple[Terms, int]]:
    """Divide truncated series num by den, requiring exact divisibility.

    `den` must have lattice valuation 1 and an integer linear lowest form
    l = sum_i b_i x_i, as every x_b has (F(x, y) = x + y + ...).  One pass
    over the numerator's lattice-degree buckets, upward to `prec`, divides
    each by l with `pdiv_linear` and subtracts that slice of the quotient
    times each higher layer of den from the later buckets in place.  Returns
    (quotient, quotient_precision) or None when some bucket fails to divide.
    The quotient is certified to degree prec - 1.
    """
    if not den:
        raise ZeroDivisionError("series division by zero")
    layers: Dict[int, Terms] = {}
    for e, c in den.items():
        layers.setdefault(sum(e[:nvars]), {})[e] = c
    width = len(next(iter(den)))
    form = [den.get(tuple(int(j == i) for j in range(width)), 0) for i in range(nvars)]
    if min(layers) != 1 or len(layers[1]) != sum(map(bool, form)):
        raise ValueError("series division needs a divisor whose lowest form "
                         "is an integer linear form")
    qprec = prec - 1
    if qprec < 0:
        return ({}, -1)
    buckets: Dict[int, Terms] = {}
    for e, c in num.items():
        buckets.setdefault(sum(e[:nvars]), {})[e] = c
    higher = sorted((d, t) for d, t in layers.items() if d > 1)
    quo: Terms = {}
    for v in range(min(buckets, default=prec + 1), prec + 1):
        bucket = buckets.get(v)
        if not bucket:
            continue
        qslice = pdiv_linear(bucket, form)
        if qslice is None:
            return None
        # slices sit in distinct lattice degrees and never cancel
        quo.update(qslice)
        for d, layer in higher:
            if v - 1 + d > prec:
                break
            target = buckets.setdefault(v - 1 + d, {})
            get = target.get
            for e1, c1 in qslice.items():
                for e2, c2 in layer.items():
                    e = tuple(map(add, e1, e2))
                    s = get(e, 0) - c1 * c2
                    if s:
                        target[e] = s
                    else:
                        del target[e]
    return (quo, qprec)
