"""Sparse Laurent polynomial and truncated power-series arithmetic over Z.

Every function works on plain dicts mapping keys to nonzero ints.  The ring
elements of the package fold the coefficient ring of the formal group law
into the key: a key holds the lattice exponents (``nvars`` slots) followed by
one exponent per law parameter, so Z[c, c^{-1}][Lambda] and Z[c, a][[Lambda]]
are themselves (truncated) polynomial rings and one product loop and one
exact division serve every model.

Keys come in two formats:

* Exact arithmetic (ADD, MUL, CON and `Scalar`) keys are exponent tuples.
  `pmul` without a bound, `pdiv_exact` and `pdiv_linear` take these.
* Truncated series (SER and the formal group laws) keys are packed integers,
  as a `SeriesCodec` lays them out.  `pmul` with a bound, `ptruncate`,
  `pvaluation` and `series_div_exact` take these; `psubstitute` takes either.

`padd`, `psub`, `pneg` and `pscale` never look inside a key and serve both.

A packed key has one fixed-width digit of `DIGIT` bits per slot, slot i at
bits [DIGIT*i, DIGIT*(i + 1)), and above them a lattice-degree digit, the sum
of the lattice exponents.  A lattice digit is the exponent itself, which is
never negative in a series; a parameter digit is the exponent plus a bias,
so parameters may be negative.  A key sum, less the codec's `offset` (the
bias counted twice), is then the key of the monomial product, integer order
is lattice-degree order first, and the terms of degree at most p are the
keys below `SeriesCodec.limit(p)`.

Digit width and range check.  `DIGIT` is 32.  A valid digit lies below
2**(DIGIT - 1): exponents in [0, 2**31) on a lattice slot and
[-2**30, 2**30) on a parameter slot.  `SeriesCodec.pack` raises ValueError
outside that range, and `limit` refuses a bound of 2**31 - 1 or more, so a
term that survives truncation has valid lattice digits.  A parameter digit
can still leave its range in a product; the sum of two valid keys that does
so sets the top bit of the lowest digit that left, so `pmul` and
`series_div_exact` test the keys they form for those bits and raise the same
ValueError instead of letting a carry corrupt a key.

Division by x_b on the polynomial and series models needs less than a
general division: by F(x, y) = x + y + ..., the lowest form of x_b is the
integer linear form l_b = sum_i b_i x_i (on the additive model x_b is l_b).
`pdiv_linear` divides by l_b in one synthetic-division pass, and
`series_div_exact` walks the lattice-degree buckets of a series once,
dividing each by l_b the same way; its divisor's layout is a
`SeriesDivisor`, built once per divisor.

Exact exponents may be negative (Laurent keys) unless a function says
otherwise.  `trunc` bounds the lattice degree, the sum of the first
``nvars`` slots; parameter exponents never count.
"""
from __future__ import annotations

from functools import reduce
from operator import add, or_, sub
from typing import Dict, List, Optional, Sequence, Tuple

Expt = Tuple[int, ...]
Terms = Dict[Expt, int]
Series = Dict[int, int]

DIGIT = 32
_LOW = (1 << DIGIT) - 1
_TOP = 1 << (DIGIT - 1)
_BIAS = 1 << (DIGIT - 2)


def grlex_key(e: Expt):
    return (sum(e), e)


class SeriesCodec:
    """Packed integer keys for series in `nvars` lattice variables over
    `nparams` parameters (see the module docstring)."""

    __slots__ = ("nvars", "shift", "offset", "guard", "units", "_slots", "_lattice",
                 "_param_mask")

    def __init__(self, nvars: int, nparams: int):
        width = nvars + nparams
        self.nvars = nvars
        # the position of the lattice-degree digit
        self.shift = DIGIT * width
        # (position, bias) of each slot's digit
        self._slots = tuple((DIGIT * i, _BIAS if i >= nvars else 0) for i in range(width))
        self._lattice = tuple(DIGIT * i for i in range(nvars))
        self.offset = sum(b << p for p, b in self._slots)
        # lattice digits stay below any bound `limit` accepts: only a
        # parameter digit can leave its range
        self.guard = sum(_TOP << p for p, b in self._slots if b)
        self._param_mask = sum(_LOW << p for p, b in self._slots if b)
        # the key of x_i
        self.units = tuple(self.offset + (1 << self.shift) + (1 << DIGIT * i)
                           for i in range(nvars))

    def limit(self, trunc: int) -> int:
        """The least key of lattice degree trunc + 1."""
        if trunc + 1 >= _TOP:
            raise ValueError("lattice degree %d outside the packed key range" % trunc)
        return (trunc + 1) << self.shift

    def pack(self, e: Expt) -> int:
        if len(e) != len(self._slots):
            raise ValueError("key %r has the wrong number of slots" % (e,))
        key = sum(e[:self.nvars]) << self.shift
        for (p, b), v in zip(self._slots, e):
            d = v + b
            if not 0 <= d < _TOP:
                raise ValueError("exponent %d outside the packed key range" % v)
            key += d << p
        return key

    def unpack(self, key: int) -> Expt:
        return tuple(((key >> p) & _LOW) - b for p, b in self._slots)

    def pack_terms(self, terms: Terms) -> Series:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: Series) -> Terms:
        return {self.unpack(k): c for k, c in terms.items()}

    def check(self, keys) -> None:
        """Raise unless every key has valid parameter digits."""
        if self.guard and reduce(or_, keys, 0) & self.guard:
            raise ValueError("exponent outside the packed key range")

    def split(self, key: int) -> Tuple[Expt, int]:
        """The lattice exponents of a key, and the key of its parameter part."""
        return tuple((key >> p) & _LOW for p in self._lattice), key & self._param_mask


def _accumulate(out: Dict, b: Dict, sign: int = 1) -> Dict:
    """Add sign * b into out in place, dropping cancelled keys."""
    get = out.get
    for e, c in b.items():
        s = get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def padd(a: Dict, b: Dict) -> Dict:
    return _accumulate(dict(a), b)


def pneg(a: Dict) -> Dict:
    return {e: -c for e, c in a.items()}


def psub(a: Dict, b: Dict) -> Dict:
    return _accumulate(dict(a), b, -1)


def pscale(a: Dict, s: int) -> Dict:
    if not s:
        return {}
    return {e: c * s for e, c in a.items()}


def pmul(a: Dict, b: Dict, trunc: Optional[int] = None,
         codec: Optional[SeriesCodec] = None) -> Dict:
    """The product a * b: exact on tuple keys, or, with `trunc`, on the
    packed keys of `codec`, forming only the terms of lattice degree at most
    `trunc`."""
    out: Dict = {}
    get = out.get
    if trunc is None:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}
    # b less the offset, in key order: each term of a stops at the first
    # product past the bound, before any out-of-range key is stored
    off = codec.offset
    right = sorted([(k - off, c) for k, c in b.items()])
    limit = codec.limit(trunc)
    for k1, c1 in a.items():
        room = limit - k1
        for k2, c2 in right:
            if k2 >= room:
                break
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    out = {k: c for k, c in out.items() if c}
    codec.check(out)
    return out


def ptruncate(a: Series, trunc: int, codec: SeriesCodec) -> Series:
    limit = codec.limit(trunc)
    return {k: c for k, c in a.items() if k < limit}


def pvaluation(a: Series, codec: SeriesCodec) -> Optional[int]:
    """Smallest lattice degree with a nonzero term, or None for zero."""
    return min(a) >> codec.shift if a else None


def psubstitute(a: Dict, images: Sequence[Dict], trunc: Optional[int] = None,
                codec: Optional[SeriesCodec] = None) -> Dict:
    """Ring homomorphism sending lattice variable i to images[i].

    Exact on tuple keys, whose lattice slots are the first ``len(images)``,
    or cut at `trunc` on the packed keys of `codec`.  The parameter slots
    ride along.  Lattice exponents must be nonnegative (polynomial and
    series elements only).
    """
    n = len(images)
    pow_cache: List[Dict[int, Dict]] = [{1: im} for im in images]

    def power(i: int, k: int) -> Dict:
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = pmul(power(i, k - 1), images[i], trunc, codec)
        return cache[k]

    if codec is None:
        zero = (0,) * n

        def split(e):
            return e[:n], zero + e[n:]
    else:
        split = codec.split
    out: Dict = {}
    for e, c in a.items():
        lattice, rest = split(e)
        term = {rest: c}
        for i, k in enumerate(lattice):
            if k < 0:
                raise ValueError("substitution requires nonnegative exponents")
            if k:
                term = pmul(term, power(i, k), trunc, codec)
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


class SeriesDivisor:
    """A series divisor laid out for `series_div_exact`: the pivot variable
    x_j of its lowest form l = sum_i b_i x_i, and its layers of lattice
    degree above 1, each less the codec's offset.

    The divisor must have lattice valuation 1 and an integer linear lowest
    form, as every x_b has (F(x, y) = x + y + ...)."""

    __slots__ = ("codec", "position", "pivot", "unit", "rest", "higher")

    def __init__(self, den: Series, codec: SeriesCodec):
        if not den:
            raise ZeroDivisionError("series division by zero")
        layers: Dict[int, List[Tuple[int, int]]] = {}
        for k, c in den.items():
            layers.setdefault(k >> codec.shift, []).append((k - codec.offset, c))
        form = [den.get(u, 0) for u in codec.units]
        if min(layers) != 1 or len(layers[1]) != sum(map(bool, form)):
            raise ValueError("series division needs a divisor whose lowest form "
                             "is an integer linear form")
        j = next(i for i, v in enumerate(form) if v)
        self.codec = codec
        self.position = DIGIT * j
        self.pivot = form[j]
        # a term's quotient key is its key less x_j; the other terms of l
        # times that quotient move one exponent from x_j to x_i
        self.unit = codec.units[j] - codec.offset
        self.rest = [((1 << DIGIT * i) - (1 << self.position), v)
                     for i, v in enumerate(form) if v and i != j]
        self.higher = sorted((d, layer) for d, layer in layers.items() if d > 1)


def series_div_exact(num: Series, den: SeriesDivisor,
                     prec: int) -> Optional[Tuple[Series, int]]:
    """Divide the truncated series num by den, requiring exact divisibility.

    One pass over the numerator's lattice-degree buckets, upward to `prec`,
    divides each by den's lowest form l by synthetic division in the pivot
    variable (as `pdiv_linear` does) and subtracts that slice of the quotient
    times each higher layer of den from the later buckets in place.  Returns
    (quotient, quotient_precision) or None when some bucket fails to divide.
    The quotient is certified to degree prec - 1.
    """
    qprec = prec - 1
    if qprec < 0:
        return ({}, -1)
    codec = den.codec
    position, pivot, unit, rest = den.position, den.pivot, den.unit, den.rest
    buckets: Dict[int, Series] = {}
    for k, c in num.items():
        buckets.setdefault(k >> codec.shift, {})[k] = c
    quo: Series = {}
    for v in range(min(buckets, default=prec + 1), prec + 1):
        bucket = buckets.get(v)
        if not bucket:
            continue
        codec.check(bucket)
        groups: Dict[int, Series] = {}
        for k, c in bucket.items():
            groups.setdefault((k >> position) & _LOW, {})[k] = c
        qslice: Series = {}
        for x in range(max(groups), 0, -1):
            group = groups.get(x)
            if not group:
                continue
            below = groups.setdefault(x - 1, {})
            get = below.get
            for k, c in group.items():
                qc, r = divmod(c, pivot)
                if r:
                    return None
                qslice[k - unit] = qc
                for step, b in rest:
                    kk = k + step
                    s = get(kk, 0) - b * qc
                    if s:
                        below[kk] = s
                    else:
                        del below[kk]
        # a multiple of l leaves nothing at x_j^0
        if groups.get(0):
            return None
        # slices sit in distinct lattice degrees and never cancel
        quo.update(qslice)
        for d, layer in den.higher:
            if v - 1 + d > prec:
                break
            target = buckets.setdefault(v - 1 + d, {})
            get = target.get
            for k1, c1 in qslice.items():
                for k2, c2 in layer:
                    k = k1 + k2
                    s = get(k, 0) - c1 * c2
                    if s:
                        target[k] = s
                    else:
                        del target[k]
    return (quo, qprec)
