"""Sparse Laurent polynomial and truncated power-series arithmetic over Z.

Every function works on plain dicts mapping keys to nonzero ints.  The ring
elements of the package fold the coefficient ring of the formal group law
into the key: a monomial is a lattice point (``nvars`` slots) followed by
one exponent per law parameter, so Z[c, c^{-1}][Lambda] and Z[c, a][[Lambda]]
are themselves (truncated) rings of monomials and one product loop and one
division serve every model.

Each monomial is packed into one integer key, laid out by a `KeyCodec`.
`pmul`, `pmove`, `ptruncate`, `pvaluation`, `psubstitute` and
`series_div_exact` take packed keys; `padd`, `psub`, `pneg` and `pscale` never look inside a key.
Only `pdiv_exact`, the general division of `Scalar.exact_div` and of the
tests' oracles, takes exponent tuples.

A packed key has one fixed-width digit of `DIGIT` bits per slot, slot i at
bits [DIGIT*i, DIGIT*(i + 1)), holding the exponent plus a bias, and above
them a lattice-degree digit, the sum of the lattice exponents, unbiased and
of either sign (Python ints keep it exact).  The key is then an affine
function of the exponents: a key sum less the codec's `offset` (the bias
counted twice) is the key of the monomial product, integer order is
lattice-degree order first, and the terms of degree at most p are the keys
below `KeyCodec.limit(p)`.

Digit width and range check.  `DIGIT` is 32 and the bias 2**30.  A valid
digit lies below 2**(DIGIT - 1): exponents in [-2**30, 2**30) on every slot.
`KeyCodec.pack` raises ValueError outside that range, and `limit` refuses a
bound of 2**30 or more, so a series term that survives truncation has valid
lattice digits.  Any digit can still leave its range in an exact product;
the sum of two valid keys that does so sets the top bit of the lowest digit
that left, so `pmul` and `series_div_exact` test the keys they form for
those bits and raise the same ValueError instead of letting a carry corrupt
a key.

Division by x_b on the polynomial and series models needs less than a
general division: by F(x, y) = x + y + ..., the lowest form of x_b is the
integer linear form l_b = sum_i b_i x_i.  `series_div_exact` walks the
lattice-degree buckets of the numerator once, dividing each by l_b by
synthetic division in one variable; its divisor's layout is a
`SeriesDivisor`, built once per divisor.  On the additive model x_b is l_b
itself and the division runs with no precision bound.

`trunc` bounds the lattice degree, the sum of the first ``nvars`` slots;
parameter exponents never count.
"""
from __future__ import annotations

from functools import reduce
from operator import add, lshift, or_, sub
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


class KeyCodec:
    """Packed integer keys for monomials in `nvars` lattice slots and
    `nparams` parameter slots (see the module docstring)."""

    __slots__ = ("nvars", "shift", "offset", "guard", "units", "_positions", "_params",
                 "_origin")

    def __init__(self, nvars: int, nparams: int):
        self.nvars = nvars
        # the position of the lattice-degree digit
        self.shift = DIGIT * (nvars + nparams)
        self._positions = tuple(range(0, self.shift, DIGIT))
        self.offset = sum(_BIAS << p for p in self._positions)
        # exact products are never cut: any digit may leave its range
        self.guard = sum(_TOP << p for p in self._positions)
        # the parameter digits, and the lattice digits of the exponent 0
        self._params = sum(_LOW << p for p in self._positions[nvars:])
        self._origin = sum(_BIAS << p for p in self._positions[:nvars])
        # the key of x_i
        self.units = tuple(self.offset + (1 << self.shift) + (1 << p)
                           for p in self._positions[:nvars])

    def limit(self, trunc: int) -> int:
        """The least key of lattice degree trunc + 1."""
        if trunc >= _BIAS:
            raise ValueError("lattice degree %d outside the packed key range" % trunc)
        return (trunc + 1) << self.shift

    def pack(self, e: Expt) -> int:
        if len(e) != len(self._positions):
            raise ValueError("key %r has the wrong number of slots" % (e,))
        if e and not (-_BIAS <= min(e) and max(e) < _BIAS):
            raise ValueError("exponents %r outside the packed key range" % (e,))
        return (self.offset + (sum(e[:self.nvars]) << self.shift)
                + sum(map(lshift, e, self._positions)))

    def unpack(self, key: int) -> Expt:
        return tuple([((key >> p) & _LOW) - _BIAS for p in self._positions])

    def pack_terms(self, terms: Terms) -> Series:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: Series) -> Terms:
        return {self.unpack(k): c for k, c in terms.items()}

    def exponent(self, key: int, i: int) -> int:
        """The exponent of slot i."""
        return ((key >> DIGIT * i) & _LOW) - _BIAS

    def check(self, keys) -> None:
        """Raise unless every key has valid digits."""
        if reduce(or_, keys, 0) & self.guard:
            raise ValueError("exponent outside the packed key range")

    def split(self, key: int) -> Tuple[Expt, int]:
        """The lattice exponents of a key, and the key of its parameter part."""
        return (tuple(((key >> p) & _LOW) - _BIAS for p in self._positions[:self.nvars]),
                key & self._params | self._origin)


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


def pmul(a: Series, b: Series, trunc: Optional[int], codec: KeyCodec) -> Series:
    """The product a * b on the packed keys of `codec`: exact when `trunc`
    is None, else forming only the terms of lattice degree at most `trunc`."""
    out: Series = {}
    get = out.get
    off = codec.offset
    if trunc is None:
        right = [(k - off, c) for k, c in b.items()]
        for k1, c1 in a.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    else:
        # b less the offset, in key order: each term of a stops at the first
        # product past the bound
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


def pmove(a: Series, steps: Sequence[int], codec: KeyCodec) -> Series:
    """The image of a under a linear map of the lattice, given by the key
    step of the image of each lattice basis vector (its key less the
    offset, degree digit included): keys are affine in the exponents, so a
    term's lattice exponent e_i moves its key by e_i times steps[i].  The
    parameter slots ride along.  The map must be injective on the lattice
    points of a, as the Weyl action is; exact keys only."""
    base = codec._origin - _BIAS * sum(steps)
    params = codec._params
    moves = list(zip(codec._positions, steps))
    out: Series = {}
    for k, c in a.items():
        key = (k & params) + base
        for p, step in moves:
            key += ((k >> p) & _LOW) * step
        out[key] = c
    codec.check(out)
    return out


def ptruncate(a: Series, trunc: int, codec: KeyCodec) -> Series:
    limit = codec.limit(trunc)
    return {k: c for k, c in a.items() if k < limit}


def pvaluation(a: Series, codec: KeyCodec) -> Optional[int]:
    """Smallest lattice degree with a nonzero term, or None for zero."""
    return min(a) >> codec.shift if a else None


def psubstitute(a: Series, images: Sequence[Series], trunc: Optional[int],
                codec: KeyCodec) -> Series:
    """Ring homomorphism sending lattice variable i to images[i], on the
    packed keys of `codec`, cut at `trunc` unless it is None.  The parameter
    slots ride along.  Lattice exponents must be nonnegative (polynomial and
    series elements only).
    """
    pow_cache: List[Dict[int, Series]] = [{1: im} for im in images]

    def power(i: int, k: int) -> Series:
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = pmul(power(i, k - 1), images[i], trunc, codec)
        return cache[k]

    out: Series = {}
    for e, c in a.items():
        lattice, rest = codec.split(e)
        term = {rest: c}
        for i, k in enumerate(lattice):
            if k < 0:
                raise ValueError("substitution requires nonnegative exponents")
            if k:
                term = pmul(term, power(i, k), trunc, codec)
        _accumulate(out, term)
    return out


def pdiv_exact(num: Terms, den: Terms, poly: int = 0) -> Optional[Terms]:
    """Exact single-divisor division of Laurent dicts over Z, on exponent
    tuples.

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


class SeriesDivisor:
    """A divisor laid out for `series_div_exact`: the pivot variable x_j of
    its lowest form l = sum_i b_i x_i, and its layers of lattice degree above
    1, each less the codec's offset.

    The divisor must have lattice valuation 1 and an integer linear lowest
    form, as every x_b has (F(x, y) = x + y + ...)."""

    __slots__ = ("codec", "position", "pivot", "unit", "rest", "higher")

    def __init__(self, den: Series, codec: KeyCodec):
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
                     prec: Optional[int]) -> Optional[Tuple[Series, Optional[int]]]:
    """Divide the truncated series num by den, requiring exact divisibility.

    One pass over the numerator's lattice-degree buckets, upward to `prec`,
    divides each by den's lowest form l by synthetic division in the pivot
    variable x_j: a bucket's terms are grouped by their x_j exponent and the
    groups walked from the top down; each group divided by b_j x_j is a slice
    of the quotient, and that slice times l - b_j x_j is subtracted from the
    group below.  The slice times each higher layer of den is subtracted
    from the later buckets in place.  Returns (quotient, quotient_precision)
    or None when b_j does not divide a coefficient or a term is left at
    x_j^0, which is exactly when no quotient over Z exists.  The quotient is
    certified to degree prec - 1.  With `prec` None the division is exact,
    for a divisor that is its lowest form alone (x_b on the additive model):
    the whole numerator is one bucket, and the quotient precision is None.
    """
    codec = den.codec
    if prec is None:
        # den is its lowest form alone: one synthetic division of all terms
        qprec, top = None, 0
        buckets = {0: num}
    elif prec < 1:
        return ({}, -1)
    else:
        qprec, top = prec - 1, prec
        buckets = {}
        for k, c in num.items():
            buckets.setdefault(k >> codec.shift, {})[k] = c
    position, pivot, unit, rest = den.position, den.pivot, den.unit, den.rest
    quo: Series = {}
    for v in range(min(buckets, default=top + 1), top + 1):
        bucket = buckets.get(v)
        if not bucket:
            continue
        codec.check(bucket)
        # groups are keyed by the digit of x_j, the exponent plus the bias
        groups: Dict[int, Series] = {}
        for k, c in bucket.items():
            groups.setdefault((k >> position) & _LOW, {})[k] = c
        qslice: Series = {}
        for x in range(max(groups), _BIAS, -1):
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
        # a multiple of l leaves nothing at x_j^0, nor below it, where the
        # walk never reaches
        if groups.get(_BIAS) or min(groups) < _BIAS:
            return None
        # slices sit in distinct lattice degrees and never cancel
        quo.update(qslice)
        for d, layer in den.higher:
            if v - 1 + d > top:
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
