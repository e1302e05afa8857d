"""The counting kernel, in plain Python.

Nothing here visits the candidates of a stratum one by one.  Counts and
point searches walk its fibres over the last free coordinate: for each
assignment of the other free coordinates (a prefix) every generator becomes
a univariate polynomial in the last one, whose common roots are the points
over that prefix.  There is one walk for fields with tables and one fold for
fields without.  _walker, the tabulated walk, yields per outer prefix the
root masks of its fibres, as bitmasks over the field; it folds each outer
prefix into the generators once, and one pass over a middle coordinate
x_mid then gives the fibre coefficients at each of its values.  Counts take
a real x_mid, point searches a virtual one, so that they walk one fibre at a
time.  Fibres of degree 1 and 2 are solved in closed form (odd
characteristic: -c0/c1, or the quadratic formula), higher ones evaluated at
every value.  _fold, past the table limit, yields per prefix each
generator's coefficients; count_stratum_direct counts their common roots as
deg gcd(g_1, ..., g_m, t^p - t) (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14).

Both loops take each stratum's generators split into terms over the free
coordinates by the one splitter, _split.  It filters a query's (value,
exps) rows, read once per query by motivic.count: a lead stratum fixes
only zeros and the lead's 1, so a term survives when it has exponent 0 in
every zero coordinate, its coefficient unchanged.  One walker serves every
stratum of a query and keeps one memo of root masks for all of them; the
power tables and x_mid columns are kept per table and degree.
"""

from __future__ import annotations

from array import array
from itertools import product
from math import prod

from ..fields import _mulmod, _remmod, _trim


def _split(rows, fixed, free_pos):
    """Every generator's terms split for the fibre walk of a lead stratum.

    rows holds each generator's (coeff, exps) pairs.  A lead stratum fixes
    each coordinate that is not free at 0 or 1 (count._strata), so a term
    survives exactly when its exponent is 0 in every coordinate fixed at 0,
    and its coefficient stays as it is.  No two survivors of a homogeneous
    generator share a monomial in the free coordinates.  Returns one
    (terms, width) per generator: each term left is (coeff, factors,
    e_last), factors being (j, e) pairs with j indexing the prefix and
    e_last the exponent of the last free coordinate (0 when there is none);
    width is one more than the highest e_last.
    """
    free = set(free_pos)
    zeros = [i for i, v in enumerate(fixed) if not v and i not in free]
    last = free_pos[-1] if free_pos else None
    outer = list(enumerate(free_pos[:-1]))
    out = []
    for terms in rows:
        kept = []
        width = 1
        for c, exps in terms:
            for i in zeros:
                if exps[i]:
                    break
            else:
                e_last = exps[last] if last is not None else 0
                kept.append((c, tuple([(j, exps[i]) for j, i in outer
                                       if exps[i]]), e_last))
                if e_last >= width:
                    width = e_last + 1
        out.append((kept, width))
    return out


# (mul, add, roots) by (id(mul), id(add)): one root finder per pair of
# tables, which the entry keeps alive, so that no other object takes their ids
_finders = {}


def _root_finder(q, mul, add):
    """roots(coeffs): the bitmask over the value indices 0..q-1 of the roots
    of sum(coeffs[e] * t^e), every index for the zero polynomial.

    Degree 1 and 2 are solved in closed form, with the negation, the square
    roots and the inverses they need built from the tables on first use;
    the tables are of odd characteristic, as motivic.fields refuses p = 2.
    Higher degrees are evaluated at all q values.  There is one finder per
    pair of table objects, kept for the life of the process, so its
    closed-form tables are built once per field; a caller keeps its own
    memo of masks.
    """
    entry = _finders.get((id(mul), id(add)))
    if entry is not None:
        return entry[2]
    full = (1 << q) - 1
    xs = range(q)
    two = add[q + 1]
    neg = sqrt = None
    inverse = {}

    def evaluate(coeffs, d):
        # Horner's rule at every value at once
        values = [coeffs[d]] * q
        for c in coeffs[d - 1::-1]:
            values = [add[mul[v * q + x] * q + c] for v, x in zip(values, xs)]
        mask = 0
        x = -1
        for _ in range(values.count(0)):
            x = values.index(0, x + 1)
            mask |= 1 << x
        return mask

    def inv(c):
        r = inverse.get(c)
        if r is None:
            r = inverse[c] = mul[c * q:(c + 1) * q].index(1)
        return r

    def roots(coeffs):
        nonlocal neg, sqrt
        d = len(coeffs) - 1
        while d >= 0 and not coeffs[d]:
            d -= 1
        if d < 0:
            return full
        if d == 0:
            return 0
        if d > 2:
            return evaluate(coeffs, d)
        if neg is None:
            minus_one = add[q:2 * q].index(0)
            neg = [mul[a * q + minus_one] for a in range(q)]
            sqrt = [-1] * q
            for a in range(q):
                sqrt[mul[a * q + a]] = a
        if d == 1:
            return 1 << mul[neg[coeffs[0]] * q + inv(coeffs[1])]
        c0, c1, c2 = coeffs[:3]
        four_c0 = mul[add[two * q + two] * q + c0]
        s = sqrt[add[mul[c1 * q + c1] * q + neg[mul[four_c0 * q + c2]]]]
        if s < 0:
            return 0
        r = inv(mul[two * q + c2])
        b = neg[c1]
        return ((1 << mul[add[b * q + s] * q + r])
                | (1 << mul[add[b * q + neg[s]] * q + r]))

    _finders[id(mul), id(add)] = (mul, add, roots)
    return roots


# (mul, powt, columns) by (id(mul), maxd), kept alive as _finders are
_powers = {}


def _pow_table(q, mul, maxd):
    """(powt, columns) for the table mul and exponents up to maxd, built
    once per pair and kept for the life of the process.

    powt[x*(maxd+1) + e] = x^e, filled one exponent column at a time;
    columns is the walk's memo of x_mid power columns (_walker), by the
    first value of x_mid.
    """
    entry = _powers.get((id(mul), maxd))
    if entry is not None:
        return entry[1], entry[2]
    stride = maxd + 1
    powt = array("i", [0]) * (q * stride)
    col = [1] * q
    powt[0::stride] = array("i", col)
    for e in range(1, stride):
        col = [mul[a * q + x] for x, a in enumerate(col)]
        powt[e::stride] = array("i", col)
    columns = {}
    _powers[id(mul), maxd] = (mul, powt, columns)
    return powt, columns


def _count(walk, gens, free_start, q, union):
    """The points of one stratum, from the masks of walk (_walker): their
    popcounts, or for a union the candidates less them."""
    found = 0
    for _, common in walk(gens, free_start):
        found += sum([m.bit_count() for m in common])
    return prod(q - s for s in free_start) - found if union else found


def _walker(q, mul, add, powt, stride, union, columns):
    """walk(gens, free_start, by_column=True): yields (prefix, masks) for
    each outer prefix of one stratum in odometer order, gens being its
    generators split for the walk (_split) and free_start the first values
    of its free positions.

    The outer free positions are all but the last two, the second to last
    being x_mid; with by_column=False or fewer than two free positions
    x_mid is virtual, of one value, and with none x_last is too.  masks
    holds one bitmask over the value indices per value of x_mid: the AND of
    the generators' root sets in that fibre within the values x_last takes,
    with union=1 the AND of their complements.  It stops once empty.  A
    root set is computed on first sight of its coefficient tuple and kept
    for the life of the walker, across strata.  Each outer prefix folds
    into every generator, leaving a form in (x_mid, x_last) whose monomials
    the pass over x_mid adds up as columns, one product and one sum per
    monomial and value; each column tuple is a fibre's coefficients.  With
    x_mid virtual a form's slots are the exponents of x_last, so the form
    is its fibre's coefficients.  columns keeps the powers of x_mid by its
    first value, powt[x*stride + e] being x^e.
    """
    roots = _root_finder(q, mul, add)
    full = (1 << q) - 1
    # with union the walk ANDs non-root sets
    flip = full if union else 0
    masks = {}
    get = masks.get

    def fibres(form, monomials, width, pcols, zeros):
        """The fibres' coefficient tuples, one per value of x_mid."""
        cols = [zeros] * width
        for (e_mid, e_last), c in zip(monomials, form):
            if not c:
                continue
            cq = c * q
            prev = cols[e_last]
            if prev is zeros:
                cols[e_last] = [mul[cq + p] for p in pcols[e_mid]]
            else:
                cols[e_last] = [add[a * q + mul[cq + p]]
                                for a, p in zip(prev, pcols[e_mid])]
        return zip(*cols)

    def walk(gens, free_start, by_column=True):
        nfree = len(free_start)
        allowed = full >> free_start[-1] << free_start[-1] if nfree else 1
        if by_column and nfree > 1:
            mid = nfree - 2
            start = free_start[mid]
            pcols = columns.get(start)
            if pcols is None:
                xs = range(start, q)
                pcols = columns[start] = [[powt[x * stride + e] for x in xs]
                                          for e in range(stride)]
            zeros = (0,) * (q - start)
            first = [allowed] * (q - start)
            gens = [_bivariate(terms, width, mid, q, add)
                    for terms, width in gens]
        else:
            mid = nfree - 1
            zeros = None
            first = [allowed]
            # every split term (coeff, factors, e_last) is outer, its slot
            # e_last
            gens = [([0] * width, terms, None, width) for terms, width in gens]
        for pre in product(*(range(s, q) for s in free_start[:mid])):
            common = first
            for base, outer_terms, monomials, width in gens:
                form = base[:]
                for c, factors, slot in outer_terms:
                    for j, e in factors:
                        c = mul[c * q + powt[pre[j] * stride + e]]
                    form[slot] = add[form[slot] * q + c]
                keys = ((tuple(form),) if zeros is None else
                        fibres(form, monomials, width, pcols, zeros))
                out = []
                for key, a in zip(keys, common):
                    mask = get(key)
                    if mask is None:
                        mask = masks[key] = roots(key) ^ flip
                    out.append(mask & a)
                common = out
                if not any(common):
                    break
            yield pre, common

    return walk


def _bivariate(terms, width, mid, q, add):
    """One generator's split terms (_split) grouped for the
    two-level walk, mid being the prefix index of x_mid and the lower ones
    outer.

    Returns (base, outer_terms, monomials, width): monomials lists the
    distinct (e_mid, e_last) of the terms, each term adds to the coefficient
    of one of them (its slot), base holds the slot sums of the terms free
    of the outer positions, and outer_terms the others as (coeff, ((j, e),
    ...), slot).
    """
    slots = {}
    base = []
    outer_terms = []
    for c, factors, e_last in terms:
        e_mid = 0
        outer = []
        for j, e in factors:
            if j == mid:
                e_mid = e
            else:
                outer.append((j, e))
        slot = slots.setdefault((e_mid, e_last), len(base))
        if slot == len(base):
            base.append(0)
        if outer:
            outer_terms.append((c, tuple(outer), slot))
        else:
            base[slot] = add[base[slot] * q + c]
    return base, outer_terms, list(slots), width


# ---------------------------------------------------------------------------
# fields too large to tabulate, and polynomials mod p with the helpers of
# motivic.fields

def _modp(p):
    """(mul, add, power) on ints mod p, the arithmetic of _fold over F_p."""
    return (lambda a, b: a * b % p, lambda a, b: (a + b) % p,
            lambda a, e: pow(a, e, p))


def _fold(q, free_start, gens, mul, add, power):
    """The walk past the table limit: (prefix, coefficient lists) for each
    prefix of a stratum, in odometer order.

    gens holds the stratum's generators split for the walk (_split) and
    free_start the first values of its free positions; each list holds one
    generator's coefficients in the last free coordinate, its terms' values
    combined by mul, add and power: _modp(p) over F_p, the spec's _mul,
    _add and _pow over F_{p^m}.  A stratum with no free position is one
    prefix whose lists are constants.
    """
    for pre in product(*(range(s, q) for s in free_start[:-1])):
        lists = []
        for terms, width in gens:
            coeffs = [0] * width
            for v, factors, e_last in terms:
                for j, e in factors:
                    v = mul(v, power(pre[j], e))
                coeffs[e_last] = add(coeffs[e_last], v)
            lists.append(coeffs)
        yield pre, lists


def _gcdmod(a, b, p):
    while b:
        a, b = b, _remmod(a, b, p)
    return a


def _roots_mod(g, p):
    """Number of distinct roots in F_p of nonzero g: deg gcd(g, t^p - t),
    with t^p mod g by square-and-multiply."""
    if len(g) <= 2:
        return len(g) - 1
    r = [1]
    for bit in bin(p)[2:]:
        r = _remmod(_mulmod(r, r, p), g, p)
        if bit == "1":
            r = _remmod([0] + r, g, p)
    r += [0] * (2 - len(r))
    r[1] = (r[1] - 1) % p
    return len(_gcdmod(g, _trim(r), p)) - 1


def count_stratum_direct(p, free_start, gens, union):
    """Stratum counter for primes too large to tabulate: ints mod p.

    gens holds the stratum's generators split for the fibre walk (_split),
    with coefficients as ints mod p, and free_start the first values of its
    free positions, each running up to p - 1.  A fibre's points are the
    common roots of the generators' restrictions (_fold), or with union=1
    the roots of their product, the whole fibre when one restriction is
    zero.
    """
    start = free_start[-1] if free_start else 0
    size = p - start if free_start else 1
    count = 0
    for _, lists in _fold(p, free_start, gens, *_modp(p)):
        if union:
            g = [1]
            for coeffs in lists:
                g = _mulmod(g, _trim(coeffs), p) if any(coeffs) else []
                if not g:
                    break
        else:
            g = []
            for coeffs in lists:
                g = _gcdmod(g, _trim(coeffs), p)
                if len(g) == 1:
                    break
        if not g:
            count += size
        else:
            count += _roots_mod(g, p) - (1 if start and not g[0] else 0)
    return count
