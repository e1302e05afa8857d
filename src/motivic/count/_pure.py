"""The counting kernel, in plain Python.

Nothing here visits the candidates of a stratum one by one.  The trailing
free coordinates of a stratum form a block of at most _BLOCK_LANES
candidates, and the other free coordinates (a prefix) run as an odometer.
For each prefix every generator becomes a polynomial in the block
coordinates, sum(c_slot * M_slot) over its monomials (slots), and the
kernel evaluates it at every candidate of the block at once: M_slot is
the monomial's value at each candidate, packed into the fixed-width lanes
of one Python int (SWAR; Lamport, "Multiple byte processing with
full-word instructions", CACM 1975), so a product and a sum over the whole
block are one big-int operation each.  _Lanes holds that arithmetic for
one field:

  * A lane is `width` bits, which depends on p alone.  A lane holds a
    residue mod p between reductions up to `chunk` products c * m with
    c, m < p; a reduction is a multiply-shift by the magic number of p
    (Granlund and Montgomery, "Division by invariant integers using
    multiplication", PLDI 1994), exact on every lane at once, and the lane
    is wide enough that neither the sum nor the multiply spills into the
    next lane.
  * The zero lanes of a reduced vector r are (msb - r) & msb, msb holding
    the top bit of every lane; a count ANDs them across generators (ORs
    them for a union) and takes their popcount, a point search lists them
    in ascending order.
  * F_{p^m} runs as m digit planes, one vector per base-p digit of the
    values, and a constant c acts on them as its m x m matrix over F_p
    (the matrix of x -> c * x on the basis 1, t, ..., t^(m-1)).
  * A monomial vector is built once, as the Kronecker product of one
    coordinate's powers with the vector of the remaining coordinates, and
    kept across queries, at most _VECTOR_BITS lane bits of them per field
    and _FIELDS fields.  A pass of any perfbench workload finds 81-100% of
    its vectors already built by an earlier query (by the warm-up, or
    earlier in the pass) and holds at most 200 KB of them per field and 5
    fields, so neither bound is reached there.

A count takes blocks of as many trailing coordinates as fit; a point search
takes the last coordinate alone, so that it walks one fibre at a time.
Past the table limit, _fold yields per prefix each generator's coefficients
in the last coordinate; count_stratum_direct counts their common roots as
deg gcd(g_1, ..., g_m, t^p - t) (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14).

Both take each stratum's generators split by the one splitter, _split.  It
filters a query's (value, exps) rows, read once per query by
motivic.count: a lead stratum fixes only zeros and the lead's 1, so a term
survives when it has exponent 0 in every zero coordinate, its coefficient
unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

from ..fields import _mulmod, _remmod, _trim

# a block has at most this many candidates (lanes)
_BLOCK_LANES = 4096
# lane bits of monomial vectors kept per field (1 MiB); the cache is
# emptied when a new vector would pass it
_VECTOR_BITS = 8 << 20
# fields whose lane arithmetic and vectors are kept (_lanes)
_FIELDS = 8


def _split(rows, fixed, free_pos, nblock=1):
    """Every generator's terms split for the walk of a lead stratum, the
    last nblock free positions forming the block.

    rows holds each generator's (coeff, exps) pairs.  A lead stratum fixes
    each coordinate that is not free at 0 or 1 (count._strata), so a term
    survives exactly when its exponent is 0 in every coordinate fixed at 0,
    and its coefficient stays as it is.  No two survivors of a homogeneous
    generator share a monomial in the free coordinates.  Returns one
    (terms, slots) per generator: slots lists the exponent tuples over the
    block, and each term left is (coeff, factors, slot), factors being the
    (j, e) pairs of the prefix coordinates and slot its index in slots.
    With a block of one coordinate slots is every exponent up to the
    highest, so that a term's slot is its exponent.
    """
    free = set(free_pos)
    zeros = [i for i, v in enumerate(fixed) if not v and i not in free]
    cut = len(free_pos) - min(nblock, len(free_pos))
    outer = list(enumerate(free_pos[:cut]))
    block = free_pos[cut:]
    last = block[0] if len(block) == 1 else None
    out = []
    for terms in rows:
        kept = []
        index = {}
        width = 1
        for c, exps in terms:
            for i in zeros:
                if exps[i]:
                    break
            else:
                if last is None:
                    slot = index.setdefault(tuple([exps[i] for i in block]),
                                            len(index))
                else:
                    slot = exps[last]
                    if slot >= width:
                        width = slot + 1
                kept.append((c, tuple([(j, exps[i]) for j, i in outer
                                       if exps[i]]), slot))
        out.append((kept, list(index) if last is None
                    else [(e,) for e in range(width)]))
    return out


def _fold(spec, outer_start, gens):
    """(prefix, coefficient lists) for each prefix of a stratum, in odometer
    order.

    gens holds the stratum's generators split for the walk (_split) and
    outer_start the first values of its prefix coordinates; each list holds
    one generator's coefficients by slot.  Over F_p a term's value is an
    integer product, reduced mod p once per coefficient; over F_{p^m} the
    values combine through the spec's _mul, _add and _pow.  A stratum with
    no prefix coordinate is one prefix.
    """
    q = spec.order
    mul, add, power = _arith(spec)
    prime = spec.kind == "Fp"
    for pre in product(*(range(s, q) for s in outer_start)):
        lists = []
        for terms, slots in gens:
            coeffs = [0] * len(slots)
            if prime:
                for v, factors, slot in terms:
                    for j, e in factors:
                        v *= pre[j] ** e
                    coeffs[slot] += v
                coeffs = [c % q for c in coeffs]
            else:
                for v, factors, slot in terms:
                    for j, e in factors:
                        v = mul(v, power(pre[j], e))
                    coeffs[slot] = add(coeffs[slot], v)
            lists.append(coeffs)
        yield pre, lists


def _arith(spec):
    """(mul, add, power) on the values of a finite field: ints mod p over
    F_p, the spec's _mul, _add and _pow over F_{p^m}."""
    if spec.kind != "Fp":
        return spec._mul, spec._add, spec._pow
    p = spec.p
    return (lambda a, b: a * b % p, lambda a, b: (a + b) % p,
            lambda a, e: pow(a, e, p))


def _block_size(q, free_start):
    """How many trailing free coordinates a count's block takes: as many as
    keep it within _BLOCK_LANES candidates."""
    lanes, k = 1, 0
    for s in reversed(free_start):
        lanes *= q - s
        if lanes > _BLOCK_LANES:
            break
        k += 1
    return k


class _Lanes:
    """The lane arithmetic of one field with q <= _TABLE_LIMIT.

    With b the bit length of p - 1, a lane is width = 4b + 8 bits and a
    vector sums up to chunk products below (p - 1)^2 on top of a residue,
    staying below 2^(2b + 3) = 2^(shift - b).  Then magic = ceil(2^shift /
    p) gives floor(v / p) = (v * magic) >> shift for every such v, and
    v * magic < 2^width, so a reduction is exact lane by lane.  Every
    F_{p^m} up to _TABLE_LIMIT has chunk >= m (the least, 9 for p = 31,
    m = 2), so the m products of one constant fit between reductions.
    """

    def __init__(self, spec):
        p, m = spec.p, spec.m
        self.spec, self.p, self.m, self.q = spec, p, m, spec.order
        b = (p - 1).bit_length()
        self.width = 4 * b + 8
        self.chunk = ((1 << 2 * b + 3) - p) // (p - 1) ** 2
        self.shift = 3 * b + 3
        self.magic = -(-(1 << self.shift) // p)
        self.power = _arith(spec)[2]
        self.unit = (1,) + (0,) * (m - 1)
        self.vectors = {}
        self.held = 0
        self._masks = {}
        self._matrices = [None] * self.q

    def masks(self, lanes):
        """(msb, qmask) for a vector of that many lanes: the top bit of
        every lane, and the bits of each lane a quotient may take."""
        out = self._masks.get(lanes)
        if out is None:
            w = self.width
            ones = ((1 << w * lanes) - 1) // ((1 << w) - 1)
            out = self._masks[lanes] = (
                ones << w - 1, ones * ((1 << w - self.shift) - 1))
        return out

    def reduce(self, x, qmask):
        """x mod p on every lane."""
        return x - (x * self.magic >> self.shift & qmask) * self.p

    def matrix(self, c):
        """The m x m matrix over F_p of x -> c * x, as rows: entry [i][j]
        is digit i of c * t^j."""
        mat = self._matrices[c]
        if mat is None:
            spec, p = self.spec, self.p
            if self.m == 1:
                mat = ((c,),)
            else:
                mat = tuple(zip(*[spec._digits(spec._mul(c, p ** j))
                                  for j in range(self.m)]))
            self._matrices[c] = mat
        return mat

    def vector(self, starts, exps):
        """The planes of the monomial prod(y_i^exps[i]) over the block whose
        coordinates y_i run over range(starts[i], q), in odometer order:
        the first coordinate's powers Kronecker the rest's vector."""
        if not starts:
            return self.unit
        key = (starts, exps)
        vec = self.vectors.get(key)
        if vec is None:
            q, power, e = self.q, self.power, exps[0]
            lanes = prod(q - s for s in starts[1:])
            vec = self._kron([power(x, e) for x in range(starts[0], q)],
                             self.vector(starts[1:], exps[1:]), lanes)
            bits = (q - starts[0]) * lanes * self.width * self.m
            if self.held + bits > _VECTOR_BITS:
                self.vectors.clear()
                self.held = 0
            self.vectors[key] = vec
            self.held += bits
        return vec

    def _kron(self, values, planes, lanes):
        """values (x) planes: lane k * lanes + i holds values[k] times lane
        i of planes.  Each distinct value scales the planes once (over
        F_{p^m} through its matrix), and the scaled copies are concatenated
        plane by plane and reduced once; over one lane of F_p they are the
        values themselves."""
        step = lanes * self.width
        if self.m == 1:
            if lanes == 1:
                return (_concat(values, step),)
            plane = planes[0]
            scaled = {v: [v * plane] for v in set(values)}
        else:
            scaled = {v: [sum([a * plane for a, plane in zip(row, planes)
                               if a and plane]) for row in self.matrix(v)]
                      for v in set(values)}
        qmask = self.masks(lanes * len(values))[1]
        return tuple(self.reduce(_concat([scaled[v][i] for v in values],
                                         step), qmask)
                     for i in range(self.m))


def _concat(items, step):
    """sum(x << k * step for k, x in enumerate(items)), pairing neighbours
    level by level so that each level touches every bit once."""
    while len(items) > 1:
        if len(items) % 2:
            items.append(0)
        items = [a + (b << step) for a, b in zip(items[::2], items[1::2])]
        step *= 2
    return items[0]


_lanes = lru_cache(maxsize=_FIELDS)(_Lanes)


def _zeros(lanes, coeffs, vectors, masks):
    """The zero lanes of sum(coeffs[k] * vectors[k]) as the top bit of each
    lane, masks being lanes.masks of the vectors' lane count.  A lane is
    reduced before a product would pass lanes.chunk since the last
    reduction; over F_{p^m} a constant adds up to m products to a plane.
    A factor 1 adds the vector itself: CPython multiplies a big int by 1
    at about twice the cost of an addition."""
    msb, qmask = masks
    m, chunk, reduce = lanes.m, lanes.chunk, lanes.reduce
    k = 0
    if m == 1:
        acc = 0
        for c, (vec,) in zip(coeffs, vectors):
            if c:
                if k == chunk:
                    acc, k = reduce(acc, qmask), 0
                acc += vec if c == 1 else c * vec
                k += 1
        return (msb - (reduce(acc, qmask) if k else acc)) & msb
    accs = [0] * m
    for c, planes in zip(coeffs, vectors):
        if c:
            if k + m > chunk:
                accs, k = [reduce(a, qmask) for a in accs], 0
            for i, row in enumerate(lanes.matrix(c)):
                acc = accs[i]
                for a, plane in zip(row, planes):
                    if a and plane:
                        acc += plane if a == 1 else a * plane
                accs[i] = acc
            k += m
    r = 0
    for acc in accs:
        r |= reduce(acc, qmask) if k else acc
    return (msb - r) & msb


def _blocks(lanes, gens, outer_start, starts, union):
    """(prefix, zero lanes) for each prefix of a stratum in odometer order,
    gens being its generators split for the walk (_split), outer_start the
    first values of its prefix coordinates and starts those of its block.

    The zero lanes are the AND of the generators' (_zeros), with union=1
    their OR; the AND stops once empty and the OR once full.
    """
    masks = lanes.masks(prod(lanes.q - s for s in starts))
    msb = masks[0]
    vecs = [[lanes.vector(starts, key) for key in slots] for _, slots in gens]
    for pre, lists in _fold(lanes.spec, outer_start, gens):
        common = 0 if union else msb
        for coeffs, vectors in zip(lists, vecs):
            zeros = _zeros(lanes, coeffs, vectors, masks)
            if union:
                common |= zeros
                if common == msb:
                    break
            else:
                common &= zeros
                if not common:
                    break
        yield pre, common


def count_stratum(lanes, rows, fixed, free_pos, free_start, union):
    """The points of one lead stratum, its block as many trailing free
    coordinates as _block_size allows."""
    cut = len(free_start) - _block_size(lanes.q, free_start)
    gens = _split(rows, fixed, free_pos, len(free_pos) - cut)
    return sum([common.bit_count() for _, common in _blocks(
        lanes, gens, free_start[:cut], tuple(free_start[cut:]), union)])


# ---------------------------------------------------------------------------
# fields too large to tabulate: polynomials mod p with the helpers of
# motivic.fields

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


def count_stratum_direct(spec, free_start, gens, union):
    """Stratum counter for primes too large to tabulate: ints mod p.

    gens holds the stratum's generators split for the walk (_split, a
    block of the last free coordinate), with coefficients as ints mod p,
    and free_start the first values of its free positions, each running up
    to p - 1.  A fibre's points are the common roots of the generators'
    restrictions (_fold), or with union=1 the roots of their product, the
    whole fibre when one restriction is zero.
    """
    p = spec.p
    start = free_start[-1] if free_start else 0
    size = p - start if free_start else 1
    count = 0
    for _, lists in _fold(spec, free_start[:-1], gens):
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
