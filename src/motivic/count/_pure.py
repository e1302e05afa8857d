"""The counting kernel, in plain Python.

Nothing here visits candidates one by one.  A block of at most
_BLOCK_LANES candidates is evaluated at once: for each value of the free
coordinates outside it (a prefix, run as an odometer) every generator
becomes sum(c_slot * M_slot) over its monomials (slots), M_slot being the
monomial's value at each candidate of the block packed into the
fixed-width lanes of one Python int (SWAR; Lamport, "Multiple byte
processing with full-word instructions", CACM 1975), so that a product and
a sum over the whole block are one big-int operation each.  _Lanes holds
that arithmetic for one field:

  * A lane is `width` bits, which depends on p alone.  A lane holds a
    residue mod p between reductions up to `chunk` products c * m with
    c, m < p; a reduction is a multiply-shift by the magic number of p
    (Granlund and Montgomery, "Division by invariant integers using
    multiplication", PLDI 1994), exact on every lane at once, and the lane
    is wide enough that neither the sum nor the multiply spills into the
    next lane.
  * The zero lanes of a reduced vector r are (msb - r) & msb, msb holding
    the top bit of every lane; a count ANDs them across generators (ORs
    them for a union; _combine) and takes their popcount, a point search
    lists them in ascending order (_positions).
  * F_{p^m} runs as m digit planes, one vector per base-p digit of the
    values, and a constant c acts on them as its m x m matrix over F_p
    (the matrix of x -> c * x on the basis 1, t, ..., t^(m-1)).
  * A monomial vector over an affine block, each coordinate running from
    its start to q - 1, is the Kronecker product of one coordinate's
    powers with the vector of the rest; over a projective block, the
    canonical points of its coordinates in walk order, it is concatenated
    from those.  Both are kept across queries, at most _VECTOR_BITS bits
    of them per field and _FIELDS fields.

Each query's lead strata are planned once (_plan), the one place that
reads a chart, and the plan names its kernel.  "kept": over a small P^n
motivic.count evaluates each form once (_zeros) on the projective
vectors of the whole space and keeps its zero lanes on the form, the
coordinate forms of a chart included.
"lanes": the terms are split once for the plan (_split); its first
strata walk affine blocks under a prefix odometer, and its last ones, all
of a query of at most _BLOCK_LANES candidates, form one projective block;
a point search takes the last coordinate alone as its block, one fibre at
a time.  "fibres", past the table limit: _fold yields per prefix each
generator's coefficients in the last coordinate; count_direct counts
their common roots as deg gcd(g_1, ..., g_m, t^p - t) (von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 14).
Values combine through the spec's value operations (motivic.fields)
everywhere but in the lanes and in _fold's F_p branch, which sum
residues unreduced and reduce once per result.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import prod

from ..fields import _TABLE_LIMIT, _mulmod, _remmod, _trim

# a block has at most this many candidates (lanes)
_BLOCK_LANES = 4096
# the most points of a P^n whose kept lanes a search with no chart reads:
# past it a fibre walk, which may stop early, costs less
_SEARCH_LANES = 1024
# bits of monomial vectors kept per field (1 MiB); the cache is emptied
# when a new vector would pass it
_VECTOR_BITS = 8 << 20
# fields whose lane arithmetic and vectors are kept (_lanes)
_FIELDS = 8
# plans kept (_plan); a perfbench workload meets at most 27 per process
_PLANS = 64


_Plan = namedtuple("_Plan", "kernel free starts cost strata t z block")


@lru_cache(maxsize=_PLANS)
def _plan(q, n, chart, search):
    """The _Plan of the lead strata of P^n(F_q) under chart (lead
    coordinate = 1, earlier ones 0) for a count, or with search a point
    search, kept across queries since most queries of a run share them.

    kernel is "kept" (motivic.count._common) for a count over a tabulated
    P^n of at most _BLOCK_LANES points or a search with no chart over one
    of at most _SEARCH_LANES, "lanes" over other tabulated fields and
    "fibres" (_fold) past the table limit.  A tabulated count is planned
    in blocks of at most limit = _BLOCK_LANES candidates, all else in one.

    free lists the coordinates not charted zero, starts[i] is the first
    value of coordinate i (1 when charted nonzero, else 0) and cost the
    candidates of the strata.  A lead past a coordinate charted nonzero
    would set it to 0, so the leads stop there.  The strata led by
    free[:t] are walked one at a time, an odometer over the prefix
    coordinates before free[z:], the last free coordinates that fit in one
    affine block (at least one).  Those led by free[t:] hold at most limit
    candidates and form one projective block, the tail, over free[z:] too,
    z being 0 when it is the whole query.  strata lists (lead, prefix,
    lanes) of each block, the tail last, and block the starts of free[z:].
    """
    kept = (0 if chart else _SEARCH_LANES) if search else _BLOCK_LANES
    kernel = ("fibres" if q > _TABLE_LIMIT
              else "kept" if _space(q, n) <= kept else "lanes")
    limit = 1 if search or kernel == "fibres" else _BLOCK_LANES
    chart = dict(chart)
    free = tuple([i for i in range(n + 1) if chart.get(i) != "zero"])
    starts = tuple([int(chart.get(i) == "nonzero") for i in range(n + 1)])
    sizes, lanes, z = [], 1, len(free)
    for i in reversed(free):
        if starts[i]:
            sizes.clear()  # no lead past a coordinate charted nonzero
        sizes.append(lanes)
        lanes *= q - starts[i]
        if lanes <= limit or z == len(free):
            z -= 1
    sizes.reverse()
    t, held = len(sizes), 0
    while t and held + sizes[t - 1] <= limit:
        t -= 1
        held += sizes[t]
    if 0 < t < min(len(sizes), z):
        # keep the tail inside the affine block, so one split serves both
        t += 1
    z = z if t else 0
    block = tuple([starts[i] for i in free[z:]])
    lanes = prod([q - s for s in block])
    strata = [(free[j], free[j + 1:z], lanes) for j in range(t)]
    if t < len(sizes):
        strata.append((free[t], (), sum(sizes[t:])))
    return _Plan(kernel, free, starts, sum(sizes), tuple(strata), t, z, block)


def _split(rows, plan):
    """Every generator's (coeff, exps) rows split once for the walk of a
    query's plan (_plan).

    A term with a positive exponent in a coordinate charted zero is
    dropped.  Returns one (terms, slots) per generator, each term (low,
    coeff, factors, slot): factors are its (j, exponent) pairs for the
    coordinates free[j] before the slot coordinates, low the first j (or
    len(starts)), and slot indexes in slots its exponents over the slot
    coordinates, as a tuple.  Stratum j of the plan, led by free[j], sets
    the coordinates before free[j] to 0, so a term takes part in it, its
    coefficient unchanged, exactly when low >= j.  Terms whose exponents
    reduce to one monomial (count._rows) share a slot, and _fold adds them
    up.  With one slot coordinate a slot is that exponent itself, and
    slots every exponent up to the highest.
    """
    free, starts, z = plan.free, plan.starts, plan.z
    keys, outer = free[z:], tuple(enumerate(free[:z]))
    nv = len(starts)
    dead = [i for i in range(nv) if i not in free]
    last = keys[0] if len(keys) == 1 else None
    out = []
    for terms in rows:
        kept, index, width = [], {}, 1
        for c, exps in terms:
            for i in dead:
                if exps[i]:
                    break
            else:
                if last is None:
                    slot = index.setdefault(tuple([exps[i] for i in keys]),
                                            len(index))
                else:
                    slot = exps[last]
                    if slot >= width:
                        width = slot + 1
                factors = outer and tuple([(j, exps[i]) for j, i in outer
                                           if exps[i]])
                kept.append((factors[0][0] if factors else nv, c, factors,
                             slot))
        out.append((kept, list(index) if last is None
                    else [(e,) for e in range(width)]))
    return out


def _fold(spec, gens, plan, i):
    """(prefix, coefficient lists) for each prefix of stratum i of plan, in
    odometer order, each list one generator's coefficients by slot.

    A term of gens (_split) takes part when low >= i; its factors read 1 at
    the lead and the odometer's value at each prefix coordinate.  Over F_p
    a term's value is an integer product, reduced mod p once per
    coefficient; over F_{p^m} the values combine through the spec's _mul,
    _add and _pow.  A stratum with no prefix coordinate is one prefix."""
    q, starts, prefix = spec.order, plan.starts, plan.strata[i][1]
    mul, add, power = spec._mul, spec._add, spec._pow
    prime = spec.kind == "Fp"
    # the lead's factor, the first when low == i, is 1
    live = [([(v, factors[1:] if low == i else factors, slot)
              for low, v, factors, slot in terms if low >= i], len(slots))
            for terms, slots in gens]
    skip = (None,) * (i + 1)
    for pre in product(*[range(starts[j], q) for j in prefix]):
        # factor j reads the prefix value of free[j]
        vals = skip + pre
        lists = []
        for terms, width in live:
            coeffs = [0] * width
            if prime:
                for v, factors, slot in terms:
                    for j, e in factors:
                        v *= vals[j] ** e
                    coeffs[slot] += v
                coeffs = [c % q for c in coeffs]
            else:
                for v, factors, slot in terms:
                    for j, e in factors:
                        v = mul(v, power(vals[j], e))
                    coeffs[slot] = add(coeffs[slot], v)
            lists.append(coeffs)
        yield pre, lists


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
        self.power = spec._pow
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

    def vector(self, starts, exps, proj=False):
        """The planes of the monomial prod(y_i^exps[i]) over the block whose
        coordinates y_i run over range(starts[i], q), in odometer order:
        the first coordinate's powers Kronecker the rest's vector.  With
        proj, over the canonical points of the block in walk order instead:
        [y_0 = 1] x the affine vector of the rest, then, unless y_0 is
        charted nonzero (starts[0] = 1), [y_0 = 0] x the projective vector
        of the rest, whose lanes are zero when the monomial holds y_0."""
        if not starts:
            return self.unit
        if proj and (len(starts) == 1 or starts[0] or exps[0]):
            # no [y_0 = 0] part, or one of zero lanes: the affine vector
            return self.vector(starts[1:], exps[1:])
        key = (starts, exps, proj)
        vec = self.vectors.get(key)
        if vec is None:
            q, rest = self.q, self.vector(starts[1:], exps[1:])
            lanes = prod(q - s for s in starts[1:])
            if proj:
                vec = tuple([a + (b << lanes * self.width) for a, b in zip(
                    rest, self.vector(starts[1:], exps[1:], True))])
            else:
                vec = self._kron([self.power(x, exps[0])
                                  for x in range(starts[0], q)], rest, lanes)
            bits = sum([plane.bit_length() for plane in vec])
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


def _space(q, n):
    """#P^n(F_q), the lanes of a vector over the whole of P^n."""
    return (q ** (n + 1) - 1) // (q - 1)


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


def _blocks(lanes, gens, plan, i, union):
    """(prefix, zero lanes) for each prefix of stratum i of plan in
    odometer order (_fold).

    Every block is over the slot coordinates: a leading stratum's is
    affine, the tail's (i = t) projective.  The zero lanes are the AND of
    the generators' (_zeros), with union=1 their OR (_combine).
    """
    strata, t, block = plan.strata, plan.t, plan.block
    vecs = [[lanes.vector(block, key, i == t) for key in slots]
            for _, slots in gens]
    masks = lanes.masks(strata[i][2])
    for pre, lists in _fold(lanes.spec, gens, plan, i):
        yield pre, _combine((_zeros(lanes, coeffs, vectors, masks)
                             for coeffs, vectors in zip(lists, vecs)),
                            masks[0], union)


def _combine(zeros, msb, union):
    """The AND of the zero lanes that zeros yields, with union=1 their OR,
    msb holding the top bit of every lane.  The AND stops once empty and
    the OR once full, so the lanes left in zeros are never computed."""
    common = 0 if union else msb
    for bits in zeros:
        if union:
            common |= bits
            if common == msb:
                break
        else:
            common &= bits
            if not common:
                break
    return common


def _positions(bits, width):
    """The indices of the set lanes of bits, lanes of width bits each, in
    ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() // width - 1
        bits ^= low


def count_lanes(lanes, gens, plan, union):
    """The points of a query over a tabulated field: the zero lanes of
    every block of its plan (_blocks), popcounted."""
    return sum([common.bit_count() for i in range(len(plan.strata))
                for _, common in _blocks(lanes, gens, plan, i, union)])


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


def count_direct(spec, gens, plan, union):
    """The points of a query over a prime too large to tabulate, planned
    with blocks of one candidate (_plan): the last free coordinate is
    each fibre, and the tail the one point where it is the lead.  A fibre's
    points are the common roots of the generators' restrictions (_fold), or
    with union=1 the roots of their product, the whole fibre when one
    restriction is zero; the tail's are their values at 1.
    """
    free, starts, strata = plan.free, plan.starts, plan.strata
    p, last = spec.p, free[-1]
    count = 0
    for i, (lead, _, size) in enumerate(strata):
        for _, lists in _fold(spec, gens, plan, i):
            if lead == last:
                lists = [[sum(coeffs) % p] for coeffs in lists]
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
                count += _roots_mod(g, p) - (1 if starts[last] and not g[0]
                                             else 0)
    return count
