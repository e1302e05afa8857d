"""Exact point counting over finite fields.

The unit of work is a CountQuery: a list of homogeneous generators over
F_q together with optional chart constraints (coordinate = 0 / != 0), counted
on the canonical representatives of P^n.  CountQuery.union asks instead for
the points where some of its factors vanishes, V(f_1 * ... * f_d), and the
kernels count it factor by factor, never from the expanded product.
Counting splits a query into lead strata (lead coordinate = 1, earlier
coordinates 0), each an independent unit a kernel can chew through;
together they hold the points enumerate_points yields.

Across calls only tables are kept: the add and mul tables per field (over
F_{p^m} their products come from the spec's own index log and exp, which
motivic.fields builds once per spec and element arithmetic shares), and
per table and degree the power table and the x_mid power columns and the
closed-form root tables of _pure.  Within a call a query is planned once:
its generators' terms are read as (value, exps) rows once (_rows), every
lead stratum is derived from them by filtering (_pure._split), and one walk
serves all the strata with one memo of root masks.  Equal queries count
the same, so the CLI keeps one memo of counts per job (kclass.count_once)
and counts each distinct query of a job once.

Arithmetic inside the hot loop is table-driven: an element's value is
already its index 0..q-1 (0 -> 0, 1 -> 1), and add/mul/pow become flat
lookup tables, so the same kernel code serves prime and extension fields.
Two kernels keep one count contract, the count_stratum of _pure, and share
nothing else; its union flag switches the point test from "every generator
vanishes" to "some generator vanishes".  motivic.count._ckernel,
hand-written C built at install time when a C compiler is available, tests
every candidate of the stratum; the import below picks it when it is built
and _pure otherwise.  Everything else walks fibres over the last free
coordinate, in two loops of _pure: the tabulated walk _pure._walker, which
count_points, _pure.count_stratum and the point searches (_points) take,
and past the table limit (q > _TABLE_LIMIT) the modular fold _pure._fold,
which _pure.count_stratum_direct and _points take.  A count reads a fibre's
points off its root masks, or counts them as the degree of a gcd with
t^p - t, a union's from the product of its factors' restrictions.
enumerate_points and _first_point take one fibre at a time and list its
points in ascending order.  The tests check kernels and searches against a
brute-force walk of their own.

A count or a full enumerate_points walk over more candidates than the
budget (MOTIVIC_BUDGET, default 10^8) raises BudgetError before it starts
instead of hanging; CountQuery.cost() is that number of candidates, those
of the lead strata, #P^n(F_q) or fewer under a chart.  _first_point, the
finite-field half of points.first_point through which every engine finds
its first rational point, charges only the candidates it walks, so a point
found early passes under any budget.  A MOTIVIC_BUDGET or MOTIVIC_WORKERS
that is not an integer, a negative MOTIVIC_BUDGET and a MOTIVIC_WORKERS
below 1 raise ValueError.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from math import prod

from ..fields import _TABLE_LIMIT, FieldElem, FieldSpec
from ..poly import HomogPoly

from . import _pure

try:  # pragma: no cover - exercised only when the extension is built
    from . import _ckernel
except ImportError:  # pragma: no cover
    _ckernel = None

HAVE_COMPILED = _ckernel is not None

_DEFAULT_BUDGET = 10**8


class BudgetError(ValueError):
    """The requested count would exceed the enumeration budget."""


def _env_int(name: str, default: int, minimum: int) -> int:
    """The integer environment knob `name`, at least `minimum`, or
    `default` when it is unset."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, raw)) from None
    if value < minimum:
        raise ValueError("%s must be at least %d, got %d"
                         % (name, minimum, value))
    return value


def default_budget() -> int:
    return _env_int("MOTIVIC_BUDGET", _DEFAULT_BUDGET, 0)


class CountQuery:
    """Point count of V(generators) inside P^n over a finite field.

    chart is a tuple of (index, kind) with kind "zero" or "nonzero",
    restricting to the locus where that homogeneous coordinate vanishes or
    not.  Zero generators are dropped; an empty generator list means all of
    P^n (restricted to the chart).

    CountQuery.union(spec, n, factors) is V(f_1 * ... * f_d), the points
    where some factor vanishes.  Counts and point searches take it factor
    by factor and never see the product; its generators, the expanded
    product, are built on first use and kept.  describe() and repr() never
    expand a union: they print the product from its packed codes
    (HomogPoly.product_text).  Two unions are equal when their
    factors agree up to order, repetition and nonzero scalars; a union query
    and the ordinary query of its product count the same but are not equal.
    Equal queries count the same, so a caller may memoise counts on them; the
    canonical key behind __eq__ and __hash__ and the describe() dict are
    each built once per query.
    """

    __slots__ = ("spec", "n", "chart", "factors", "_generators", "_key",
                 "_described")

    def __init__(self, spec: FieldSpec, n: int, generators=(), chart=()):
        self._setup(spec, n, chart)
        self._generators = tuple(
            g for g in self._checked(generators) if not g.is_zero())
        self.factors = None

    @classmethod
    def union(cls, spec: FieldSpec, n: int, factors, chart=()) -> "CountQuery":
        """The points of P^n (within chart) where some factor vanishes."""
        query = object.__new__(cls)
        query._setup(spec, n, chart)
        query.factors = tuple(query._checked(factors))
        if not query.factors:
            raise ValueError("a union needs at least one factor")
        query._generators = None
        return query

    def _setup(self, spec, n, chart):
        if not spec.is_finite:
            raise ValueError("counting needs a finite field, got %s" % spec)
        if n < 0:
            raise ValueError("bad ambient dimension")
        self.spec = spec
        self.n = int(n)
        self._key = None
        self._described = None
        ch = []
        seen = set()
        for idx, kind in chart:
            idx = int(idx)
            if not 0 <= idx <= n:
                raise ValueError("chart index out of range")
            if kind not in ("zero", "nonzero"):
                raise ValueError("chart kind must be 'zero' or 'nonzero'")
            if idx in seen:
                raise ValueError("duplicate chart constraint on x%d" % idx)
            seen.add(idx)
            ch.append((idx, kind))
        ch.sort()
        self.chart = tuple(ch)

    def _checked(self, polys):
        for g in polys:
            if not isinstance(g, HomogPoly):
                raise ValueError("generators must be homogeneous polynomials")
            if g.spec != self.spec or g.nvars != self.n + 1:
                raise ValueError("generator does not live in P^%d over %s"
                                 % (self.n, self.spec))
            yield g

    @property
    def generators(self):
        """The generators; for a union, its expanded product (or none when
        a factor is zero)."""
        if self._generators is None:
            product = HomogPoly.product(self.factors)
            self._generators = () if product.is_zero() else (product,)
        return self._generators

    def _kernel_polys(self):
        """(polynomials, union flag) as the kernels count them."""
        if self.factors is None:
            return self._generators, 0
        return self.factors, 1

    def cost(self) -> int:
        """The number of candidates in the query's lead strata (_strata):
        what a count or a full enumerate_points walk visits, #P^n(F_q) or
        fewer under a chart."""
        return _cost(self.spec.order, _strata(self))

    def describe(self):
        """The query's report dict, built on the first call; callers share
        it and must not change it."""
        if self._described is not None:
            return self._described
        if self.factors is None:
            gens = [str(g) for g in self._generators]
        elif any(f.is_zero() for f in self.factors):
            gens = []
        else:
            gens = [HomogPoly.product_text(self.factors)]
        d = self._described = {
            "field": self.spec.describe(),
            "ambient": self.n,
            "generators": gens,
        }
        if self.chart:
            d["chart"] = [[i, kind] for i, kind in self.chart]
        return d

    def _canonical(self):
        if self._key is None:
            if self.factors is None:
                polys = tuple(g.canonical_key() for g in self._generators)
            else:
                # the union is the same for any order, repetition or
                # nonzero scaling of its factors
                polys = frozenset(
                    (f if f.is_zero() else f.monic()).canonical_key()
                    for f in self.factors)
            self._key = (self.spec, self.n, self.chart, polys)
        return self._key

    def __eq__(self, other):
        return (isinstance(other, CountQuery)
                and self._canonical() == other._canonical())

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        body = "; ".join(self.describe()["generators"]) or "0"
        extra = ""
        if self.chart:
            extra = " | " + ", ".join(
                "x%d%s" % (i, "=0" if k == "zero" else "!=0") for i, k in self.chart
            )
        return "#V(%s) in P^%d(F%d)%s" % (body, self.n, self.spec.order, extra)


# ---------------------------------------------------------------------------
# table construction (cached per field)

_table_cache: dict[FieldSpec, tuple] = {}


def _field_tables(spec: FieldSpec):
    """The flat (add, mul) tables of the kernels, over element indices."""
    cached = _table_cache.get(spec)
    if cached is not None:
        return cached
    out = (array("i", _add_table(spec.p, spec.m)), array("i", _mul_table(spec)))
    _table_cache[spec] = out
    return out


def _add_table(p, m):
    """Flat p^m x p^m table of index sums.

    An element's index is sum(c_k * p^k) over its coefficients c_k, so a
    sum adds base-p digits mod p.  The table grows one digit at a time: with
    a new top digit d, (a + size*d1) + (b + size*d2) is
    (a + b) + size*((d1 + d2) % p).
    """
    table = [(i + j) % p for i in range(p) for j in range(p)]
    size = p
    for _ in range(m - 1):
        grown = []
        for d1 in range(p):
            for a in range(size):
                row = table[a * size:(a + 1) * size]
                for d2 in range(p):
                    shift = size * ((d1 + d2) % p)
                    grown.extend([x + shift for x in row])
        table, size = grown, size * p
    return table


def _mul_table(spec):
    """Flat q x q table of index products.

    Over F_p an index is the residue.  Over F_{p^m} the products go through
    the spec's index log and exp: a*b = g^(log a + log b).
    """
    q = spec.order
    if spec.kind == "Fp":
        return [(i * j) % q for i in range(q) for j in range(q)]
    log, exp = spec._index_tables()[:2]
    table = [0] * q
    for i in range(1, q):
        li = log[i]
        table.append(0)
        table.extend([exp[li + log[j]] for j in range(1, q)])
    return table


def _rows(polys):
    """Each polynomial's terms as (value, exps) rows: the one read of a
    query's generators that a count or a point search makes; _pure._split
    derives every lead stratum from these rows."""
    return [[(c.value, exps) for exps, c in g.terms.items()] for g in polys]


def _encode_generators(polys):
    """Flatten polynomial terms into (offsets, coeff indices, exponent
    rows, highest exponent), the buffers of the compiled kernel."""
    offs = array("i", [0])
    coeffs = array("i", [])
    exps = array("i", [])
    maxd = 1
    for g in polys:
        for exps_t, c in g.sorted_terms():
            coeffs.append(c.value)
            exps.extend(exps_t)
            maxd = max(maxd, max(exps_t))
        offs.append(len(coeffs))
    return offs, coeffs, exps, maxd


# ---------------------------------------------------------------------------
# stratum planning

def _strata(query: CountQuery):
    """Yield per-lead work items (fixed, free_pos, free_start), as lists.

    fixed is the value-index vector with lead set to 1 and the earlier and
    zero-constrained coordinates set to 0; free positions carry their start
    index (1 when constrained nonzero, else 0).  A stratum emptied by the
    chart yields nothing.
    """
    n = query.n
    zero = {i for i, kind in query.chart if kind == "zero"}
    nonzero = {i for i, kind in query.chart if kind == "nonzero"}
    # a lead past a coordinate constrained nonzero would set it to 0
    for lead in range(min(nonzero, default=n) + 1):
        if lead in zero:
            continue
        fixed = [0] * (n + 1)
        fixed[lead] = 1
        free_pos = [i for i in range(lead + 1, n + 1) if i not in zero]
        free_start = [int(i in nonzero) for i in free_pos]
        yield fixed, free_pos, free_start


def _cost(q, jobs):
    """The candidates of the strata jobs (_strata): CountQuery.cost()."""
    return sum(prod(q - s for s in free_start) for _, _, free_start in jobs)


# ---------------------------------------------------------------------------
# public API

def count_points(query: CountQuery, budget: int | None = None) -> int:
    """Number of F_q-points of the query, counted stratum by stratum.

    The pure kernel plans the query once: it reads the generators' terms
    once (_rows), derives each lead stratum from them by filtering
    (_pure._split) and counts every stratum with one walker, whose memo of
    root masks the strata share.  The compiled kernel takes each stratum
    as array('i') buffers through the count_stratum contract.  Primes past
    the table limit count each stratum with _pure.count_stratum_direct, a
    union from its factors.
    """
    budget = default_budget() if budget is None else budget
    q = query.spec.order
    jobs = list(_strata(query))
    cost = _cost(q, jobs)
    if cost > budget:
        raise BudgetError(
            "counting %r needs %d candidates, budget is %d"
            % (query, cost, budget)
        )
    if q > _TABLE_LIMIT and query.spec.kind != "Fp":
        raise BudgetError(
            "extension field of order %d is too large to tabulate" % q
        )
    # read on every path, so that a bad knob is an error everywhere
    workers = _env_int("MOTIVIC_WORKERS", 1, 1)
    polys, union = query._kernel_polys()
    if not polys:
        # every candidate is a common zero of no generators
        return cost
    if q > _TABLE_LIMIT:
        rows = _rows(polys)
        return sum(_pure.count_stratum_direct(
            q, free_start, _pure._split(rows, fixed, free_pos), union)
            for fixed, free_pos, free_start in jobs)

    add, mul = _field_tables(query.spec)
    if _ckernel is None:
        rows = _rows(polys)
        maxd = max([1] + [g.degree for g in polys])
        powt, columns = _pure._pow_table(q, mul, maxd)
        walk = _pure._walker(q, mul, add, powt, maxd + 1, union, columns)
        return sum(_pure._count(walk, _pure._split(rows, fixed, free_pos),
                                free_start, q, union)
                   for fixed, free_pos, free_start in jobs)

    nvars = query.n + 1
    offs, coeffs, exps, maxd = _encode_generators(polys)
    powt = _pure._pow_table(q, mul, maxd)[0]
    jobs = [[array("i", v) for v in job] for job in jobs]

    def run(job):
        fixed, free_pos, free_start = job
        return _ckernel.count_stratum(
            q, nvars, fixed, free_pos, free_start,
            len(polys), offs, coeffs, exps, mul, add, powt, maxd, union,
        )

    if workers > 1 and len(jobs) > 1:
        # the compiled kernel drops the GIL, so threads actually help; more
        # threads than cores or strata would only wait
        workers = min(workers, os.cpu_count() or 1, len(jobs))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(run, jobs))
    return sum(run(job) for job in jobs)


def enumerate_points(query: CountQuery, budget: int | None = None):
    """Yield the points of the query as coordinate tuples, canonical order.

    The points come from _points, the kernels' fibre walk over the lead
    strata of _strata, in the canonical order of motivic.points (that of
    projective_reps in the tests' conftest); field elements are built only
    for the points yielded.  The whole walk is
    charged against budget up front.
    """
    budget = default_budget() if budget is None else budget
    cost = query.cost()
    if cost > budget:
        raise BudgetError(
            "enumerating %r needs %d candidates, budget is %d"
            % (query, cost, budget)
        )
    yield from _points(query, budget)


def _first_point(query: CountQuery, budget: int | None = None):
    """First point of the query in enumerate_points order, or None.

    Only the candidates walked are charged: a point found early is returned
    under any budget, and BudgetError is raised once the walk passes budget
    candidates without a point.
    """
    budget = default_budget() if budget is None else budget
    return next(_points(query, budget), None)


def _points(query: CountQuery, budget: int):
    """The points of the query in canonical order, fibre by fibre.

    The generators' terms are read once (_rows) and each lead stratum's
    split is filtered from them (_pure._split).  Fields the kernels
    tabulate take the walk of _pure._walker with one fibre per prefix,
    every free coordinate but the last being outer, so a search that stops
    early walks no further: a fibre's points are the set bits of its mask
    in ascending order (for a union, those of its complement within the
    fibre).  Larger fields take the fold of _pure._fold and test the values
    of each fibre in order.  A candidate's walk position is its place among
    the candidates of the strata: a point at position k is yielded when
    k <= budget, and BudgetError is raised once the walk passes budget
    candidates.
    """
    spec = query.spec
    q = spec.order
    polys, union = query._kernel_polys()
    rows = _rows(polys)
    if q <= _TABLE_LIMIT:
        add, mul = _field_tables(spec)
        maxd = max([1] + [g.degree for g in polys])
        powt, columns = _pure._pow_table(q, mul, maxd)
        walk = _pure._walker(q, mul, add, powt, maxd + 1, union, columns)

        def fibres(gens, free_start):
            return walk(gens, free_start, False)

        def points_in(masks, start, stop):
            window = ((1 << stop) - 1) >> start << start
            bits = masks[0] & window
            if union:
                # the mask of a union holds the fibre's non-points
                bits ^= window
            while bits:
                low = bits & -bits
                yield low.bit_length() - 1
                bits ^= low
    else:
        if spec.kind == "Fp":
            mul, add, power = _pure._modp(q)
        else:
            mul, add, power = spec._mul, spec._add, spec._pow
        test = any if union else all

        def fibres(gens, free_start):
            return _pure._fold(q, free_start, gens, mul, add, power)

        def vanishes(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = add(mul(acc, x), c)
            return not acc

        def points_in(lists, start, stop):
            for x in range(start, stop):
                if test(vanishes(coeffs, x) for coeffs in lists):
                    yield x

    def over_budget():
        return BudgetError(
            "no point of %r among the first %d candidates, budget is %d"
            % (query, budget, budget))

    walked = 0
    for fixed, free_pos, free_start in _strata(query):
        gens = _pure._split(rows, fixed, free_pos)
        idx = list(fixed)
        # with no free position the one candidate, fixed, is a fibre of one
        # value
        start, end = (free_start[-1], q) if free_pos else (0, 1)
        for pre, fibre in fibres(gens, free_start):
            if walked == budget:
                raise over_budget()
            stop = min(end, start + budget - walked)
            for x in points_in(fibre, start, stop):
                for pos, v in zip(free_pos, pre + (x,)):
                    idx[pos] = v
                yield tuple([FieldElem(spec, v) for v in idx])
            walked += stop - start
            if stop < end:
                raise over_budget()
