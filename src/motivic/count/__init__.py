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
closed-form root tables of _pure.  Within a call the pure kernel plans the
query once: it reads the generators' terms as (value, exps) rows once
(_rows) and derives every lead stratum from them by filtering
(_pure._split), since a stratum fixes only zeros and its lead's 1, and one
walker (_pure._walker) counts all the strata with one memo of root masks
that lives for the query.  enumerate_points and the big-prime path take
the same filtered split.  Equal queries count the same, so the CLI keeps
one memo of counts per job (kclass.count_once) and counts each distinct
query of a job once.
enumerate_points and _first_point list points with the fibre walk of the
pure kernel taken one prefix at a time (_points): the common roots of each
fibre, in ascending order, are the points over its prefix.  The tests
check kernels and searches against a brute-force walk of their own.

Arithmetic inside the hot loop is table-driven: an element's value is
already its index 0..q-1 (0 -> 0, 1 -> 1), and add/mul/pow become flat
lookup tables, so the same kernel code serves prime and extension fields.
Two kernels keep one count contract, the count_stratum of _pure, and share
nothing else; its union flag switches the point test from "every generator
vanishes" to "some generator vanishes".  motivic.count._ckernel,
hand-written C built at install time when a C compiler is available, tests
every candidate of the stratum.  _pure, plain Python, walks the fibres over
the last free coordinate and counts roots of univariate polynomials there,
on two levels: once per outer prefix (every free coordinate but the last
two) it folds that prefix into each generator, and one pass over the
middle coordinate then yields the fibre coefficients at all its values,
one product and one sum per monomial in the last two.  It solves a fibre of
degree 1 or 2 in closed form (-c0/c1, or the quadratic formula, with the
negation, square roots and inverses read off the tables) and evaluates one
of higher degree at every value.  The import below picks the compiled one
when it is built and _pure otherwise.
Primes too large to tabulate (q > _TABLE_LIMIT) take a separate direct-mod
path, which counts those roots as the degree of a gcd with t^p - t; it
counts a union from its expanded product.

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
    where some factor vanishes.  The kernels count it factor by factor and
    never see the product; its generators, the expanded product that
    enumerate_points and the big-prime path read, are built on first use and
    kept.  describe() never expands a union: it prints the product from its
    packed codes (HomogPoly.product_text).  Two unions are equal when their
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
        q = self.spec.order
        return sum(prod(q - s for s in free_start)
                   for _, _, free_start in _strata(self))

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
        body = "; ".join(str(g) for g in self.generators) or "0"
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


# ---------------------------------------------------------------------------
# public API

def count_points(query: CountQuery, budget: int | None = None) -> int:
    """Number of F_q-points of the query, counted stratum by stratum.

    The pure kernel plans the query once: it reads the generators' terms
    once (_rows), derives each lead stratum from them by filtering
    (_pure._split) and counts every stratum with one walker, whose memo of
    root masks the strata share.  The compiled kernel takes each stratum
    as array('i') buffers through the count_stratum contract.
    """
    budget = default_budget() if budget is None else budget
    q = query.spec.order
    jobs = list(_strata(query))
    cost = sum(prod(q - s for s in free_start) for _, _, free_start in jobs)
    if cost > budget:
        raise BudgetError(
            "counting %r needs %d candidates, budget is %d"
            % (query, cost, budget)
        )
    if q > _TABLE_LIMIT:
        if query.spec.kind != "Fp":
            raise BudgetError(
                "extension field of order %d is too large to tabulate" % q
            )
        return _count_bigprime(query, jobs)

    add, mul = _field_tables(query.spec)
    polys, union = query._kernel_polys()
    # read on either kernel, so that a bad knob is an error everywhere
    workers = _env_int("MOTIVIC_WORKERS", 1, 1)
    if not polys:
        # every candidate is a common zero of no generators
        return cost
    if _ckernel is None:
        rows = _rows(polys)
        maxd = max([1] + [g.degree for g in polys])
        powt, columns = _pure._pow_table(q, mul, maxd)
        walk = _pure._walker(q, mul, add, powt, maxd + 1, union, columns)
        return sum(walk(_pure._split(rows, fixed, free_pos), free_start)
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


def _count_bigprime(query: CountQuery, jobs) -> int:
    """Counting with ints mod p, for primes too large for q*q tables; jobs
    are the query's _strata."""
    p = query.spec.p
    rows = _rows(query.generators)
    return sum(_pure.count_stratum_direct(
        p, free_start, _pure._split(rows, fixed, free_pos))
        for fixed, free_pos, free_start in jobs)


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
    split is filtered from them (_pure._split); at each prefix, in odometer
    order, they become univariate polynomials in the last free coordinate,
    and the points over that prefix are the common roots (for a union, the
    roots of some factor), in ascending order.  A candidate's walk position
    is its place among the candidates of the strata: a point at position k
    is yielded when k <= budget, and BudgetError is raised once the walk
    passes budget candidates.  Fields
    the kernels tabulate take the root masks of _pure._root_finder; larger
    ones test the values of each fibre one at a time.
    """
    spec = query.spec
    q = spec.order
    polys, union = query._kernel_polys()
    rows = _rows(polys)
    if q <= _TABLE_LIMIT:
        add, mul = _field_tables(spec)
        maxd = max([1] + [g.degree for g in polys])
        powt = _pure._pow_table(q, mul, maxd)[0]
        stride = maxd + 1

        def fold(c, x, e):
            return mul[c * q + powt[x * stride + e]]

        def plus(a, b):
            return add[a * q + b]

        roots = _pure._root_finder(q, mul, add)
        flip = (1 << q) - 1 if union else 0

        def fibre(coeff_lists, start, stop):
            allowed = common = ((1 << stop) - 1) >> start << start
            for coeffs in coeff_lists:
                common &= roots(coeffs) ^ flip
                if not common:
                    break
            if union:
                common ^= allowed
            while common:
                low = common & -common
                yield low.bit_length() - 1
                common ^= low
    else:
        if spec.kind == "Fp":
            def fold(c, x, e):
                return c * pow(x, e, q) % q

            def plus(a, b):
                return (a + b) % q

            def times(a, b):
                return a * b % q
        else:
            def fold(c, x, e):
                return spec._mul(c, spec._pow(x, e))

            plus, times = spec._add, spec._mul

        def value(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = plus(times(acc, x), c)
            return acc

        test = any if union else all

        def fibre(coeff_lists, start, stop):
            for x in range(start, stop):
                if test(not value(coeffs, x) for coeffs in coeff_lists):
                    yield x

    def over_budget():
        return BudgetError(
            "no point of %r among the first %d candidates, budget is %d"
            % (query, budget, budget))

    def point(idx):
        return tuple([FieldElem(spec, v) for v in idx])

    walked = 0
    for fixed, free_pos, free_start in _strata(query):
        gens = _pure._split(rows, fixed, free_pos)
        idx = list(fixed)
        if free_pos:
            last, start, end = free_pos[-1], free_start[-1], q
        else:
            # the one candidate, fixed, is a fibre of one value whose
            # polynomials are constants
            last, start, end = None, 0, 1
        for pre in _pure._prefixes(q, free_start):
            if walked == budget:
                raise over_budget()
            stop = min(end, start + budget - walked)
            coeff_lists = []
            for split, width in gens:
                coeffs = [0] * width
                for c, factors, e_last in split:
                    for j, e in factors:
                        c = fold(c, pre[j], e)
                    coeffs[e_last] = plus(coeffs[e_last], c)
                coeff_lists.append(coeffs)
            for x in fibre(coeff_lists, start, stop):
                for pos, v in zip(free_pos, pre):
                    idx[pos] = v
                if last is not None:
                    idx[last] = x
                yield point(idx)
            walked += stop - start
            if stop < end:
                raise over_budget()
