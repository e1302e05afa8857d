"""Exact point counting over finite fields.

The unit of work is a CountQuery: a list of homogeneous generators over
F_q together with optional chart constraints (coordinate = 0 / != 0), counted
on the canonical representatives of P^n.  CountQuery.union asks instead for
the points where some of its factors vanishes, V(f_1 * ... * f_d), and the
kernels count it factor by factor, never from the expanded product.
Counting splits a query into lead strata (lead coordinate = 1, earlier
coordinates 0), each an independent unit a kernel can chew through;
together they are the points enumerate_points yields.

Nothing here is cached across calls but the field tables; over F_{p^m}
their products come from the spec's own index log and exp, which
motivic.fields builds once per spec and element arithmetic shares.  Equal
queries count the same, so the CLI keeps one memo of counts per job
(kclass.count_once) and counts each distinct query of a job once.
enumerate_points, the independent reference, walks the same lead strata as
the kernels, on residue tuples over F_p.

Arithmetic inside the hot loop is table-driven: an element's value is
already its index 0..q-1 (0 -> 0, 1 -> 1), and add/mul/pow become flat
lookup tables, so the same kernel code serves prime and extension fields.
Two kernels keep one count contract, the count_stratum of _pure, and share
nothing else; its union flag switches the point test from "every generator
vanishes" to "some generator vanishes".  motivic.count._ckernel,
hand-written C built at install time when a C compiler is available, tests
every candidate of the stratum.  _pure, plain Python, walks the fibres over the last free coordinate and
counts roots of univariate polynomials there.  The import below picks the
compiled one when it is built and _pure otherwise.
Primes too large to tabulate (q > _TABLE_LIMIT) take a separate direct-mod
path, which counts those roots as the degree of a gcd with t^p - t; it
counts a union from its expanded product.

A count or a full enumerate_points walk touching q^(n+1) candidate tuples
beyond the budget (MOTIVIC_BUDGET, default 10^8) raises BudgetError
before it starts instead of hanging.  _first_point, the finite-field half
of points.first_point through which every engine finds its first rational
point, charges only the candidates it walks, so a point found early passes
under any budget.  A MOTIVIC_BUDGET or MOTIVIC_WORKERS that is not an
integer raises ValueError.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from math import prod

from ..fields import _TABLE_LIMIT, FieldSpec
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


def _env_int(name: str, default: int) -> int:
    """The integer environment knob `name`, or `default` when it is unset."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, raw)) from None


def default_budget() -> int:
    return _env_int("MOTIVIC_BUDGET", _DEFAULT_BUDGET)


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
        return self.spec.order ** (self.n + 1)

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


def _pow_table(q, mul, maxd):
    powt = array("i", [0] * (q * (maxd + 1)))
    for x in range(q):
        acc = 1
        powt[x * (maxd + 1)] = 1
        for e in range(1, maxd + 1):
            acc = mul[acc * q + x]
            powt[x * (maxd + 1) + e] = acc
    return powt


def _encode_generators(polys):
    """Flatten polynomial terms into (offsets, coeff indices, exponent
    rows, highest exponent)."""
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
    """Yield per-lead work items (fixed, free_pos, free_start).

    fixed is the value-index vector with lead set to 1 and the earlier and
    zero-constrained coordinates set to 0; free positions carry their start
    index (1 when constrained nonzero, else 0).  A stratum emptied by the
    chart yields nothing.
    """
    n = query.n
    chart = dict(query.chart)
    for lead in range(n + 1):
        ok = True
        for i, kind in chart.items():
            if i < lead and kind == "nonzero":
                ok = False
            if i == lead and kind == "zero":
                ok = False
        if not ok:
            continue
        fixed = array("i", [0] * (n + 1))
        fixed[lead] = 1
        free_pos = array("i", [])
        free_start = array("i", [])
        for i in range(lead + 1, n + 1):
            kind = chart.get(i)
            if kind == "zero":
                continue
            free_pos.append(i)
            free_start.append(1 if kind == "nonzero" else 0)
        yield fixed, free_pos, free_start


# ---------------------------------------------------------------------------
# public API

def count_points(query: CountQuery, budget: int | None = None,
                 workers: int | None = None) -> int:
    """Number of F_q-points of the query, counted stratum by stratum."""
    budget = default_budget() if budget is None else budget
    if query.cost() > budget:
        raise BudgetError(
            "counting %r needs %d candidates, budget is %d"
            % (query, query.cost(), budget)
        )
    q = query.spec.order
    if q > _TABLE_LIMIT:
        if query.spec.kind != "Fp":
            raise BudgetError(
                "extension field of order %d is too large to tabulate" % q
            )
        return _count_bigprime(query)

    add, mul = _field_tables(query.spec)
    polys, union = query._kernel_polys()
    nvars = query.n + 1
    offs, coeffs, exps, maxd = _encode_generators(polys)
    powt = _pow_table(q, mul, maxd)
    kernel = _ckernel if _ckernel is not None else _pure

    jobs = list(_strata(query))

    def run(job):
        fixed, free_pos, free_start = job
        return kernel.count_stratum(
            q, nvars, fixed, free_pos, free_start,
            len(polys), offs, coeffs, exps, mul, add, powt, maxd, union,
        )

    if workers is None:
        workers = _env_int("MOTIVIC_WORKERS", 1)
    if workers > 1 and len(jobs) > 1 and _ckernel is not None:
        # the compiled kernel drops the GIL, so threads actually help; more
        # threads than cores or strata would only wait
        workers = min(workers, os.cpu_count() or 1, len(jobs))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(run, jobs))
    return sum(run(job) for job in jobs)


def _count_bigprime(query: CountQuery) -> int:
    """Counting with ints mod p, for primes too large for q*q tables."""
    p = query.spec.p
    gens = [
        [(exps, c.value) for exps, c in g.sorted_terms()] for g in query.generators
    ]
    total = 0
    for fixed, free_pos, free_start in _strata(query):
        total += _pure.count_stratum_direct(
            p, query.n + 1, list(fixed), list(free_pos), list(free_start), gens
        )
    return total


def enumerate_points(query: CountQuery, budget: int | None = None):
    """Yield the points of the query as coordinate tuples, canonical order.

    The walk runs over the lead strata of _strata, in the order of
    points.projective_reps.  Over F_p candidates are residue tuples and the
    generators are evaluated on ints; field elements are built only for the
    points yielded.  The whole walk is charged against budget up front.
    """
    budget = default_budget() if budget is None else budget
    if query.cost() > budget:
        raise BudgetError(
            "enumerating %r needs %d candidates, budget is %d"
            % (query, query.cost(), budget)
        )
    yield from _walk(query, budget)


def _first_point(query: CountQuery, budget: int | None = None):
    """First point of the query in enumerate_points order, or None.

    Only the candidates walked are charged: a point found early is returned
    under any budget, and BudgetError is raised once the walk passes budget
    candidates without a point.
    """
    budget = default_budget() if budget is None else budget
    for pt in _walk(query, budget):
        return pt
    return None


def _walk(query: CountQuery, budget: int):
    """The walk of enumerate_points; BudgetError past budget candidates."""
    spec = query.spec
    q = spec.order
    elems = [spec.from_index(i) for i in range(q)]
    if spec.kind == "Fp":
        gens = [[(c.value, e) for e, c in g.terms.items()]
                for g in query.generators]

        def on_point(idx):
            return all(
                sum(c * prod(map(pow, idx, e)) for c, e in g) % q == 0
                for g in gens)
    else:
        gens = query.generators

        def on_point(idx):
            pt = tuple(elems[i] for i in idx)
            return all(g.evaluate(pt).is_zero() for g in gens)

    walked = 0
    for fixed, free_pos, free_start in _strata(query):
        idx = list(fixed)
        for tail in product(*[range(start, q) for start in free_start]):
            walked += 1
            if walked > budget:
                raise BudgetError(
                    "no point of %r among the first %d candidates, "
                    "budget is %d" % (query, budget, budget)
                )
            for i, v in zip(free_pos, tail):
                idx[i] = v
            if on_point(idx):
                yield tuple(elems[i] for i in idx)
