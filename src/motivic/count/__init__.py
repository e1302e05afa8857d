"""Exact point counting over finite fields.

The unit of work is a CountQuery: a list of homogeneous generators over
F_q together with optional chart constraints (coordinate = 0 / != 0), counted
on the canonical representatives of P^n.  CountQuery.union asks instead for
the points where some of its factors vanishes, V(f_1 * ... * f_d), and the
kernel counts it factor by factor, never from the expanded product.  Equal
queries count the same, so the CLI keeps one kclass.Counts per job and
counts each distinct query of a job once.  The
engines state their queries over any field; only counting needs F_q, so
count_points, cost() and every point walk of a query over Q raise
ValueError, all through _order.

Each count and point search is planned once (_pure._plan, the one place
that reads a chart), and the plan names the kernel that evaluates it.
"kept", over a small tabulated P^n: each form is evaluated once over the
whole of P^n (_pure._zeros on the projective monomial vectors of
_pure._Lanes.vector), one lane per canonical point in walk order, and
keeps its zero lanes for as long as it lives (_kept).  A count is the
popcount of its forms' kept lanes ANDed (ORed for a union) and ANDed with
those of its charted coordinates x_i, kept forms too (_coordinate,
_common); a search, which has no chart there, lists the same lanes in
ascending order and decodes each to its point.
"lanes", over any other tabulated field: the query reads its terms once
with every exponent reduced below q (_rows) and splits them once for its
lead strata (_pure._split); the lane kernel then evaluates a generator
on a whole block of candidates at once, a count in blocks of at most
_pure._BLOCK_LANES, a search with the last coordinate alone as the
block, one fibre at a time.  "fibres", past the table limit: _pure._fold
gives each fibre's coefficients in the last coordinate instead.  The
tests check counts and searches against a brute-force walk of their own.

A count or a full enumerate_points walk over more candidates than the
budget (the caller's, else _DEFAULT_BUDGET, 10^8) raises BudgetError
before it starts instead of hanging; CountQuery.cost() is that number of
candidates, those of the lead strata, #P^n(F_q) or fewer under a chart.
_first_point, the finite-field half of points.first_point through which
every engine finds its first rational point, charges only the candidates
it walks, so a point found early passes under any budget.
"""

from __future__ import annotations

from functools import lru_cache

from ..fields import FieldSpec
from ..poly import HomogPoly

from . import _pure

# no compiled kernel exists; perfbench/worker.py still reads this flag
HAVE_COMPILED = False

_DEFAULT_BUDGET = 10**8


class BudgetError(ValueError):
    """The requested count would exceed the enumeration budget."""


class CountQuery:
    """Point count of V(generators) inside P^n over the spec's field.

    A query over Q can be built, compared and described, but not counted.

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
    canonical key behind __eq__ and __hash__, the hash itself and the
    describe() dict are each built once per query.
    """

    __slots__ = ("spec", "n", "chart", "factors", "_generators", "_key",
                 "_hash", "_described")

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
        if n < 0:
            raise ValueError("bad ambient dimension")
        self.spec = spec
        self.n = int(n)
        self._key = self._hash = self._described = None
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
        """(polynomials, union flag) as the kernel counts them."""
        if self.factors is None:
            return self._generators, 0
        return self.factors, 1

    def cost(self) -> int:
        """The number of candidates that the budget charges a count or a
        full enumerate_points walk: those of the query's lead strata
        (_pure._plan), #P^n(F_q) or fewer under a chart."""
        return _pure._plan(_order(self), self.n, self.chart, True).cost

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
        if self._hash is None:
            self._hash = hash(self._canonical())
        return self._hash

    def __repr__(self):
        body = "; ".join(self.describe()["generators"]) or "0"
        extra = ""
        if self.chart:
            extra = " | " + ", ".join(
                "x%d%s" % (i, "=0" if k == "zero" else "!=0") for i, k in self.chart
            )
        return "#V(%s) in P^%d(%s)%s" % (body, self.n, self.spec, extra)


# ---------------------------------------------------------------------------
# query planning

def _order(query):
    """q, the order of the query's field; a query over Q is stated but
    never counted."""
    if not query.spec.is_finite:
        raise ValueError("counting needs a finite field, got %s" % query.spec)
    return query.spec.order


def _rows(polys):
    """Each polynomial's terms as (value, exps) rows: the one read of a
    query's generators that a count or a point search makes.  On F_q points
    x^q = x, so every exponent e >= 1 becomes (e - 1) mod (q - 1) + 1, and
    no exponent passes q - 1; terms may then share a monomial."""
    out = []
    for g in polys:
        top = g.spec.order - 1
        rows = list(zip(g.coeffs.values(), g.coeffs))
        if g.degree > top:
            rows = [(v, tuple([(e - 1) % top + 1 if e else 0 for e in exps]))
                    for v, exps in rows]
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# public API

def count_points(query: CountQuery, budget: int | None = None) -> int:
    """Number of F_q-points of the query, by its plan's kernel
    (_pure._plan): the popcount of its zero lanes over the whole of P^n
    ("kept", _common), or its terms split once (_pure._split) and counted
    in lane blocks ("lanes", _pure.count_lanes) or fibre by fibre past the
    table limit ("fibres", _pure.count_direct, a union from its factors)."""
    budget = _DEFAULT_BUDGET if budget is None else budget
    q = _order(query)
    plan = _pure._plan(q, query.n, query.chart, False)
    cost = plan.cost
    if cost > budget:
        raise BudgetError("counting %r needs %d candidates, budget is %d"
                          % (query, cost, budget))
    if plan.kernel == "fibres" and query.spec.kind != "Fp":
        raise BudgetError(
            "extension field of order %d is too large to tabulate" % q)
    polys, union = query._kernel_polys()
    if not polys or not cost:
        # every candidate is a common zero of no generators
        return cost
    if plan.kernel == "kept":
        return _common(_pure._lanes(query.spec), query, plan).bit_count()
    gens = _pure._split(_rows(polys), plan)
    if plan.kernel == "fibres":
        return _pure.count_direct(query.spec, gens, plan, union)
    return _pure.count_lanes(_pure._lanes(query.spec), gens, plan, union)


def enumerate_points(query: CountQuery, budget: int | None = None):
    """Yield the points of the query as tuples of values, canonical order.

    The points come from _points, in the canonical order of motivic.points
    (that of projective_reps in the tests' conftest).  The whole walk is
    charged against budget up front.
    """
    budget = _DEFAULT_BUDGET if budget is None else budget
    cost = query.cost()
    if cost > budget:
        raise BudgetError("enumerating %r needs %d candidates, budget is %d"
                          % (query, cost, budget))
    yield from _points(query, budget)


def _first_point(query: CountQuery, budget: int | None = None):
    """First point of the query in enumerate_points order, or None.

    Only the candidates walked are charged: a point found early is returned
    under any budget, and BudgetError is raised once the walk passes budget
    candidates without a point.
    """
    budget = _DEFAULT_BUDGET if budget is None else budget
    return next(_points(query, budget), None)


# ---------------------------------------------------------------------------
# kept zero lanes over a small P^n

def _kept(lanes, f):
    """The zero lanes of f over the whole of its P^n (n = f.nvars - 1),
    the canonical points in walk order, kept on the form.

    The one read of f's terms (_rows) is evaluated once on the projective
    vectors of its monomials (_pure._Lanes.vector) by _pure._zeros; a
    zero form gives every lane.  Only a P^n of at most _pure._BLOCK_LANES
    points is ever asked for."""
    try:
        return f._zero_lanes
    except AttributeError:
        pass
    (rows,) = _rows([f])
    block = (0,) * f.nvars
    zeros = f._zero_lanes = _pure._zeros(
        lanes, [v for v, _ in rows],
        [lanes.vector(block, exps, True) for _, exps in rows],
        lanes.masks(_pure._space(lanes.q, f.nvars - 1)))
    return zeros


# the coordinate forms x_i whose kept lanes a chart reads (_common)
_coordinate = lru_cache(maxsize=64)(HomogPoly.variable)


def _common(lanes, query, plan):
    """The zero lanes of the query over the whole of P^n: its forms' kept
    lanes (_kept) ANDed, or ORed for a union (_pure._combine; a form past
    its early stop is not evaluated), then ANDed with the kept lanes of
    each x_i its plan charts zero and the other lanes of each x_i charted
    nonzero."""
    spec, nvars = query.spec, query.n + 1
    polys, union = query._kernel_polys()
    msb = lanes.masks(_pure._space(lanes.q, query.n))[0]
    common = _pure._combine((_kept(lanes, f) for f in polys), msb, union)
    for i, start in enumerate(plan.starts):
        if start or i not in plan.free:
            zeros = _kept(lanes, _coordinate(spec, nvars, i))
            common &= msb ^ zeros if start else zeros
    return common


def _points(query: CountQuery, budget: int):
    """The points of the query in canonical order: the set lanes of
    _common in ascending order when its plan's kernel is "kept"
    (_read_points), else the fibres of _walk_points.  A point at walk
    position k, the k-th candidate of the chart in canonical order, is
    yielded when k <= budget, and BudgetError is raised once the walk
    passes budget candidates."""
    plan = _pure._plan(_order(query), query.n, query.chart, True)
    if plan.kernel == "kept":
        return _read_points(query, plan, budget)
    return _walk_points(query, budget)


def _over_budget(query, budget):
    return BudgetError(
        "no point of %r among the first %d candidates, budget is %d"
        % (query, budget, budget))


def _read_points(query, plan, budget):
    """The points of _points from the query's zero lanes over the whole
    of P^n (_common), with no chart.  Lane k is walk position k + 1, so a
    walk past budget keeps the lanes below budget.  A lane decodes to its
    point by arithmetic: the lead from the stratum sizes q^(n - lead),
    then the base-q digits of the trailing coordinates."""
    lanes = _pure._lanes(query.spec)
    q, n, width = lanes.q, query.n, lanes.width
    common = _common(lanes, query, plan)
    short = _pure._space(q, n) > budget
    if short:
        common &= (1 << width * budget) - 1
    for lane in _pure._positions(common, width):
        lead, stratum = 0, q ** n
        while lane >= stratum:
            lane -= stratum
            lead += 1
            stratum //= q
        idx = [0] * (n + 1)
        idx[lead] = 1
        for j in range(n, lead, -1):
            lane, idx[j] = divmod(lane, q)
        yield tuple(idx)
    if short:
        raise _over_budget(query, budget)


def _walk_points(query, budget):
    """The points of _points fibre by fibre.  Planned with blocks of one
    candidate (_pure._plan), the last free coordinate alone is each fibre,
    and the tail the one point where it is the lead; the generators are
    split once (_pure._split).  Tabulated fields list each fibre's zero
    lanes (_pure._blocks); under the kernel "fibres" its values are tested
    in order (_pure._fold)."""
    spec = query.spec
    polys, union = query._kernel_polys()
    plan = _pure._plan(spec.order, query.n, query.chart, True)
    gens = _pure._split(_rows(polys), plan)
    free, starts, strata = plan.free, plan.starts, plan.strata
    if plan.kernel != "fibres":
        lanes = _pure._lanes(spec)
        width = lanes.width
        fibres = (_pure._blocks(lanes, gens, plan, i, union)
                  for i in range(len(strata)))

        def points_in(zeros, start, stop):
            bits = zeros & (1 << width * (stop - start)) - 1
            return (start + k for k in _pure._positions(bits, width))
    else:
        mul, add = spec._mul, spec._add
        test = any if union else all
        fibres = (_pure._fold(spec, gens, plan, i)
                  for i in range(len(strata)))

        def vanishes(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = add(mul(acc, x), c)
            return not acc

        def points_in(lists, start, stop):
            for x in range(start, stop):
                if test(vanishes(coeffs, x) for coeffs in lists):
                    yield x

    walked = 0
    for (lead, prefix, size), blocks in zip(strata, fibres):
        idx = [0] * (query.n + 1)
        idx[lead] = 1
        # the tail's one candidate has its last coordinate, the lead, at 1
        last = free[-1]
        start = 1 if lead == last else starts[last]
        end = start + size
        for pre, fibre in blocks:
            if walked == budget:
                raise _over_budget(query, budget)
            stop = min(end, start + budget - walked)
            for x in points_in(fibre, start, stop):
                for j, v in zip(prefix, pre):
                    idx[j] = v
                idx[last] = x
                yield tuple(idx)
            walked += stop - start
            if stop < end:
                raise _over_budget(query, budget)
