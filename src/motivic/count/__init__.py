"""Exact point counting over finite fields.

The unit of work is a CountQuery: a list of homogeneous generators over
F_q together with optional chart constraints (coordinate = 0 / != 0), counted
on the canonical representatives of P^n.  Counting splits them into lead
strata (lead coordinate = 1, earlier coordinates 0), each an independent
unit a kernel can chew through; together they are the points
enumerate_points yields.

Arithmetic inside the hot loop is table-driven: elements become indices
0..q-1 (0 -> 0, 1 -> 1) and add/mul/pow become flat lookup tables, so the
same kernel code serves prime and extension fields.  Two kernels keep one
count contract, the count_stratum of _pure, and share nothing else.
motivic.count._ckernel, hand-written C built at install time when a C
compiler is available, tests every candidate of the stratum.  _pure, plain
Python, walks the fibres over the last free coordinate and counts roots of
univariate polynomials there.  The import below picks the compiled one when
present; set MOTIVIC_PURE=1 to force the fallback.  Primes too large to
tabulate (q > _TABLE_LIMIT) take a separate direct-mod path, which counts
those roots as the degree of a gcd with t^p - t.

A counting call touching q^(n+1) candidate tuples beyond the budget
(MOTIVIC_BUDGET, default 10^8) raises BudgetError instead of hanging.  A
MOTIVIC_BUDGET or MOTIVIC_WORKERS that is not an integer raises ValueError.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ThreadPoolExecutor

from ..fields import FieldSpec
from ..poly import HomogPoly

from . import _pure

try:  # pragma: no cover - exercised only when the extension is built
    from . import _ckernel
except ImportError:  # pragma: no cover
    _ckernel = None

if os.environ.get("MOTIVIC_PURE"):
    _ckernel = None

HAVE_COMPILED = _ckernel is not None

_DEFAULT_BUDGET = 10**8
_TABLE_LIMIT = 1024


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
    """

    __slots__ = ("spec", "n", "generators", "chart")

    def __init__(self, spec: FieldSpec, n: int, generators=(), chart=()):
        if not spec.is_finite:
            raise ValueError("counting needs a finite field, got %s" % spec)
        if n < 0:
            raise ValueError("bad ambient dimension")
        self.spec = spec
        self.n = int(n)
        gens = []
        for g in generators:
            if not isinstance(g, HomogPoly):
                raise ValueError("generators must be homogeneous polynomials")
            if g.spec != spec or g.nvars != n + 1:
                raise ValueError("generator does not live in P^%d over %s" % (n, spec))
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
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

    def cost(self) -> int:
        return self.spec.order ** (self.n + 1)

    def describe(self):
        d = {
            "field": self.spec.describe(),
            "ambient": self.n,
            "generators": [str(g) for g in self.generators],
        }
        if self.chart:
            d["chart"] = [[i, kind] for i, kind in self.chart]
        return d

    def __eq__(self, other):
        return (
            isinstance(other, CountQuery)
            and self.spec == other.spec
            and self.n == other.n
            and tuple(g.canonical_key() for g in self.generators)
            == tuple(g.canonical_key() for g in other.generators)
            and self.chart == other.chart
        )

    def __hash__(self):
        return hash(
            (self.spec, self.n,
             tuple(g.canonical_key() for g in self.generators), self.chart)
        )

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
    cached = _table_cache.get(spec)
    if cached is not None:
        return cached
    q = spec.order
    elems = list(spec.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = array("i", [0] * (q * q))
    mul = array("i", [0] * (q * q))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i * q + j] = index[a + b]
            mul[i * q + j] = index[a * b]
    out = (elems, index, add, mul)
    _table_cache[spec] = out
    return out


def _pow_table(q, mul, maxd):
    powt = array("i", [0] * (q * (maxd + 1)))
    for x in range(q):
        acc = 1
        powt[x * (maxd + 1)] = 1
        for e in range(1, maxd + 1):
            acc = mul[acc * q + x]
            powt[x * (maxd + 1) + e] = acc
    return powt


def _encode_generators(query: CountQuery, index):
    """Flatten generator terms into (offsets, coeff indices, exponent rows)."""
    nvars = query.n + 1
    offs = array("i", [0])
    coeffs = array("i", [])
    exps = array("i", [])
    maxd = 1
    for g in query.generators:
        for exps_t, c in g.sorted_terms():
            coeffs.append(index[c])
            exps.extend(exps_t)
            maxd = max(maxd, max(exps_t))
        offs.append(len(coeffs))
    return offs, coeffs, exps, maxd, nvars


# ---------------------------------------------------------------------------
# stratum planning

def _strata(query: CountQuery):
    """Yield per-lead work items (lead, fixed, free_pos, free_start) or None.

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
        yield lead, fixed, free_pos, free_start


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

    elems, index, add, mul = _field_tables(query.spec)
    offs, coeffs, exps, maxd, nvars = _encode_generators(query, index)
    powt = _pow_table(q, mul, maxd)
    kernel = _ckernel if _ckernel is not None else _pure

    jobs = []
    for lead, fixed, free_pos, free_start in _strata(query):
        jobs.append((fixed, free_pos, free_start))

    def run(job):
        fixed, free_pos, free_start = job
        return kernel.count_stratum(
            q, nvars, fixed, free_pos, free_start,
            len(query.generators), offs, coeffs, exps, mul, add, powt, maxd,
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
    for lead, fixed, free_pos, free_start in _strata(query):
        total += _pure.count_stratum_direct(
            p, query.n + 1, list(fixed), list(free_pos), list(free_start), gens
        )
    return total


def enumerate_points(query: CountQuery, budget: int | None = None):
    """Yield the points of the query as coordinate tuples, canonical order."""
    budget = default_budget() if budget is None else budget
    if query.cost() > budget:
        raise BudgetError(
            "enumerating %r needs %d candidates, budget is %d"
            % (query, query.cost(), budget)
        )
    from ..points import projective_reps

    chart = dict(query.chart)
    spec = query.spec
    zero = spec.zero
    for pt in projective_reps(spec, query.n):
        ok = True
        for i, kind in chart.items():
            iszero = pt[i] == zero
            if (kind == "zero") != iszero:
                ok = False
                break
        if ok and all(g.evaluate(pt) == zero for g in query.generators):
            yield pt
