import json
import os
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import motivic
import motivic.count
from conftest import run_python
from motivic.count import (
    BudgetError,
    CountQuery,
    _pure,
    count_points,
    default_budget,
    enumerate_points,
)
from motivic.fields import extension_field, prime_field, rationals
from motivic.parse import parse_poly
from motivic.points import projective_reps
from motivic.poly import HomogPoly

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
F9 = extension_field(3, 2)
F25 = extension_field(5, 2)


def _q(text, spec, n, chart=()):
    gens = [parse_poly(t, spec, n + 1) for t in text] if text else []
    return CountQuery(spec, n, gens, chart)


def test_projective_space_counts():
    # #P^n(F_q) = (q^(n+1) - 1) / (q - 1)
    assert count_points(_q([], F3, 1)) == 4
    assert count_points(_q([], F3, 2)) == 13
    assert count_points(_q([], F3, 3)) == 40
    assert count_points(_q([], F5, 2)) == 31
    assert count_points(_q([], F7, 4)) == 2801
    assert count_points(_q([], F9, 2)) == 91


def test_smooth_quadric_counts():
    # split quadric surface in P^3 has (q+1)^2 points
    assert count_points(_q(["x0*x1 + x2*x3"], F3, 3)) == 16
    assert count_points(_q(["x0*x1 + x2*x3"], F5, 3)) == 36
    # smooth conic = P^1
    assert count_points(_q(["x0^2 + x1^2 + x2^2"], F3, 2)) == 4
    assert count_points(_q(["x0*x1 - x2^2"], F9, 2)) == 10
    # odd-dimensional smooth quadric in P^4: q^3 + q^2 + q + 1
    assert count_points(_q(["x0*x1 + x2*x3 + x4^2"], F7, 4)) == 400


def test_anisotropic_binary_form_is_empty():
    # -1 is not a square mod 3, so x0^2 + x1^2 has no projective zero
    assert count_points(_q(["x0^2 + x1^2"], F3, 1)) == 0


def test_charts_partition_projective_space():
    assert count_points(_q([], F3, 2, chart=((0, "nonzero"),))) == 9
    assert count_points(_q([], F3, 2, chart=((0, "zero"),))) == 4
    total = count_points(_q([], F3, 2))
    assert total == 9 + 4


def test_chart_on_hypersurface():
    f = ["x0*x1 + x2*x3"]
    whole = count_points(_q(f, F3, 3))
    on = count_points(_q(f, F3, 3, chart=((0, "zero"),)))
    off = count_points(_q(f, F3, 3, chart=((0, "nonzero"),)))
    assert on + off == whole


def test_multiple_generators():
    # V(x0, x1) in P^2 is the single point (0 : 0 : 1)
    assert count_points(_q(["x0", "x1"], F3, 2)) == 1
    pts = list(enumerate_points(_q(["x0", "x1"], F3, 2)))
    assert len(pts) == 1
    assert tuple(v.value for v in pts[0]) == (0, 0, 1)


def test_query_validation():
    with pytest.raises(ValueError, match="finite"):
        CountQuery(rationals(), 1, [])
    with pytest.raises(ValueError, match="ambient"):
        CountQuery(F3, -1, [])
    f = parse_poly("x0*x1", F3, 2)
    with pytest.raises(ValueError, match="does not live"):
        CountQuery(F3, 2, [f])
    with pytest.raises(ValueError, match="chart index"):
        CountQuery(F3, 1, [], chart=((5, "zero"),))
    with pytest.raises(ValueError, match="chart kind"):
        CountQuery(F3, 1, [], chart=((0, "positive"),))
    with pytest.raises(ValueError, match="duplicate"):
        CountQuery(F3, 1, [], chart=((0, "zero"), (0, "nonzero")))


def test_query_equality_and_cost():
    a = _q(["x0*x1"], F3, 1)
    b = _q(["x0*x1"], F3, 1)
    assert a == b and hash(a) == hash(b)
    assert a != _q(["x0^2"], F3, 1)
    assert a.cost() == 9
    assert _q([], F5, 3).cost() == 625


def test_budget_errors():
    with pytest.raises(BudgetError):
        count_points(_q([], F3, 20))  # 3^21 > default budget
    with pytest.raises(BudgetError):
        count_points(_q([], F3, 2), budget=10)
    with pytest.raises(BudgetError):
        list(enumerate_points(_q([], F3, 2), budget=10))
    assert default_budget() == 10**8


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MOTIVIC_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("MOTIVIC_BUDGET", "not-a-number")
    with pytest.raises(ValueError, match="MOTIVIC_BUDGET must be an integer"):
        default_budget()


def test_large_extension_field_refused():
    F2187 = extension_field(3, 7)
    with pytest.raises(BudgetError, match="too large to tabulate"):
        count_points(CountQuery(F2187, 0, []))


def test_bigprime_path():
    # q > 1024 skips the q*q tables and evaluates mod p directly
    P = prime_field(1031)
    f = parse_poly("x0^2 - x1*x2", P, 3)
    n = count_points(CountQuery(P, 2, [f]), budget=2 * 10**9)
    assert n == 1032  # smooth conic = P^1


def _product(factors, spec, n):
    out = parse_poly(factors[0], spec, n + 1)
    for text in factors[1:]:
        out = out * parse_poly(text, spec, n + 1)
    return out


def _nonresidue(p):
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", [1031, 1033])
def test_bigprime_known_counts(p):
    """The direct-mod path against counts known by construction."""
    P = prime_field(p)
    r = _nonresidue(p)
    cases = [
        # binary forms: each linear factor is one point of P^1, x0 the
        # point (0 : 1) that only the stratum with no free position sees
        (1, ["x0", "x1", "x0 - 2*x1", "x0 + 5*x1"], (), 4),
        (1, ["x0 - 3*x1", "x0 - 3*x1", "x0 + x1"], (), 2),
        (1, ["x0^2 - %d*x1^2" % r], (), 0),
        (1, ["x0^2 - %d*x1^2" % r, "x0 - x1", "x1"], (), 2),
        (1, ["x0^2 - %d*x1^2" % r, "x0 - x1", "x1"], ((1, "nonzero"),), 1),
        (1, ["x0 - 7*x1", "x0 - 7*x1", "x0 - 7*x1", "x1"], (), 2),
        # conics and line pairs in P^2
        (2, ["x0^2 + x1^2 + x2^2"], (), p + 1),
        (2, ["x0^2 - x1*x2"], ((2, "nonzero"),), p),
        (2, ["x0", "x1"], (), 2 * p + 1),
        (2, ["x0", "x1"], ((2, "nonzero"),), 2 * p - 1),
        # x1*(x2 - x0) vanishes identically on the fibre over x1 = 0
        (2, ["x1", "x2 - x0"], (), 2 * p + 1),
        # x0^2 vanishes identically on the stratum x0 = 0, x1 = 1
        (2, ["x0", "x0"], (), p + 1),
    ]
    for n, factors, chart, expected in cases:
        query = CountQuery(P, n, [_product(factors, P, n)], chart)
        assert count_points(query, budget=2 * 10**9) == expected, factors
    # two generators, the second identically zero on the stratum x0 = 0,
    # x1 = 1: the line x2 = 0 and the point (0 : 0 : 1)
    query = CountQuery(P, 2, [_product(["x1", "x2"], P, 2),
                              _product(["x0", "x2"], P, 2)])
    assert count_points(query, budget=2 * 10**9) == p + 2
    # a union takes this path through its expanded product: three lines
    # through (0 : 0 : 1), and off x2 = 0 without their points at infinity
    lines = [parse_poly(t, P, 3) for t in ("x0", "x1", "x0 - x1")]
    for chart, expected in [((), 3 * p + 1), (((2, "nonzero"),), 3 * p - 2)]:
        query = CountQuery.union(P, 2, lines, chart)
        assert count_points(query, budget=2 * 10**9) == expected


def test_enumerate_matches_count():
    for text, spec, n in [
        (["x0*x1 + x2^2"], F3, 2),
        (["x0^2 + x1^2 + x2^2"], F5, 2),
        ([], F9, 1),
        (["x0*x1 + x2*x3"], F3, 3),
    ]:
        query = _q(text, spec, n)
        pts = list(enumerate_points(query))
        assert len(pts) == count_points(query)
        for pt in pts:
            assert all(g.evaluate(pt).is_zero() for g in query.generators)


def test_workers_agree():
    query = _q(["x0*x1 + x2*x3"], F5, 3)
    assert count_points(query, workers=4) == 36


def test_worker_count_is_clamped(monkeypatch):
    """workers=10**6 asks for no more threads than cores or strata."""
    asked = []

    class RecordingPool:
        # runs the jobs in this thread; it never starts one
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(motivic.count, "ThreadPoolExecutor", RecordingPool)
    # any kernel in the _ckernel slot takes the threaded path
    monkeypatch.setattr(motivic.count, "_ckernel", _pure)
    query = _q(["x0*x1 + x2*x3"], F5, 3)  # four lead strata
    assert count_points(query, workers=10**6) == 36
    assert asked == [min(os.cpu_count() or 1, 4)]


# Run in a child on a freshly built copy of the checkout.  It prints where
# motivic came from, then one JSON line per query: [compiled kernel, compiled
# kernel on 2 threads, pure kernel, enumerate_points], then one JSON line
# with the direct kernel calls.
_COMPILED_CHECK = """
import json
from array import array
import motivic, motivic.count as count
from motivic.count import CountQuery, _pure, count_points, enumerate_points
from motivic.fields import extension_field, prime_field
from motivic.parse import parse_poly
from motivic.poly import HomogPoly

assert count.HAVE_COMPILED
ckernel = count._ckernel
F3, F5, F9 = prime_field(3), prime_field(5), extension_field(3, 2)
CASES = [
    (F3, 3, ["x0*x1 + x2*x3"], ()),
    (F3, 2, [], ()),
    (F3, 3, [], ((0, "zero"), (3, "nonzero"))),
    (F5, 3, ["x0^3 + x1^3 + x2^3 + x3^3"], ()),
    (F5, 4, ["x0*x1 - x2^2", "x3^2 + x4*x0"], ((0, "nonzero"),)),
    (F5, 2, ["x1^2 + x2^2"], ((1, "zero"), (2, "zero"))),
    (F9, 2, ["x0*x1 - x2^2"], ()),
    (F9, 3, ["x0^2 + t*x1^2 + x2*x3"], ((1, "zero"),)),
]
# unions: factor texts, None standing for a zero factor
UNIONS = [
    (F3, 2, ["x0", "x1"], ()),
    (F5, 0, ["x0", "2*x0"], ()),
    (F5, 2, ["x0 + x1", "x2"], ((1, "zero"), (2, "zero"))),
    (F5, 2, ["x0*x1 - x2^2", None], ()),
    (F5, 3, ["x0*x1 - x2*x3", "x0 - x1", "x0 - x1"], ((0, "nonzero"),)),
    (F5, 4, ["x0*x1 + x2*x3 + x4^2", "x0*x2 + x1*x4 + x3^2"], ()),
    (F9, 2, ["x0 + t*x1", "x0 - t*x1"], ()),
]
queries = [CountQuery(spec, n, [parse_poly(s, spec, n + 1) for s in polys],
                      chart) for spec, n, polys, chart in CASES]
queries += [CountQuery.union(spec, n, [
    HomogPoly.zero(spec, n + 1, 2) if s is None else parse_poly(s, spec, n + 1)
    for s in polys], chart) for spec, n, polys, chart in UNIONS]
print(motivic.__file__)
for query in queries:
    row = [count_points(query), count_points(query, workers=2)]
    count._ckernel = None
    row.append(count_points(query))
    count._ckernel = ckernel
    row.append(sum(1 for _ in enumerate_points(query)))
    print(json.dumps(row))

q = 3
args = dict(
    q=q, nvars=2, fixed=array("i", [1, 0]), free_pos=array("i", [1]),
    free_start=array("i", [0]), ngens=1, gen_off=array("i", [0, 1]),
    gen_coeff=array("i", [1]), gen_exps=array("i", [0, 1]),
    mul=array("i", [a * b % q for a in range(q) for b in range(q)]),
    add=array("i", [(a + b) % q for a in range(q) for b in range(q)]),
    powt=array("i", [pow(x, e, q) for x in range(q) for e in range(2)]),
    maxd=1,
)
# a second generator with no terms is zero: a union then holds every
# point of the stratum, also the one with no free position at x1 = 2
zero_too = dict(args, ngens=2, gen_off=array("i", [0, 1, 1]))
point = dict(zero_too, fixed=array("i", [1, 2]), free_pos=array("i", []),
             free_start=array("i", []))
direct = [ckernel.count_stratum(**args), _pure.count_stratum(**args),
          ckernel.count_stratum(*args.values())]
for kernel in (ckernel, _pure):
    direct += [kernel.count_stratum(**args, union=1),
               kernel.count_stratum(**zero_too, union=1),
               kernel.count_stratum(**point),
               kernel.count_stratum(**point, union=1)]
errors = []
for key, bad in [("fixed", array("q", [1, 0])),
                 ("mul", array("i", args["mul"][:-1])),
                 ("gen_exps", array("i", [0, 2])),
                 ("union", 2)]:
    try:
        ckernel.count_stratum(**dict(args, **{key: bad}))
    except ValueError as e:
        errors.append(str(e))
print(json.dumps([direct, errors]))
"""

_HAVE_C_TOOLCHAIN = (
    (shutil.which("gcc") or shutil.which("cc")) is not None
    and Path(sysconfig.get_paths()["include"], "Python.h").is_file()
)


@pytest.mark.skipif(not _HAVE_C_TOOLCHAIN,
                    reason="needs gcc or cc and Python.h to build the "
                           "compiled kernel")
def test_compiled_kernel_agrees_with_pure(tmp_path):
    """Build the C kernel in a copy of the checkout; it must count what the
    pure kernel and enumerate_points count, and refuse malformed buffers."""
    repo = Path(__file__).resolve().parents[1]
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(repo / name, tmp_path / name)
    shutil.copytree(repo / "src", tmp_path / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.egg-info"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOTIVIC_")}
    # the kernel must stay free of compiler warnings
    built = run_python(["setup.py", "build_ext", "--inplace"],
                       dict(env, CFLAGS="-Wall -Wextra -Werror"),
                       root=tmp_path)
    assert built.returncode == 0, built.stdout + built.stderr

    out = run_python(["-c", _COMPILED_CHECK], env, root=tmp_path)
    assert out.returncode == 0, out.stderr
    where, *rows, kernel_calls = out.stdout.splitlines()
    assert Path(where).is_relative_to(tmp_path)
    counts = [json.loads(r) for r in rows]
    assert counts == [[c] * 4 for c in (16, 13, 9, 31, 25, 1, 10, 10,
                                        7, 0, 1, 31, 46, 276, 19)]
    direct, errors = json.loads(kernel_calls)
    # x1 = 0 on the line x0 = 1, as the union {x1} too; the union with a
    # zero factor holds all 3 points; at x1 = 2 the common zeros of x1 and
    # the zero factor are none, their union is the point
    assert direct == [1, 1, 1] + [1, 3, 0, 1] * 2
    assert len(errors) == 4
    assert "fixed has item size 8" in errors[0]
    assert "len(mul) is 8, expected 9" in errors[1]
    assert "gen_exps[1] is 2, outside [0, 2)" in errors[2]
    assert "union is 2, expected 0 or 1" in errors[3]


def _tables_by_element_arithmetic(spec):
    """The add and mul tables as FieldElem arithmetic gives them."""
    elems = list(spec.elements())
    index = {e: i for i, e in enumerate(elems)}
    return ([index[a + b] for a in elems for b in elems],
            [index[a * b] for a in elems for b in elems])


@pytest.mark.parametrize("spec", [
    F3, F5, F7, prime_field(11), F9, F25, extension_field(3, 3),
], ids=str)
def test_field_tables_match_element_arithmetic(spec):
    add, mul = motivic.count._field_tables(spec)
    # the tables index elements by value: element i of spec.elements()
    elems = list(spec.elements())
    assert [e.value for e in elems] == list(range(spec.order))
    assert add.typecode == mul.typecode == "i"
    assert (list(add), list(mul)) == _tables_by_element_arithmetic(spec)


@st.composite
def _f3_quadric(draw):
    terms = {}
    for i in range(3):
        for j in range(i, 3):
            c = draw(st.integers(0, 2))
            if c:
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
    return terms


@given(_f3_quadric())
@settings(max_examples=30, deadline=None)
def test_kernel_matches_direct_evaluation(terms):
    from motivic.poly import HomogPoly

    if not terms:
        return
    f = HomogPoly(F3, 3, 2, {k: F3.elem(v) for k, v in terms.items()})
    query = CountQuery(F3, 2, [f])
    direct = sum(
        1 for pt in projective_reps(F3, 2) if f.evaluate(pt).is_zero()
    )
    assert count_points(query) == direct


def _draw_form(draw, spec, n, degree):
    """A nonzero form of the given degree, sometimes free of the last
    variable or a pure power of it."""
    nonzero = st.integers(1, spec.order - 1).map(spec.from_index)
    shape = draw(st.sampled_from(["any", "no last", "power of last"]))
    if shape == "power of last" or n == 0:
        exps = tuple([0] * n + [degree])
        return HomogPoly(spec, n + 1, degree, {exps: draw(nonzero)})
    width = n + 1 if shape == "any" else n
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps = [0] * (n + 1)
        for i in draw(st.lists(st.integers(0, width - 1),
                               min_size=degree, max_size=degree)):
            exps[i] += 1
        terms[tuple(exps)] = draw(nonzero)
    return HomogPoly(spec, n + 1, degree, terms)


def _draw_space(draw):
    spec = draw(st.sampled_from([F3, F5, F7, F9, F25]))
    # P^3 over F25 has 16276 points, too many to enumerate here
    n = draw(st.integers(0, 3 if spec.order < 25 else 2))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    return spec, n, chart


@st.composite
def _count_query(draw):
    """A query over a small field: 0 to 3 forms of degree 1 to 4, some free
    of the last variable or pure powers of it, and a random chart."""
    spec, n, chart = _draw_space(draw)
    forms = [_draw_form(draw, spec, n, draw(st.integers(1, 4)))
             for _ in range(draw(st.integers(0, 3)))]
    return CountQuery(spec, n, forms, chart)


@st.composite
def _union_query(draw):
    """A union of 1 to 4 factors of degree 1 or 2, some of them repeated or
    zero, with a random chart."""
    spec, n, chart = _draw_space(draw)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["form", "form", "repeat", "zero"]))
        degree = draw(st.integers(1, 2))
        if kind == "repeat" and factors:
            factors.append(draw(st.sampled_from(factors)))
        elif kind == "zero":
            factors.append(HomogPoly.zero(spec, n + 1, degree))
        else:
            factors.append(_draw_form(draw, spec, n, degree))
    return CountQuery.union(spec, n, factors, chart)


@given(st.one_of(_count_query(), _union_query()))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pure_kernel_matches_enumeration(monkeypatch, query):
    # enumerate_points reads a union's expanded product
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    assert count_points(query) == len(list(enumerate_points(query)))


def test_union_counts_as_its_product():
    f = parse_poly("x0*x1 - x2*x3", F5, 4)
    h = parse_poly("x0 + 2*x3", F5, 4)
    union = CountQuery.union(F5, 3, [f, h, h], ((1, "nonzero"),))
    product = CountQuery(F5, 3, [f * h * h], ((1, "nonzero"),))
    assert union.generators == product.generators
    assert union.describe() == product.describe()
    assert union != product
    assert count_points(union) == count_points(product)
    with pytest.raises(ValueError, match="at least one factor"):
        CountQuery.union(F5, 3, [])
    with pytest.raises(ValueError, match="does not live"):
        CountQuery.union(F5, 2, [f])


def test_query_equality_and_hash_are_stable():
    f = parse_poly("x0*x1 - x2^2", F7, 3)
    h = parse_poly("x0 + 3*x2", F7, 3)
    a, b = CountQuery(F7, 2, [f, h]), CountQuery(F7, 2, [f, h])
    assert [hash(a) for _ in range(3)] == [hash(b)] * 3
    assert a == b and b == a and a == b
    assert a != CountQuery(F7, 2, [h, f])  # generator order is structure
    u = CountQuery.union(F7, 2, [f, h])
    # order, repetition and nonzero scalars of the factors do not matter
    same = [CountQuery.union(F7, 2, [h, f]),
            CountQuery.union(F7, 2, [f, h, f]),
            CountQuery.union(F7, 2, [f.scale(F7.elem(3)),
                                     h.scale(F7.elem(6))])]
    for other in same:
        assert other == u and hash(other) == hash(u)
        assert count_points(other) == count_points(u)
    assert u != CountQuery.union(F7, 2, [f])
    assert u != CountQuery.union(F7, 2, [f, h], ((0, "zero"),))
    assert len({u, a, *same}) == 2


def _generic_walk(query):
    """The points of the query, filtered from all of P^n in canonical order
    with FieldElem evaluation."""
    chart = dict(query.chart)
    out = []
    for pt in projective_reps(query.spec, query.n):
        if any((kind == "zero") != pt[i].is_zero() for i, kind in chart.items()):
            continue
        if all(g.evaluate(pt).is_zero() for g in query.generators):
            out.append(pt)
    return out


@given(st.one_of(_count_query(), _union_query()))
@settings(max_examples=120, deadline=None)
def test_enumerate_points_matches_generic_walk(query):
    """The residue walk over F_p, and the element walk over F_{p^m}, yield
    the points of the full filtered walk, in the same order, as elements
    of the query's field."""
    pts = list(enumerate_points(query))
    assert pts == _generic_walk(query)
    assert all(c.spec is query.spec for pt in pts for c in pt)
