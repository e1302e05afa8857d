import json
import os
import shutil
import sysconfig
from array import array
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import motivic
import motivic.count
from conftest import (
    projective_reps,
    reference_points,
    reference_walk,
    run_python,
)
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
from motivic.poly import HomogPoly

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
F9 = extension_field(3, 2)
F11 = prime_field(11)
F13 = prime_field(13)
F25 = extension_field(5, 2)
F27 = extension_field(3, 3)


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
    # the candidates of the lead strata: #P^n(F_q), fewer under a chart
    assert a.cost() == 4
    assert _q([], F5, 3).cost() == 156
    assert _q([], F3, 2, chart=((2, "nonzero"),)).cost() == 9
    assert _q([], F3, 2, chart=((0, "zero"), (1, "zero"))).cost() == 1


def test_budget_errors():
    with pytest.raises(BudgetError):
        count_points(_q([], F3, 20))  # (3^21 - 1) / 2 > default budget
    # P^2(F3) has 13 candidates: 12 is one short, 13 is enough
    with pytest.raises(BudgetError, match="needs 13 candidates, budget is 12"):
        count_points(_q([], F3, 2), budget=12)
    assert count_points(_q([], F3, 2), budget=13) == 13
    with pytest.raises(BudgetError, match="needs 13 candidates, budget is 12"):
        list(enumerate_points(_q([], F3, 2), budget=12))
    assert len(list(enumerate_points(_q([], F3, 2), budget=13))) == 13
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
    # a union takes this path as the product of its factors' restrictions:
    # three lines through (0 : 0 : 1), and off x2 = 0 without their points
    # at infinity
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


def test_workers_agree(monkeypatch):
    monkeypatch.setenv("MOTIVIC_WORKERS", "4")
    query = _q(["x0*x1 + x2*x3"], F5, 3)
    assert count_points(query) == 36


def test_worker_count_is_clamped(monkeypatch):
    """MOTIVIC_WORKERS=10**6 asks for no more threads than cores or
    strata."""
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
    monkeypatch.setenv("MOTIVIC_WORKERS", str(10**6))
    query = _q(["x0*x1 + x2*x3"], F5, 3)  # four lead strata
    assert count_points(query) == 36
    assert asked == [min(os.cpu_count() or 1, 4)]


# Run in a child on a freshly built copy of the checkout, with the tests'
# conftest importable.  It prints where motivic came from, then one JSON line
# per query: [compiled kernel, compiled kernel on 2 threads, pure kernel,
# brute-force reference walk], then one JSON line with the direct kernel
# calls.
_COMPILED_CHECK = """
import json
import os
from array import array
import motivic, motivic.count as count
from conftest import reference_walk
from motivic.count import CountQuery, _pure, count_points
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
    row = [count_points(query)]
    os.environ["MOTIVIC_WORKERS"] = "2"
    row.append(count_points(query))
    del os.environ["MOTIVIC_WORKERS"]
    count._ckernel = None
    row.append(count_points(query))
    count._ckernel = ckernel
    row.append(len(reference_walk(query)[0]))
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
    pure kernel and the brute-force reference count, and refuse malformed
    buffers."""
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

    tests = str(Path(__file__).resolve().parent)
    out = run_python(["-c", _COMPILED_CHECK], dict(env, PYTHONPATH=tests),
                     root=tmp_path)
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
    elems = [spec.from_index(i) for i in range(spec.order)]
    index = {e: i for i, e in enumerate(elems)}
    return ([index[a + b] for a in elems for b in elems],
            [index[a * b] for a in elems for b in elems])


@pytest.mark.parametrize("spec", [
    F3, F5, F7, prime_field(11), F9, F25, extension_field(3, 3),
], ids=str)
def test_field_tables_match_element_arithmetic(spec):
    add, mul = motivic.count._field_tables(spec)
    # the tables index elements by value: element i is spec.from_index(i)
    elems = [spec.from_index(i) for i in range(spec.order)]
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
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25, F27]))
    # P^3 over F11 has 1464 points, over F27 20440: enumerating them all
    # would take most of the run
    n = draw(st.integers(0, 3 if spec.order <= 9 else 2))
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


def _draw_factors(draw, spec, n, most):
    """1 to most factors of degree 1 or 2, some of them repeated or zero."""
    factors = []
    for _ in range(draw(st.integers(1, most))):
        kind = draw(st.sampled_from(["form", "form", "repeat", "zero"]))
        degree = draw(st.integers(1, 2))
        if kind == "repeat" and factors:
            factors.append(draw(st.sampled_from(factors)))
        elif kind == "zero":
            factors.append(HomogPoly.zero(spec, n + 1, degree))
        else:
            factors.append(_draw_form(draw, spec, n, degree))
    return factors


@st.composite
def _union_query(draw):
    """A union of 1 to 4 factors of degree 1 or 2, some of them repeated or
    zero, with a random chart."""
    spec, n, chart = _draw_space(draw)
    return CountQuery.union(spec, n, _draw_factors(draw, spec, n, 4), chart)


@given(st.one_of(_count_query(), _union_query()))
# the middle free coordinate of the strata x0 = 1 and x1 = 1 is x2, which
# the chart keeps nonzero
@example(query=_q(["x0*x1 + x2^2 - 3*x3^2", "x1*x3 + x2*x0 + x3^2"], F7, 3,
                  chart=((2, "nonzero"),)))
# no generator: every candidate of the chart counts
@example(query=_q([], F13, 2, chart=((1, "nonzero"),)))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pure_kernel_matches_enumeration(monkeypatch, query):
    # the reference walk reads a union's expanded product
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    assert count_points(query) == len(reference_points(query))
    # cost() is the number of candidates the count walks: with no
    # generator every one of them is a point
    space = CountQuery(query.spec, query.n, [], query.chart)
    assert query.cost() == space.cost() == count_points(space)


F1021 = prime_field(1021)


@st.composite
def _planned_query(draw):
    """A plain or union query for the planned pure kernel: 0 to 3 forms
    of degree 0 to 4 (constants, forms free of the last variable and pure
    powers of it among them) or a union of 1 to 3 factors, some zero, with
    random zero and nonzero constraints, the lead and last coordinates
    included.  The ambient dimension shrinks as the field grows, so that
    the brute-force walk stays small."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25, F27, F1021]))
    top = 4 if spec.order <= 7 else 3 if spec.order <= 13 else 2
    n = draw(st.integers(0, 1 if spec is F1021 else top))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(0, 4)))
                 for _ in range(draw(st.integers(0, 3)))]
        return CountQuery(spec, n, forms, chart)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(0, 3))
        if draw(st.integers(0, 4)) == 0:
            factors.append(HomogPoly.zero(spec, n + 1, degree))
        else:
            factors.append(_draw_form(draw, spec, n, degree))
    return CountQuery.union(spec, n, factors, chart)


def _count_by_strata(query):
    """_pure.count_stratum summed over the query's lead strata, each
    passed as the compiled kernel is passed it."""
    add, mul = motivic.count._field_tables(query.spec)
    polys, union = query._kernel_polys()
    offs, coeffs, exps, maxd = motivic.count._encode_generators(polys)
    powt = _pure._pow_table(query.spec.order, mul, maxd)[0]
    return sum(_pure.count_stratum(
        query.spec.order, query.n + 1, array("i", fixed),
        array("i", free_pos), array("i", free_start), len(polys), offs,
        coeffs, exps, mul, add, powt, maxd, union)
        for fixed, free_pos, free_start in motivic.count._strata(query))


@given(_planned_query())
# a union whose only factor is zero, in P^0
@example(query=CountQuery.union(F3, 0, [HomogPoly.zero(F3, 1, 2)]))
# a constant generator and a form free of the last variable
@example(query=CountQuery(F5, 2, [HomogPoly(F5, 3, 0, {(0, 0, 0): F5.one}),
                                  parse_poly("x0*x1", F5, 3)]))
@example(query=_q(["x0^2 - 2*x1^2", "x0*x1 + x2^2"], F5, 4,
                  ((0, "nonzero"), (4, "zero"))))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_planned_count_matches_strata_and_reference(monkeypatch, query):
    """count_points on the pure kernel, which plans a query once, counts
    what count_stratum counts stratum by stratum and what the brute-force
    walk finds."""
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    expected = len(reference_walk(query)[0])
    assert count_points(query) == _count_by_strata(query) == expected


def test_generators_are_split_once_per_query(monkeypatch):
    """A count and a point search read a query's generators once (_rows),
    whatever its number of strata, and derive each stratum from those rows
    without the per-stratum fold of _pure._fibre_terms."""
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    reads, folds = [], []
    rows, fibre_terms = motivic.count._rows, _pure._fibre_terms

    def reading(polys):
        reads.append(len(polys))
        return rows(polys)

    def folding(*args):
        folds.append(args)
        return fibre_terms(*args)

    monkeypatch.setattr(motivic.count, "_rows", reading)
    monkeypatch.setattr(_pure, "_fibre_terms", folding)
    f = parse_poly("x0*x1 - x2*x3", F5, 4)
    h = parse_poly("x0^2 + x1*x3 + x2^2", F5, 4)
    big = prime_field(1031)
    # four lead strata, and past the table limit two, x0 = 1 and x3 = 1
    for query in (CountQuery(F5, 3, [f, h]), CountQuery.union(F5, 3, [f, h]),
                  _q(["x0^2 - x3^2", "x0^3 - x0*x3^2"], big, 3,
                     ((1, "zero"), (2, "zero")))):
        reads.clear()
        expected = len(reference_walk(query)[0])
        assert count_points(query) == expected
        assert len(list(enumerate_points(query))) == expected
        assert reads == [len(query._kernel_polys()[0]),
                         len(query._kernel_polys()[0])]
    assert folds == []


def test_pure_kernel_adds_terms_that_fold_together():
    """count_stratum with fixed values other than 0 and 1, which _strata
    never passes: terms that differ only in fixed coordinates then fold
    onto one monomial of the fibre, and the kernel must add them up with
    one, two and three free positions."""
    q = 7
    # (coeff, exps) over x0..x4; the first two and the next two terms meet
    # once x0 and x1 are fixed
    gens = [[(2, (1, 0, 1, 0, 1)), (3, (0, 1, 1, 0, 1)), (1, (1, 0, 0, 1, 0)),
             (4, (0, 1, 0, 1, 0)), (1, (0, 0, 0, 0, 2)), (5, (1, 1, 0, 0, 0)),
             (1, (0, 0, 2, 0, 0))],
            [(1, (0, 0, 0, 0, 1)), (6, (0, 0, 0, 1, 0))]]
    maxd = 2
    tables = dict(
        gen_off=array("i", [0, len(gens[0]), len(gens[0]) + len(gens[1])]),
        gen_coeff=array("i", [c for terms in gens for c, _ in terms]),
        gen_exps=array("i", [e for terms in gens for _, exps in terms
                             for e in exps]),
        mul=array("i", [a * b % q for a in range(q) for b in range(q)]),
        add=array("i", [(a + b) % q for a in range(q) for b in range(q)]),
        powt=array("i", [pow(x, e, q) for x in range(q)
                         for e in range(maxd + 1)]),
        maxd=maxd)

    def vanishes(terms, point):
        return not sum(c * prod(pow(x, e, q) for x, e in zip(point, exps))
                       for c, exps in terms) % q

    for nfree in (1, 2, 3):
        for fixed in product((2, 3, 5), repeat=5 - nfree):
            fixed = list(fixed)
            points = [fixed + list(xs)
                      for xs in product(range(q), repeat=nfree)]
            free = dict(q=q, nvars=5, fixed=array("i", fixed + [0] * nfree),
                        free_pos=array("i", range(5 - nfree, 5)),
                        free_start=array("i", [0] * nfree), ngens=2)
            for union, test in ((0, all), (1, any)):
                expected = sum(1 for point in points if test(
                    vanishes(terms, point) for terms in gens))
                assert _pure.count_stratum(**free, **tables,
                                           union=union) == expected


def _binary_forms(spec, degree, up_to_scalar):
    """Every nonzero binary form of the degree over spec; with up_to_scalar
    only those whose first nonzero coefficient is 1."""
    monomials = [(degree - k, k) for k in range(degree + 1)]
    for values in product(range(spec.order), repeat=degree + 1):
        first = next((v for v in values if v), 0)
        if first == 1 or first and not up_to_scalar:
            yield HomogPoly(spec, 2, degree, {
                m: spec.from_index(v) for m, v in zip(monomials, values) if v})


@pytest.mark.parametrize("spec", [F3, F5, F7, F9, F27], ids=str)
def test_closed_form_roots_cover_every_binary_form(monkeypatch, spec):
    """The pure kernel solves fibres of degree 1 and 2 in closed form.  In
    P^1 the stratum x0 = 1 has x1 as its one free coordinate, so a binary
    form's coefficients reach the solver as the fibre's, and the stratum
    x0 = 0 has none.  Each form is counted plain, in a union with x0 - x1
    and off x1 = 0.  Over F27, where 2 = -1 and 4 = 1, the quadratics are
    taken up to a nonzero scalar (757 of 19682): a*x0^2 + b*x0*x1 + c*x1^2
    with a = 1 still reaches every inverse 1/(2c) and every discriminant
    b^2 - 4c the solver reads, and each of the 20 thousand would cost as
    much to enumerate."""
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    other = parse_poly("x0 - x1", spec, 2)
    for degree in (1, 2):
        up_to_scalar = degree == 2 and spec is F27
        for f in _binary_forms(spec, degree, up_to_scalar):
            for query in (CountQuery(spec, 1, [f]),
                          CountQuery.union(spec, 1, [f, other]),
                          CountQuery(spec, 1, [f], ((1, "nonzero"),))):
                assert count_points(query) == len(
                    reference_points(query)), query


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


@given(st.one_of(_count_query(), _union_query()))
@settings(max_examples=120, deadline=None)
def test_enumerate_points_matches_generic_walk(query):
    """The fibre walk yields the points of the brute-force walk, in the same
    order, as elements of the query's field."""
    pts = list(enumerate_points(query))
    assert pts == reference_points(query)
    assert all(c.spec is query.spec for pt in pts for c in pt)


def _points_within(query, budget):
    """(points, error text) of the fibre walk under budget: the points it
    yields before it stops, and the BudgetError it stops with, or None."""
    pts = []
    try:
        for pt in motivic.count._points(query, budget):
            pts.append(pt)
    except BudgetError as e:
        return pts, str(e)
    return pts, None


@st.composite
def _search_query(draw):
    """A plain or union query over F3-F13, F9 or F25 in P^0-P^3."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25]))
    n = draw(st.integers(0, 3))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 3)))]
        return CountQuery(spec, n, forms, chart)
    factors = [_draw_form(draw, spec, n, draw(st.integers(1, 2)))
               for _ in range(draw(st.integers(1, 3)))]
    return CountQuery.union(spec, n, factors, chart)


def _assert_searches_match_reference(query, more_budgets=()):
    """_first_point and enumerate_points against the brute-force walk at
    budgets k - 1, k and k + 1 around the first point's position k and the
    candidate count, and at more_budgets: a point at position k is
    returned iff k <= budget, the walk yields every point up to the budget
    and then raises once it passes budget candidates, and enumerate_points
    charges every candidate up front.  Returns the reference's points."""
    points, total = reference_walk(query)
    assert query.cost() == total
    budgets = {total - 1, total, total + 1, *more_budgets}
    if points:
        k = points[0][0]
        budgets |= {k - 1, k, k + 1}
    for budget in sorted(b for b in budgets if b >= 0):
        within = [pt for pos, pt in points if pos <= budget]
        passed = None
        if total > budget:
            passed = ("no point of %r among the first %d candidates, budget "
                      "is %d" % (query, budget, budget))
        assert _points_within(query, budget) == (within, passed)
        if within:
            assert motivic.count._first_point(query, budget) == within[0]
        elif passed:
            with pytest.raises(BudgetError) as err:
                motivic.count._first_point(query, budget)
            assert str(err.value) == passed
        else:
            assert motivic.count._first_point(query, budget) is None
        if total > budget:
            with pytest.raises(BudgetError) as err:
                next(enumerate_points(query, budget))
            assert str(err.value) == (
                "enumerating %r needs %d candidates, budget is %d"
                % (query, total, budget))
        else:
            assert list(enumerate_points(query, budget)) == within
    return points


@given(_search_query(), st.data())
# the first point of x0^2 - 2*x1^2 in P^1(F7) is (1 : 3), the 5th candidate
@example(query=_q(["x0^2 - 2*x1^2"], F7, 1), data=None)
@settings(max_examples=80, deadline=None)
def test_point_searches_match_reference_walk(query, data):
    """The fibre walk over tabulated fields, at the budgets of
    _assert_searches_match_reference and one more drawn budget."""
    more = ()
    if data is not None:
        more = [data.draw(st.integers(0, query.cost() + 1))]
    _assert_searches_match_reference(query, more)


@pytest.mark.parametrize("spec", [prime_field(1031), extension_field(37, 2)],
                         ids=str)
def test_point_searches_past_the_table_limit(spec):
    """Fields too large to tabulate test each value of a fibre in turn."""
    g = spec.gen() if spec.kind == "Fpm" else spec.elem(5)
    lines = [parse_poly("x0 - x1", spec, 2),
             HomogPoly(spec, 2, 1, {(1, 0): g, (0, 1): spec.one})]
    for query in [
            _q(["x0^2 - x1^2"], spec, 1),
            _q(["x0^3 - x1^3 + x0*x1^2"], spec, 1, ((1, "nonzero"),)),
            CountQuery.union(spec, 1, lines),
            _q(["x0*x1 - x2^2", "x1 - x2"], spec, 2, ((0, "zero"),))]:
        _assert_searches_match_reference(query)


F1031 = prime_field(1031)
F1369 = extension_field(37, 2)


@st.composite
def _query_past_the_table_limit(draw):
    """A plain query of 0 to 2 forms of degree 1 to 3, or a union of 1 to 3
    factors, some zero or repeated, over F1031 or F1369 in P^0-P^2 with a
    random chart.  In P^2 the chart sets some coordinate to zero, so that
    the brute-force walk stays near q candidates."""
    spec = draw(st.sampled_from([F1031, F1369]))
    n = draw(st.integers(0, 2))
    chart = {i: draw(st.sampled_from(["zero", "nonzero"]))
             for i in range(n + 1) if draw(st.booleans())}
    if n == 2 and "zero" not in chart.values():
        chart[draw(st.integers(0, 2))] = "zero"
    chart = sorted(chart.items())
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 2)))]
        return CountQuery(spec, n, forms, chart)
    return CountQuery.union(spec, n, _draw_factors(draw, spec, n, 3), chart)


@given(_query_past_the_table_limit(), st.data())
@settings(max_examples=30, deadline=None)
def test_walks_past_the_table_limit_match_reference_walk(query, data):
    """The modular fold against the brute-force walk: point searches over
    F1031 and F1369 at the budgets of _assert_searches_match_reference and
    one more drawn budget, and counts over F1031."""
    more = [data.draw(st.integers(0, query.cost() + 1))]
    points = _assert_searches_match_reference(query, more)
    if query.spec.kind == "Fp":
        assert count_points(query) == len(points)


@pytest.mark.parametrize("spec", [F5, F1031], ids=str)
def test_unions_are_never_expanded(monkeypatch, spec):
    """repr(), counts, point searches and their BudgetError texts take a
    union factor by factor: with HomogPoly.product refused, each gives
    what it gave with the expanded product."""
    chart = ((1, "zero"),)
    lines = [parse_poly(t, spec, 3) for t in ("x0 - x2", "x0 + 2*x2", "x0")]

    def unions():
        return [CountQuery.union(spec, 2, lines, chart),
                CountQuery.union(spec, 2, lines + [HomogPoly.zero(spec, 3, 1)],
                                 chart)]

    expected = []
    for query in unions():
        body = "; ".join(str(g) for g in query.generators) or "0"
        expected.append(("#V(%s) in P^2(F%d) | x1=0" % (body, spec.order),)
                        + reference_walk(query))

    def refuse(cls, polys):
        raise AssertionError("a union was expanded")

    monkeypatch.setattr(HomogPoly, "product", classmethod(refuse))
    for query, (text, points, total) in zip(unions(), expected):
        assert repr(query) == text
        assert count_points(query, budget=total) == len(points)
        assert list(enumerate_points(query, total)) == [p for _, p in points]
        assert motivic.count._first_point(query, total) == points[0][1]
        with pytest.raises(BudgetError) as err:
            count_points(query, budget=total - 1)
        assert str(err.value) == ("counting %s needs %d candidates, budget "
                                  "is %d" % (text, total, total - 1))
        with pytest.raises(BudgetError) as err:
            motivic.count._first_point(query, 0)
        assert str(err.value) == ("no point of %s among the first 0 "
                                  "candidates, budget is 0" % text)


def test_first_point_in_the_first_fibre_walks_that_fibre(monkeypatch):
    """Over F1021 in P^3, a point search whose first point lies in the
    first fibre finds each root set of that fibre alone: at most one call
    of the walker's roots function per generator, where a row of fibres
    over x_mid would take up to q."""
    calls = []
    finder = _pure._root_finder

    def counting_finder(q, mul, add):
        roots = finder(q, mul, add)

        def counted(coeffs):
            calls.append(coeffs)
            return roots(coeffs)
        return counted

    monkeypatch.setattr(_pure, "_root_finder", counting_finder)
    f = parse_poly("x0*x1 - x2*x3", F1021, 4)
    h = parse_poly("x0^2*x1 + x0*x2^2 - x3^3", F1021, 4)
    origin = tuple(F1021.elem(v) for v in (1, 0, 0, 0))
    for query in (CountQuery(F1021, 3, [f, h]),
                  CountQuery.union(F1021, 3, [h, f])):
        calls.clear()
        assert motivic.count._first_point(query) == origin
        assert 1 <= len(calls) <= len(query._kernel_polys()[0])
