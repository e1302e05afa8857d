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


def test_pure_kernel_agrees_in_subprocess():
    """MOTIVIC_PURE=1 swaps in the interpreted kernel at import time; the
    counts must not change."""
    code = (
        "import motivic\n"
        "from motivic.count import CountQuery, count_points, HAVE_COMPILED\n"
        "from motivic.fields import prime_field, extension_field\n"
        "from motivic.parse import parse_poly\n"
        "assert not HAVE_COMPILED\n"
        "F3 = prime_field(3); F9 = extension_field(3, 2)\n"
        "vals = [\n"
        "  count_points(CountQuery(F3, 3, [parse_poly('x0*x1 + x2*x3', F3, 4)])),\n"
        "  count_points(CountQuery(F3, 2, [])),\n"
        "  count_points(CountQuery(F9, 2, [parse_poly('x0*x1 - x2^2', F9, 3)])),\n"
        "]\n"
        "print(vals)\n"
        "print(motivic.__file__)\n"
    )
    # A minimal environment, so no other MOTIVIC_* setting leaks in.
    out = run_python(["-c", code], {"PATH": "/usr/bin:/bin",
                                    "MOTIVIC_PURE": "1"})
    assert out.returncode == 0, out.stderr
    vals, where = out.stdout.splitlines()
    assert vals == "[16, 13, 10]"
    assert Path(where) == Path(motivic.__file__).resolve()


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
print(motivic.__file__)
for spec, n, polys, chart in CASES:
    query = CountQuery(spec, n, [parse_poly(s, spec, n + 1) for s in polys],
                       chart)
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
direct = [ckernel.count_stratum(**args), _pure.count_stratum(**args),
          ckernel.count_stratum(*args.values())]
errors = []
for key, bad in [("fixed", array("q", [1, 0])),
                 ("mul", array("i", args["mul"][:-1])),
                 ("gen_exps", array("i", [0, 2]))]:
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
    built = run_python(["setup.py", "build_ext", "--inplace"], env,
                       root=tmp_path)
    assert built.returncode == 0, built.stdout + built.stderr

    out = run_python(["-c", _COMPILED_CHECK], env, root=tmp_path)
    assert out.returncode == 0, out.stderr
    where, *rows, kernel_calls = out.stdout.splitlines()
    assert Path(where).is_relative_to(tmp_path)
    counts = [json.loads(r) for r in rows]
    assert counts == [[c] * 4 for c in (16, 13, 9, 31, 25, 1, 10, 10)]
    direct, errors = json.loads(kernel_calls)
    assert direct == [1, 1, 1]  # x1 = 0 on the line x0 = 1
    assert len(errors) == 3
    assert "fixed has item size 8" in errors[0]
    assert "len(mul) is 8, expected 9" in errors[1]
    assert "gen_exps[1] is 2, outside [0, 2)" in errors[2]


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


@st.composite
def _count_query(draw):
    """A query over a small field: 0 to 3 forms of degree 1 to 4, some free
    of the last variable or pure powers of it, and a random chart."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F25]))
    # P^3 over F25 has 16276 points, too many to enumerate here
    n = draw(st.integers(0, 3 if spec.order < 25 else 2))
    nonzero = st.integers(1, spec.order - 1).map(spec.from_index)
    forms = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(1, 4))
        shape = draw(st.sampled_from(["any", "no last", "power of last"]))
        if shape == "power of last" or n == 0:
            exps = tuple([0] * n + [degree])
            forms.append(HomogPoly(spec, n + 1, degree, {exps: draw(nonzero)}))
            continue
        width = n + 1 if shape == "any" else n
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            exps = [0] * (n + 1)
            for i in draw(st.lists(st.integers(0, width - 1),
                                   min_size=degree, max_size=degree)):
                exps[i] += 1
            terms[tuple(exps)] = draw(nonzero)
        forms.append(HomogPoly(spec, n + 1, degree, terms))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    return CountQuery(spec, n, forms, chart)


@given(_count_query())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pure_kernel_matches_enumeration(monkeypatch, query):
    monkeypatch.setattr(motivic.count, "_ckernel", None)
    assert count_points(query) == len(list(enumerate_points(query)))
