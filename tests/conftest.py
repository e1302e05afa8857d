"""Shared helpers: trace verification, brute-force cross-checks and child
Python processes."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import motivic
from motivic.count import CountQuery, count_points
from motivic.fields import FieldElem
from motivic.poly import HomogPoly

_REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the `motivic` the suite imported: `src/` in a
# checkout, site-packages in an install.  Absolute, so a child finds the code
# under test from any working directory.
_IMPORT_ROOT = str(Path(motivic.__file__).resolve().parents[1])


def assert_trace_verifies(result, budget=None):
    """Every counting identity recorded in the trace must balance exactly."""
    checked = 0
    for step in result.trace:
        if step.identity is None:
            continue
        lv, rv = step.identity.sides(budget=budget)
        assert lv == rv, "%s: %d != %d" % (step.rule, lv, rv)
        checked += 1
    return checked


def brute_count(spec, n, gens):
    return count_points(CountQuery(spec, n, gens))


def scaled(f, c):
    """The form f times the scalar c, built term by term."""
    return HomogPoly(f.spec, f.nvars, f.degree,
                     {e: c * a for e, a in f.terms.items()})


def elem_rows(M):
    """The entries of the Matrix M as rows of FieldElems."""
    return [[FieldElem(M.spec, v) for v in row] for row in M.rows]


def projective_reps(spec, n):
    """All canonical representatives of P^n(F_q) as tuples of values, in
    the fixed order of motivic.points: leading position ascending, then the
    trailing coordinates as an odometer over the field's values in index
    order."""
    for lead in range(n + 1):
        head = (0,) * lead + (1,)
        for tail in product(range(spec.order), repeat=n - lead):
            yield head + tail


def reference_walk(query):
    """(points, candidates) of a CountQuery by brute force.

    Every candidate of the query's chart in P^n is visited in canonical
    order (projective_reps) and every generator is evaluated on its
    values, a union's being its expanded product; over F_{p^m} the values
    combine through the spec's _add, _mul and _pow.  Only the chart's
    candidates are walked: a coordinate constrained to zero takes only 0
    and one constrained nonzero starts at 1.  points lists each point found
    as (walk position, tuple of values), the first candidate being at
    position 1; candidates is how many there are.
    """
    spec, n = query.spec, query.n
    q = spec.order
    if spec.kind == "Fp":
        def add(a, b):
            return (a + b) % q

        def mul(a, b):
            return a * b % q

        def power(a, e):
            return pow(a, e, q)
    else:
        add, mul, power = spec._add, spec._mul, spec._pow
    gens = [[(c.value, e) for e, c in g.terms.items()]
            for g in query.generators]

    def vanishes(terms, idx):
        acc = 0
        for c, exps in terms:
            for x, e in zip(idx, exps):
                if e:
                    c = mul(c, power(x, e))
            acc = add(acc, c)
        return not acc

    chart = dict(query.chart)
    values = {None: range(q), "zero": range(1), "nonzero": range(1, q)}
    points = []
    walked = 0
    for lead in range(n + 1):
        tails = [values[chart.get(i)] for i in range(lead + 1, n + 1)]
        for tail in product(*tails):
            idx = (0,) * lead + (1,) + tail
            if any((kind == "zero") != (idx[i] == 0)
                   for i, kind in chart.items()):
                continue
            walked += 1
            if all(vanishes(terms, idx) for terms in gens):
                points.append((walked, idx))
    return points, walked


def reference_points(query):
    """The points of reference_walk(query), in walk order."""
    return [pt for _, pt in reference_walk(query)[0]]


def run_python(args, env, root=None, timeout=None):
    """Run the suite's interpreter with `args` from the repo root.

    `env` is the child's whole environment, with the directory holding the
    `motivic` under test put first on its PYTHONPATH, so the child imports
    the same copy of the package as the suite.  Given `root`, a copy of the
    checkout, the child runs there on `root/src` instead.  Given `timeout`
    in seconds, a child still running then is killed and
    subprocess.TimeoutExpired raised, so a hang fails the test.
    """
    cwd, import_root = _REPO_ROOT, _IMPORT_ROOT
    if root is not None:
        cwd, import_root = root, str(Path(root, "src"))
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=timeout)
