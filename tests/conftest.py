"""Shared helpers: a reference field element, trace verification,
brute-force cross-checks and child Python processes."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import motivic
from motivic.count import CountQuery, count_points
from motivic.fields import _schoolbook_mul, _schoolbook_pow
from motivic.kclass import Counts
from motivic.poly import HomogPoly

_REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the `motivic` the suite imported: `src/` in a
# checkout, site-packages in an install.  Absolute, so a child finds the code
# under test from any working directory.
_IMPORT_ROOT = str(Path(motivic.__file__).resolve().parents[1])


def assert_trace_verifies(result, spec):
    """Every counting identity recorded in the trace must balance exactly
    when counted over spec, through one Counts."""
    counts = Counts(spec) if spec.is_finite else None
    checked = 0
    for step in result.trace:
        if step.identity is None:
            continue
        lv, rv = step.identity.sides(counts)
        assert lv == rv, "%s: %d != %d" % (step.rule, lv, rv)
        checked += 1
    return checked


def brute_count(spec, n, gens):
    return count_points(CountQuery(spec, n, gens))


class Ref:
    """A reference field element: a spec and a value, with operators.

    The operators never call the spec's value arithmetic (_add, _mul,
    _pow, _neg, _inv), so a check against Ref checks that arithmetic
    instead of repeating it.  Over F_p they are residue arithmetic and
    over Q Fraction arithmetic, written out here.  Over F_{p^m} a sum goes
    digit by digit, and a product or a power through the schoolbook
    product on digits (fields._schoolbook_mul and _schoolbook_pow), never
    through the index tables.  Operands must be Refs of one field: an int
    is never promoted, so that 3 * a cannot mean an index where a
    literal was meant.  Build literals with lit.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec, value):
        if spec.is_finite:
            assert type(value) is int and 0 <= value < spec.order, value
        else:
            value = Fraction(value)
        self.spec = spec
        self.value = value

    def _other(self, other):
        if type(other) is not Ref:
            raise TypeError("a Ref combines only with a Ref, got %r"
                            % (other,))
        if other.spec is not self.spec:
            raise ValueError("mixed fields: %s vs %s"
                             % (self.spec, other.spec))
        return other.value

    def _digits(self, v):
        p = self.spec.p
        return tuple(v // p**k % p for k in range(self.spec.m))

    def _index(self, digits):
        p = self.spec.p
        return sum(c * p**k for k, c in enumerate(digits))

    def __add__(self, other):
        b, s = self._other(other), self.spec
        if s.kind == "Q":
            return Ref(s, self.value + b)
        if s.kind == "Fp":
            return Ref(s, (self.value + b) % s.p)
        return Ref(s, self._index(
            (x + y) % s.p for x, y in zip(self._digits(self.value),
                                          self._digits(b))))

    def __neg__(self):
        s = self.spec
        if s.kind == "Q":
            return Ref(s, -self.value)
        if s.kind == "Fp":
            return Ref(s, -self.value % s.p)
        return Ref(s, self._index(-x % s.p for x in self._digits(self.value)))

    def __sub__(self, other):
        self._other(other)
        return self + (-other)

    def __mul__(self, other):
        b, s = self._other(other), self.spec
        if s.kind == "Q":
            return Ref(s, self.value * b)
        if s.kind == "Fp":
            return Ref(s, self.value * b % s.p)
        return Ref(s, self._index(_schoolbook_mul(
            s, self._digits(self.value), self._digits(b))))

    def __pow__(self, e):
        s = self.spec
        if e < 0:
            return self.inverse() ** -e
        if s.kind == "Q":
            return Ref(s, self.value ** e)
        if s.kind == "Fp":
            return Ref(s, pow(self.value, e, s.p))
        return Ref(s, self._index(
            _schoolbook_pow(s, self._digits(self.value), e)))

    def inverse(self):
        s = self.spec
        if not self.value:
            raise ZeroDivisionError("inverse of zero in %s" % s)
        if s.kind == "Q":
            return Ref(s, 1 / self.value)
        return self ** (s.order - 2)

    def __truediv__(self, other):
        self._other(other)
        return self * other.inverse()

    def __eq__(self, other):
        return (type(other) is Ref and self.spec is other.spec
                and self.value == other.value)

    def __hash__(self):
        return hash((self.spec, self.value))

    def is_zero(self):
        return not self.value

    def __repr__(self):
        return "Ref(%s, %r)" % (self.spec, self.value)


def lit(spec, x):
    """The Ref of the numeric literal x, an int or a Fraction: an element
    of the prime field, or of Q over Q, never an index over F_{p^m}."""
    if not spec.is_finite:
        return Ref(spec, Fraction(x))
    p = spec.p
    x = Fraction(x)
    assert x.denominator % p, "denominator divisible by %d" % p
    return Ref(spec, x.numerator * pow(x.denominator, -1, p) % p)


def ref_terms(f):
    """The coefficients of the form f as Refs."""
    return {e: Ref(f.spec, v) for e, v in f.coeffs.items()}


def ref_rows(M):
    """The entries of the Matrix M as rows of Refs."""
    return [[Ref(M.spec, v) for v in row] for row in M.rows]


def scaled(f, c):
    """The form f times the Ref c, built term by term."""
    return HomogPoly(f.spec, f.nvars, f.degree,
                     {e: (c * a).value for e, a in ref_terms(f).items()})


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
    gens = [[(c, e) for e, c in g.coeffs.items()]
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
