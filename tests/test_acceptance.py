"""End-to-end acceptance battery.

One test per contract item, each finishing with a single PASS line; a failed
assertion fails the test before its line is printed, so the pytest verdict
and the printed line always agree.  All arithmetic is exact, tolerance zero.
"""

import functools
import random
import time
from itertools import combinations_with_replacement

from conftest import Ref, assert_trace_verifies, brute_count, scaled
from motivic.cli import main
from motivic.count import CountQuery, count_points
from motivic.descent import (
    GaloisContext,
    _descend_core,
    _span_cocycle,
    class_of_descended_arrangement,
    h90_trivialize,
)
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import Counts, projective_space_class
from motivic.linalg import Matrix
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import (
    _coeff_rows,
    arrangement_inclusion_exclusion,
    class_of_arrangement,
    class_of_cone,
    class_of_quadric,
    class_of_singular_cubic,
    class_of_two_quadric_union,
)

F3 = prime_field(3)
F5 = prime_field(5)
F9 = extension_field(3, 2)
Q = rationals()


def _random_form(rng, spec, nvars, degree):
    terms = {}
    for pick in combinations_with_replacement(range(nvars), degree):
        c = rng.randrange(spec.p)
        if c:
            e = [0] * nvars
            for i in pick:
                e[i] += 1
            terms[tuple(e)] = c
    if not terms:
        return HomogPoly.zero(spec, nvars, degree)
    return HomogPoly(spec, nvars, degree, terms)


@functools.lru_cache(maxsize=1)
def _quadric_battery():
    """300 random quadrics with their engine results and brute counts."""
    rng = random.Random(101)
    out = []
    start = time.monotonic()
    for q in (3, 5, 7):
        spec = prime_field(q)
        for n in (1, 2, 3, 4):
            done = 0
            while done < 25:
                f = _random_form(rng, spec, n + 1, 2)
                if f.is_zero():
                    continue
                done += 1
                r = class_of_quadric(f)
                out.append((q, n, f, r, brute_count(spec, n, [f])))
    return out, time.monotonic() - start


def test_quadric_master_counting_invariant():
    battery, elapsed = _quadric_battery()
    assert len(battery) == 300
    for q, n, f, r, count in battery:
        assert r.class_expr.count_measure(Counts(prime_field(q))) == count
    assert elapsed < 60.0
    print("acceptance: quadric counting invariant on 300 forms "
          "(%.1fs): PASS" % elapsed)


def test_quadric_residue_and_congruence():
    battery, _ = _quadric_battery()
    for q, n, f, r, count in battery:
        if n >= 2:
            assert r.residue == 1
            assert count % q == 1
    # binary forms with no zero sit outside the theorem: residue 0, count 0
    for q in (3, 5, 7):
        spec = prime_field(q)
        squares = {(i * i) % q for i in range(1, q)}
        c = next(c for c in range(1, q) if (q - c) % q not in squares)
        f = parse_poly("x0^2 + %d*x1^2" % c, spec, 2)
        r = class_of_quadric(f)
        assert r.residue == 0
        assert r.class_expr.count_measure(Counts(spec)) == 0
        assert brute_count(spec, 1, [f]) == 0
    print("acceptance: quadric residue 1 and count = 1 mod q, "
          "anisotropic binary residue 0: PASS")


def test_arrangement_double_computation():
    rng = random.Random(103)
    finite_checked = 0
    for trial in range(200):
        spec = (F3, F5, Q)[trial % 3]
        n = rng.randrange(1, 6)
        d = rng.randrange(1, n + 1)
        forms = []
        while len(forms) < d:
            if spec.is_finite:
                coeffs = [rng.randrange(spec.p) for _ in range(n + 1)]
            else:
                coeffs = [rng.randrange(-4, 5) for _ in range(n + 1)]
            if not any(coeffs):
                continue
            terms = {
                tuple(1 if j == i else 0 for j in range(n + 1)): c
                for i, c in enumerate(coeffs)
                if c
            }
            forms.append(HomogPoly(spec, n + 1, 1, terms))
        r = class_of_arrangement(forms)
        assert r.class_expr == arrangement_inclusion_exclusion(forms)
        assert r.class_expr.coeffs.get(0) == 1
        if spec.is_finite:
            product = forms[0]
            for h in forms[1:]:
                product = product * h
            assert r.class_expr.count_measure(Counts(spec)) == brute_count(
                spec, n, [product]
            )
            finite_checked += 1
        assert_trace_verifies(r, spec)
    assert finite_checked > 100
    print("acceptance: 200 arrangements, both routes identical, "
          "constant term 1, counts match: PASS")


def _random_rational_arrangement(rng, base, n, d):
    forms = []
    while len(forms) < d:
        coeffs = [rng.randrange(base.p) for _ in range(n + 1)]
        if not any(coeffs):
            continue
        terms = {
            tuple(1 if j == i else 0 for j in range(n + 1)): c
            for i, c in enumerate(coeffs)
            if c
        }
        forms.append(HomogPoly(base, n + 1, 1, terms))
    return forms


def test_galois_descent_battery():
    rng = random.Random(104)
    for trial in range(100):
        p, m = ((3, 2), (5, 2), (3, 3), (5, 3))[trial % 4]
        ctx = GaloisContext(prime_field(p), extension_field(p, m))
        n = rng.randrange(2, 4)
        d = rng.randrange(1, n + 1)
        rational = _random_rational_arrangement(rng, ctx.base, n, d)
        # the base values are the extension's values below p
        lifted = [HomogPoly(ctx.ext, h.nvars, 1, h.coeffs) for h in rational]

        # scalar scramble: same hyperplanes, extension coefficients
        scrambled = []
        for h in lifted:
            while True:
                lam = Ref(ctx.ext, rng.randrange(ctx.ext.order))
                if not lam.is_zero():
                    break
            scrambled.append(scaled(h, lam))
        rng.shuffle(scrambled)
        _, cocycle = _span_cocycle(ctx, scrambled)
        assert cocycle is not None
        assert cocycle.condition_holds(ctx)
        B = h90_trivialize(ctx, cocycle, seed=trial)
        for i in range(1, len(cocycle.images)):
            assert cocycle.images[i] * ctx.frobenius_matrix(B, i) == B

        r = class_of_descended_arrangement(ctx, scrambled, n, seed=trial)
        product = rational[0]
        for h in rational[1:]:
            product = product * h
        assert r.class_expr.count_measure(Counts(ctx.base)) == brute_count(
            ctx.base, n, [product]
        )
        assert_trace_verifies(r, ctx.base)

        # matrix scramble: same span, mixed basis
        rows = Matrix(ctx.base, _coeff_rows(rational)).rref()[0]
        rows = Matrix(ctx.base, [row for row in rows.rows if any(row)])
        rank = rows.nrows
        while True:
            S = Matrix(ctx.ext, [
                [rng.randrange(ctx.ext.order) for _ in range(rank)]
                for _ in range(rank)
            ])
            if S.rank() == rank:
                break
        # the base values are the extension's values below p
        mixed = (S * Matrix(ctx.ext, rows.rows)).rows
        span_forms = []
        for row in mixed:
            terms = {
                tuple(1 if j == i else 0 for j in range(n + 1)): row[i]
                for i in range(n + 1)
                if row[i]
            }
            span_forms.append(HomogPoly(ctx.ext, n + 1, 1, terms))
        _, _, _, R = _descend_core(ctx, span_forms, seed=trial)
        assert R.spec == ctx.base and R == rows

    # fixed conjugate pair over F9/F3 against brute force
    ctx = GaloisContext(F3, F9)
    t = Ref(F9, F9.p)
    for ambient, expected in ((2, 1), (3, 4)):
        x0 = HomogPoly.variable(F9, ambient + 1, 0)
        x1 = HomogPoly.variable(F9, ambient + 1, 1)
        pair = [x0 + scaled(x1, t), x0 - scaled(x1, t)]
        r = class_of_descended_arrangement(ctx, pair, ambient)
        assert r.class_expr.count_measure(Counts(F3)) == expected
        f_base = parse_poly("x0^2 + x1^2", F3, ambient + 1)
        assert brute_count(F3, ambient, [f_base]) == expected
    print("acceptance: 100 descents (stability, H90 equation, span, "
          "counting invariant) plus fixed F9/F3 pair: PASS")


def test_singular_cubic_battery():
    rng = random.Random(105)
    cone_routed = 0
    for trial in range(100):
        q, n = ((3, 3), (5, 3), (3, 4), (5, 4))[trial % 4]
        spec = prime_field(q)
        if trial % 10 == 0:
            q2 = HomogPoly.zero(spec, n, 2)
        else:
            while True:
                q2 = _random_form(rng, spec, n, 2)
                if not q2.is_zero():
                    break
        while True:
            c3 = _random_form(rng, spec, n, 3)
            if not c3.is_zero():
                break
        xn = HomogPoly.variable(spec, n + 1, n)
        f = xn * q2.insert_variable(n) + c3.insert_variable(n)
        point = (0,) * n + (1,)
        r = class_of_singular_cubic(f, x=point)
        hyps = dict(r.hypotheses)
        if q2.is_zero():
            assert hyps["f2_zero_cone_route"]
            cone_routed += 1
        assert r.residue == 1
        count = brute_count(spec, n, [f])
        assert count % q == 1
        assert r.class_expr.count_measure(Counts(spec)) == count
        assert_trace_verifies(r, spec)
    assert cone_routed == 10
    print("acceptance: 100 singular cubics, three-strata identity, "
          "residue 1, count = 1 mod q, cone subcase: PASS")


def test_two_quadric_union_battery():
    rng = random.Random(106)
    start = time.monotonic()
    done = 0
    while done < 50:
        f1 = _random_form(rng, F3, 5, 2)
        f2 = _random_form(rng, F3, 5, 2)
        if f1.is_zero() or f2.is_zero():
            continue
        try:
            r = class_of_two_quadric_union(f1, f2)
        except ValueError:
            continue  # configuration precondition failed: resample
        done += 1
        rules = [s.rule for s in r.trace]
        for expected in ("union-scissor", "chart-split", "open-chart-cubic",
                         "infinity-hyperplane", "closed-chart-fibration",
                         "singular-containment"):
            if "identical-quadrics" in rules:
                break
            assert expected in rules
        if "singular-containment" in rules:
            sing = next(s for s in r.trace
                        if s.rule == "singular-containment")
            assert sing.check["all_singular"] is True
        count = brute_count(F3, 4, [f1 * f2])
        assert count % 3 == 1
        assert r.class_expr.count_measure(Counts(F3)) == count
        assert_trace_verifies(r, F3)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("acceptance: 50 two-quadric unions, identities balance, "
          "singular containment, count = 1 mod 3 (%.1fs): PASS" % elapsed)


def test_reference_fixtures():
    # nodal plane cubic: count divisible by q, matching a class with
    # constant term 0
    for q in (5, 7):
        spec = prime_field(q)
        f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", spec, 3)
        assert brute_count(spec, 2, [f]) % q == 0

    # cone over a plane cubic: 1 + q*#Z = #X
    z = parse_poly("x0^3 + x1^3 + x2^3", F5, 3)
    r = class_of_cone([z])
    nz = brute_count(F5, 2, [z])
    nx = brute_count(F5, 3, [z.insert_variable(3)])
    assert 1 + 5 * nz == nx
    assert r.class_expr.count_measure(Counts(F5)) == nx
    assert r.class_expr.coeffs == {0: 1}
    assert [(s, c) for s, c, _ in r.class_expr.residuals] == [(1, 1)]

    # projective spaces against enumeration
    for q in (3, 5, 7):
        spec = prime_field(q)
        for n in range(5):
            assert projective_space_class(n).count_measure(
                Counts(spec)) == count_points(CountQuery(spec, n, []))
    print("acceptance: nodal cubic, cone identity, projective space "
          "fixtures: PASS")


def test_reports_are_deterministic(capsys):
    battery = [
        ["class-quadric", "--field", "3", "--ambient", "3",
         "--poly", "x0*x1 - x2*x3", "--json"],
        ["class-arrangement", "--field", "5", "--ambient", "3",
         "--form", "x0", "--form", "x1", "--form", "x0 + x1 + x2",
         "--json"],
        ["class-cone", "--field", "5", "--ambient", "3",
         "--poly", "x0^3 + x1^3 + x2^3", "--json"],
        ["class-cubic-singular", "--field", "3", "--ambient", "3",
         "--poly", "x0*x1*x3 - x2^2*x3 + x0^3", "--point", "0,0,0,1",
         "--json"],
        ["class-two-quadrics", "--field", "3", "--ambient", "4",
         "--poly", "x0*x1 - x2*x3 - x4^2", "--poly", "x0^2 + x1*x2 + x3*x4",
         "--json"],
        ["descend", "--field", "3,2", "--ambient", "2",
         "--form", "x0 + t*x1", "--form", "x0 - t*x1",
         "--seed", "3", "--json"],
        ["count", "--field", "7", "--ambient", "2",
         "--poly", "x0*x1 - x2^2", "--json"],
    ]

    def run_all():
        chunks = []
        for argv in battery:
            assert main(list(argv)) == 0
            chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    first = run_all()
    second = run_all()
    assert first == second
    print("acceptance: report battery byte-identical across runs: PASS")
