import random

import pytest

from conftest import assert_trace_verifies, brute_count
from motivic.fields import prime_field, rationals
from motivic.kclass import ClassExpr, VarietyAtom
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import class_of_singular_cubic, find_singular_rational_point

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()


def test_nodal_plane_cubic_singular_point():
    for spec in (F5, F7):
        f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", spec, 3)
        pt = find_singular_rational_point(f)
        assert tuple(v.value for v in pt) == (0, 0, 1)


def test_smooth_conic_has_no_singular_point():
    f = parse_poly("x0*x1 - x2^2", F5, 3)
    assert find_singular_rational_point(f) is None


def test_singular_search_canonical_order():
    # over F3 the term 3*x0^2 of the x0-partial vanishes identically, so
    # (0:1:0:0) is singular too and precedes (0:0:0:1) in enumeration order
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    pt = find_singular_rational_point(f)
    assert tuple(v.value for v in pt) == (0, 1, 0, 0)
    # the apex itself is singular as well
    apex = [F3.zero, F3.zero, F3.zero, F3.one]
    assert f.evaluate(apex).is_zero()
    for i in range(4):
        assert f.partial_derivative(i).evaluate(apex).is_zero()


def test_rational_singular_search():
    # over Q the search walks points up to the given height and asks every
    # partial to vanish too: f alone vanishes earlier, at (1:-10:-3:-1)
    f = parse_poly("x0*x1*x3 - x0*x2^2 + x3^3", Q, 4)
    pt = find_singular_rational_point(f)
    assert tuple(v.value for v in pt) == (1, 0, 0, 0)
    # the apex (0:0:0:1) of x0*x1*x3 - x2^2*x3 + x0^3 is singular too, but
    # (0:1:0:0) comes first
    g = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", Q, 4)
    pt = find_singular_rational_point(g, height=1)
    assert tuple(v.value for v in pt) == (0, 1, 0, 0)
    # the Fermat cubic is smooth, though it has rational points
    fermat = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", Q, 4)
    assert fermat.evaluate([1, -1, 0, 0]).is_zero()
    assert find_singular_rational_point(fermat, height=2) is None


def test_cubic_surface_with_conic_f2():
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 1))
    f2 = parse_poly("x0*x1 - x2^2", F3, 3)
    f3 = parse_poly("x0^3", F3, 3)
    expected = ClassExpr(
        {0: 1, 2: 1}, [(1, 1, VarietyAtom(F3, 2, [f2, f3]))]
    )
    assert r.class_expr == expected
    assert r.residue == 1
    assert r.class_expr.count_measure(3) == 13 == brute_count(F3, 3, [f])
    hyps = dict(r.hypotheses)
    assert hyps["f1_forced_zero"] and not hyps["f2_zero_cone_route"]
    assert_trace_verifies(r)


def test_auto_point_gives_valid_stratification():
    # auto search picks (0:1:0:0); the identities must still balance
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    r = class_of_singular_cubic(f)
    assert r.class_expr.count_measure(3) == 13
    assert_trace_verifies(r)


def test_rank_two_f2():
    f = parse_poly("x3*x0*x1 + x0^3", F5, 4)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 1))
    assert r.class_expr.count_measure(5) == brute_count(F5, 3, [f])
    assert r.residue == 1
    assert r.class_expr.count_measure(5) % 5 == 1
    assert_trace_verifies(r)


def test_f2_zero_delegates_to_cone():
    # no x3 at all: the cubic is a cone over the plane Fermat curve
    f = parse_poly("x0^3 + x1^3 + x2^3", F5, 4)
    r = class_of_singular_cubic(f)
    hyps = dict(r.hypotheses)
    assert hyps["f2_zero_cone_route"]
    assert "cubic-is-cone" in [s.rule for s in r.trace]
    assert r.class_expr.count_measure(5) == 31 == brute_count(F5, 3, [f])
    assert r.residue == 1
    assert_trace_verifies(r)


def test_fourfold_case():
    f = parse_poly("x0*x1*x4 + x2^2*x4 + x3^2*x4 + x0^3 + x1^3", F3, 5)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 0, 1))
    assert r.class_expr.count_measure(3) == brute_count(F3, 4, [f])
    assert r.residue == 1
    assert_trace_verifies(r)


def test_rational_singular_cubic():
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", Q, 4)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 1))
    assert r.residue == 1
    assert any(a.kind == "variety" for _, _, a in r.class_expr.residuals)


def test_validation_errors():
    with pytest.raises(ValueError, match="degree"):
        class_of_singular_cubic(parse_poly("x0^2", F3, 4))
    with pytest.raises(ValueError, match="zero"):
        class_of_singular_cubic(HomogPoly.zero(F3, 4, 3))
    with pytest.raises(ValueError, match="at least 3"):
        class_of_singular_cubic(parse_poly("x1^2*x2 - x0^3", F5, 3))
    smooth = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", F5, 4)
    with pytest.raises(ValueError, match="no singular rational point"):
        class_of_singular_cubic(smooth)
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    with pytest.raises(ValueError, match="not singular"):
        class_of_singular_cubic(f, x=(1, 1, 1, 1))
    with pytest.raises(ValueError, match="zero vector"):
        class_of_singular_cubic(f, x=(0, 0, 0, 0))


def test_randomized_apex_cubics():
    """Cubics built as x_n*f2 + f3 are singular at the apex by construction;
    measure must equal brute count on every draw."""
    rng = random.Random(31)
    for trial in range(10):
        spec = (F3, F5)[trial % 2]
        q = spec.p
        nvars = 4
        f2 = _random_form(rng, spec, nvars - 1, 2)
        f3 = _random_form(rng, spec, nvars - 1, 3)
        if f2.is_zero() and f3.is_zero():
            continue
        apex = HomogPoly.variable(spec, nvars, nvars - 1)
        f = apex * f2.insert_variable(nvars - 1) + f3.insert_variable(nvars - 1)
        if f.is_zero():
            continue
        r = class_of_singular_cubic(f, x=(0,) * (nvars - 1) + (1,))
        assert r.class_expr.count_measure(q) == brute_count(spec, nvars - 1, [f])
        assert_trace_verifies(r)


def _random_form(rng, spec, nvars, degree):
    from itertools import combinations_with_replacement

    terms = {}
    for combo in combinations_with_replacement(range(nvars), degree):
        c = rng.randrange(spec.p)
        if c:
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            terms[tuple(e)] = spec.elem(c)
    return HomogPoly(spec, nvars, degree, terms) if terms else HomogPoly.zero(
        spec, nvars, degree
    )
