import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_trace_verifies, brute_count
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import ClassExpr, Counts, VarietyAtom
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import (
    _gradient_at,
    _is_singular_at,
    class_of_singular_cubic,
    find_singular_rational_point,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()


def test_nodal_plane_cubic_singular_point():
    for spec in (F5, F7):
        f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", spec, 3)
        pt = find_singular_rational_point(f)
        assert pt == (0, 0, 1)


def test_smooth_conic_has_no_singular_point():
    f = parse_poly("x0*x1 - x2^2", F5, 3)
    assert find_singular_rational_point(f) is None


def test_singular_search_canonical_order():
    # over F3 the term 3*x0^2 of the x0-partial vanishes identically, so
    # (0:1:0:0) is singular too and precedes (0:0:0:1) in enumeration order
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    pt = find_singular_rational_point(f)
    assert pt == (0, 1, 0, 0)
    # the apex itself is singular as well
    apex = [F3.zero, F3.zero, F3.zero, F3.one]
    assert not f.evaluate(apex)
    for i in range(4):
        assert not f.partial_derivative(i).evaluate(apex)


def test_rational_singular_search():
    # over Q the search walks points up to the given height and asks every
    # partial to vanish too: f alone vanishes earlier, at (1:-10:-3:-1)
    f = parse_poly("x0*x1*x3 - x0*x2^2 + x3^3", Q, 4)
    pt = find_singular_rational_point(f)
    assert pt == (1, 0, 0, 0)
    # the apex (0:0:0:1) of x0*x1*x3 - x2^2*x3 + x0^3 is singular too, but
    # (0:1:0:0) comes first
    g = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", Q, 4)
    pt = find_singular_rational_point(g, height=1)
    assert pt == (0, 1, 0, 0)
    # the Fermat cubic is smooth, though it has rational points
    fermat = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", Q, 4)
    assert not fermat.evaluate([Fraction(v) for v in (1, -1, 0, 0)])
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
    assert (r.class_expr.count_measure(Counts(F3)) == 13
            == brute_count(F3, 3, [f]))
    hyps = dict(r.hypotheses)
    assert hyps["f1_forced_zero"] and not hyps["f2_zero_cone_route"]
    assert_trace_verifies(r, F3)


def test_auto_point_gives_valid_stratification():
    # auto search picks (0:1:0:0); the identities must still balance
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", F3, 4)
    r = class_of_singular_cubic(f)
    assert r.class_expr.count_measure(Counts(F3)) == 13
    assert_trace_verifies(r, F3)


def test_rank_two_f2():
    f = parse_poly("x3*x0*x1 + x0^3", F5, 4)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 1))
    assert r.class_expr.count_measure(Counts(F5)) == brute_count(F5, 3, [f])
    assert r.residue == 1
    assert r.class_expr.count_measure(Counts(F5)) % 5 == 1
    assert_trace_verifies(r, F5)


def test_f2_zero_delegates_to_cone():
    # no x3 at all: the cubic is a cone over the plane Fermat curve
    f = parse_poly("x0^3 + x1^3 + x2^3", F5, 4)
    r = class_of_singular_cubic(f)
    hyps = dict(r.hypotheses)
    assert hyps["f2_zero_cone_route"]
    assert "cubic-is-cone" in [s.rule for s in r.trace]
    assert (r.class_expr.count_measure(Counts(F5)) == 31
            == brute_count(F5, 3, [f]))
    assert r.residue == 1
    assert_trace_verifies(r, F5)


def test_fourfold_case():
    f = parse_poly("x0*x1*x4 + x2^2*x4 + x3^2*x4 + x0^3 + x1^3", F3, 5)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 0, 1))
    assert r.class_expr.count_measure(Counts(F3)) == brute_count(F3, 4, [f])
    assert r.residue == 1
    assert_trace_verifies(r, F3)


def test_rational_singular_cubic():
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", Q, 4)
    r = class_of_singular_cubic(f, x=(0, 0, 0, 1))
    assert r.residue == 1
    assert any(isinstance(a, VarietyAtom) for _, _, a in r.class_expr.residuals)


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


F9 = extension_field(3, 2)


@pytest.mark.parametrize("spec, x", [
    (F9, (0, 0, 0, 9)),  # an index past F9: the index tables' IndexError
    (F9, (0, 0, 0, -1)),
    (F3, (0, 0, 0, 3)),
    (F3, (0, 0, 0, F9.from_index(1))),  # an element of another field
    (F3, (0, 0, 0, 1.0)),
    (F3, (0, 0, 0, True)),
    (F3, (0, 0, 1)),  # too few coordinates
    (F3, 1),
    (Q, (0, 0, 0, 1.0)),
    (Q, (0, 0, 0, "1")),
])
def test_given_point_is_checked(spec, x):
    """A given point holds nvars values, each an int in [0, q) over a finite
    field or a Fraction (or int) over Q; anything else is a ValueError."""
    f = parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", spec, 4)
    with pytest.raises(ValueError, match="not a value of|coordinates|"
                       "sequence of values"):
        class_of_singular_cubic(f, x=x)


def test_given_point_over_an_extension_field_is_an_index():
    """Over F9 the index 3 is t: the point (0:0:0:t) is the point
    (0:0:0:1), and both count the cubic's points."""
    f = parse_poly("x0*x1*x3 + t*x2^2*x3 + x0^3 + x2^3", F9, 4)
    count = brute_count(F9, 3, [f])
    for x in ((0, 0, 0, 1), (0, 0, 0, 3)):
        r = class_of_singular_cubic(f, x=x)
        assert r.class_expr.count_measure(Counts(F9)) == count
    r = class_of_singular_cubic(parse_poly("x0*x1*x3 - x2^2*x3 + x0^3", Q, 4),
                                x=(0, 0, 0, Fraction(2)))
    assert r.residue == 1


def test_one_projective_point_gives_one_class(capsys):
    """The class does not depend on which representative of the singular
    point is given: over F9, (0:0:0:1), (0:0:0:t) and (0:0:0:2) give one
    class_expr and one class: line in the CLI report."""
    from motivic.cli import main

    text = "x0*x1*x3 + t*x2^2*x3 + x0^3 + x2^3"
    f = parse_poly(text, F9, 4)
    exprs, lines = [], []
    for x, arg in (((0, 0, 0, 1), "0,0,0,1"), ((0, 0, 0, 3), "0,0,0,t"),
                   ((0, 0, 0, 2), "0,0,0,2")):
        exprs.append(class_of_singular_cubic(f, x=x).class_expr)
        assert main(["class-cubic-singular", "--field", "3,2", "--ambient",
                     "3", "--poly", text, "--point", arg, "--no-verify"]) == 0
        out = capsys.readouterr().out
        lines.append([line for line in out.splitlines()
                      if line.startswith("class:")])
    assert exprs[1] == exprs[2] == exprs[0]
    assert len(lines[0]) == 1 and lines[1] == lines[2] == lines[0]


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
        assert (r.class_expr.count_measure(Counts(spec))
                == brute_count(spec, nvars - 1, [f]))
        assert_trace_verifies(r, spec)


def _random_form(rng, spec, nvars, degree):
    from itertools import combinations_with_replacement

    terms = {}
    for combo in combinations_with_replacement(range(nvars), degree):
        c = rng.randrange(spec.p)
        if c:
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            terms[tuple(e)] = c
    return HomogPoly(spec, nvars, degree, terms) if terms else HomogPoly.zero(
        spec, nvars, degree
    )


def _value(draw, spec):
    """A value, zero one time in three: an index over a finite field, a
    Fraction over Q."""
    if draw(st.integers(0, 2)) == 0:
        return spec.zero
    if spec.is_finite:
        return draw(st.integers(1, spec.order - 1))
    return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_pass_gradient_matches_the_partial_forms(data):
    """_gradient_at against f.evaluate and partial_derivative(i).evaluate,
    kept here as the reference, for forms of degree 1 to 4 over F5, F9
    and Q at points with and without zero coordinates; half the forms
    carry the square of a variable that is zero at the point, so that
    _is_singular_at meets singular points too."""
    draw = data.draw
    spec = draw(st.sampled_from([F5, extension_field(3, 2), Q]))
    nvars = draw(st.integers(1, 5))
    degree = draw(st.integers(1, 4))
    pt = tuple(_value(draw, spec) for _ in range(nvars))
    monomials = [e for e in itertools.product(range(degree + 1),
                                              repeat=nvars)
                 if sum(e) == degree]
    terms = {e: _value(draw, spec)
             for e in draw(st.lists(st.sampled_from(monomials), max_size=8))}
    f = HomogPoly(spec, nvars, degree, terms)
    zero_at = [i for i, x in enumerate(pt) if not x]
    if degree >= 2 and zero_at and draw(st.booleans()):
        k = draw(st.sampled_from(zero_at))
        rest = HomogPoly(spec, nvars, degree - 2, {
            e: _value(draw, spec) or spec.one
            for e in draw(st.lists(st.sampled_from(
                [e for e in itertools.product(range(degree - 1),
                                              repeat=nvars)
                 if sum(e) == degree - 2]), min_size=1, max_size=4))})
        x_k = HomogPoly.variable(spec, nvars, k)
        f = x_k * x_k * rest
    value, grad = _gradient_at(f, pt)
    assert value == f.evaluate(pt)
    assert grad == [f.partial_derivative(i).evaluate(pt)
                    for i in range(nvars)]
    assert _is_singular_at(f, pt) == (
        not f.evaluate(pt)
        and not any(f.partial_derivative(i).evaluate(pt)
                    for i in range(nvars)))
