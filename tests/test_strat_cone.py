import pytest

from conftest import assert_trace_verifies, brute_count
from motivic.fields import prime_field, rationals
from motivic.kclass import ClassExpr, VarietyAtom
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import class_of_cone

F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def test_cone_over_point_is_a_line():
    # Z = V(x0) in P^1 is a point; the cone in P^2 is the line x0 = 0
    r = class_of_cone([parse_poly("x0", F3, 2)])
    expected = ClassExpr.from_int(1) + ClassExpr.from_atom(
        VarietyAtom(F3, 1, [parse_poly("x0", F3, 2)]), shift=1
    )
    assert r.class_expr == expected
    assert r.residue == 1
    assert r.class_expr.count_measure(3) == 4
    assert_trace_verifies(r)


def test_cone_over_empty_base():
    r = class_of_cone([parse_poly("x0", F3, 2), parse_poly("x1", F3, 2)])
    assert r.class_expr == ClassExpr.from_int(1)
    assert r.residue == 1
    assert dict(r.hypotheses)["base_detected_empty"]
    assert [s.rule for s in r.trace] == ["cone-over-empty"]
    assert_trace_verifies(r)


def test_cone_over_plane_cubic():
    # for q = 2 mod 3 cubing is a bijection, so the Fermat cubic curve
    # has q + 1 = 6 points over F5; the cone adds the apex: 1 + 5*6 = 31
    z = parse_poly("x0^3 + x1^3 + x2^3", F5, 3)
    r = class_of_cone([z])
    assert r.class_expr.count_measure(5) == 31
    lifted = z.insert_variable(3)
    assert brute_count(F5, 3, [lifted]) == 31
    assert_trace_verifies(r)
    assert not dict(r.hypotheses)["base_detected_empty"]
    assert [s.rule for s in r.trace] == ["cone-split"]


def test_cone_identity_structure():
    # #X = 1 + q * #Z is recorded as the one countable identity
    z = parse_poly("x0^2 + x1*x2", F3, 3)
    r = class_of_cone([z])
    step = r.trace[0]
    lv, rv = step.identity.sides()
    nz = brute_count(F3, 2, [z])
    assert rv == 1 + 3 * nz
    assert lv == rv


def test_cone_with_no_constraints_is_projective_space():
    # every generator zero: Z is all of P^2, the cone all of P^3
    r = class_of_cone([HomogPoly.zero(F3, 3, 2)])
    assert r.class_expr.count_measure(3) == 40
    assert_trace_verifies(r)


def test_linear_generators_not_full_rank_stay_atom():
    r = class_of_cone([parse_poly("x0 + x1", F5, 3)])
    assert r.class_expr.residuals
    assert r.class_expr.count_measure(5) == 1 + 5 * 6
    assert_trace_verifies(r)


def test_rational_cone():
    z = parse_poly("x0^2 - x1*x2", Q, 3)
    r = class_of_cone([z])
    assert r.residue == 1
    assert any(isinstance(a, VarietyAtom) for _, _, a in r.class_expr.residuals)
    assert all(s.identity is None for s in r.trace)
    with pytest.raises(ValueError, match="atom lives over Q"):
        r.class_expr.count_measure(3)


def test_validation_errors():
    with pytest.raises(ValueError, match="empty generator"):
        class_of_cone([])
    with pytest.raises(ValueError, match="different spaces"):
        class_of_cone([parse_poly("x0", F3, 2), parse_poly("x0", F3, 3)])
    with pytest.raises(ValueError, match="different spaces"):
        class_of_cone([parse_poly("x0", F3, 2), parse_poly("x0", F5, 2)])


@pytest.mark.parametrize("spec", [F3, Q], ids=str)
def test_nonzero_constant_generator_rejected(spec):
    # 1 + L*[Z] needs the apex on X, but a nonzero constant makes X empty
    x0 = parse_poly("x0", spec, 2)
    for gens in ([parse_poly("1", spec, 2)], [x0, parse_poly("2", spec, 2)]):
        with pytest.raises(ValueError, match="constant generator"):
            class_of_cone(gens)
    # a zero generator is still dropped, whatever its degree
    r = class_of_cone([HomogPoly.zero(spec, 2, 0), x0])
    assert r.class_expr == class_of_cone([x0]).class_expr
