import random

import pytest

from conftest import assert_trace_verifies, brute_count, lit, scaled
from motivic.fields import prime_field, rationals
from motivic.kclass import VarietyAtom
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import class_of_quadric, class_of_two_quadric_union

F3 = prime_field(3)
Q = rationals()

PAIR = ("x0*x1 - x2*x3 - x4^2", "x0^2 + x1*x2 + x3*x4")


def _pair(spec=F3):
    return (
        parse_poly(PAIR[0], spec, 5),
        parse_poly(PAIR[1], spec, 5),
    )


def test_reference_pair_counts():
    f1, f2 = _pair()
    r = class_of_two_quadric_union(f1, f2)
    union = brute_count(F3, 4, [f1 * f2])
    assert union == 64
    assert r.class_expr.count_measure(3) == 64
    assert union % 3 == 1
    assert assert_trace_verifies(r) >= 5


def test_reference_pair_class_shape():
    f1, f2 = _pair()
    r = class_of_two_quadric_union(f1, f2)
    assert r.class_expr.coeffs == {0: 2, 1: 3, 2: 2, 3: 2}
    kinds = [(s, c, a.name) for s, c, a in r.class_expr.residuals]
    # the cubic Y in P^3 enters with coefficient -1 at shift 0, the
    # fibration base with -1 at shift 1
    assert [(s, c) for s, c, _ in kinds] == [(0, -1), (1, -1)]
    assert kinds[0][2] == "Y"
    # the shift-0 variety atom makes the residue indeterminate
    assert r.residue is None
    assert any(isinstance(a, VarietyAtom) for _, _, a in r.class_expr.residuals)


def test_reference_pair_trace_rules():
    f1, f2 = _pair()
    r = class_of_two_quadric_union(f1, f2)
    rules = [s.rule for s in r.trace]
    for expected in (
        "union-scissor",
        "chart-split",
        "open-chart-cubic",
        "infinity-hyperplane",
        "closed-chart-fibration",
        "singular-containment",
    ):
        assert expected in rules
    sing = next(s for s in r.trace if s.rule == "singular-containment")
    assert sing.check["all_singular"] is True


def test_identity_values_frozen():
    f1, f2 = _pair()
    r = class_of_two_quadric_union(f1, f2)
    by_rule = {s.rule: s for s in r.trace if s.identity is not None}
    assert by_rule["union-scissor"].identity.sides() == (64, 64)
    assert by_rule["chart-split"].identity.sides() == (16, 16)
    assert by_rule["open-chart-cubic"].identity.sides() == (11, 11)
    assert by_rule["infinity-hyperplane"].identity.sides() == (8, 8)
    assert by_rule["closed-chart-fibration"].identity.sides() == (5, 5)


def test_proportional_pair_delegates():
    f1, _ = _pair()
    f2 = scaled(f1, lit(F3, 2))
    r = class_of_two_quadric_union(f1, f2)
    assert dict(r.hypotheses)["q2_proportional_to_q1"]
    assert r.class_expr == class_of_quadric(f1).class_expr
    assert r.trace[0].rule == "identical-quadrics"
    assert_trace_verifies(r)


def test_validation_errors():
    f1, f2 = _pair()
    with pytest.raises(ValueError, match="finite field"):
        class_of_two_quadric_union(*_pair(Q))
    with pytest.raises(ValueError, match="quadratic"):
        class_of_two_quadric_union(parse_poly("x0^3", F3, 5), f2)
    with pytest.raises(ValueError, match="at least 4"):
        class_of_two_quadric_union(
            parse_poly("x0*x1 - x2^2", F3, 4),
            parse_poly("x0^2 + x1*x2", F3, 4),
        )
    with pytest.raises(ValueError, match="Q1 not smooth"):
        class_of_two_quadric_union(parse_poly("x0^2 + x1^2", F3, 5), f2)
    with pytest.raises(ValueError, match="different spaces"):
        class_of_two_quadric_union(f1, parse_poly("x0^2", F3, 4))


def test_randomized_pairs_measure_equals_count():
    rng = random.Random(47)
    done = 0
    while done < 6:
        f1 = _random_quadric(rng, F3, 5)
        f2 = _random_quadric(rng, F3, 5)
        if f1.is_zero() or f2.is_zero():
            continue
        try:
            r = class_of_two_quadric_union(f1, f2)
        except ValueError:
            continue  # degenerate Q1 or unsupported configuration: resample
        done += 1
        assert r.class_expr.count_measure(3) == brute_count(F3, 4, [f1 * f2])
        assert_trace_verifies(r)


def _random_quadric(rng, spec, nvars):
    terms = {}
    for i in range(nvars):
        for j in range(i, nvars):
            c = rng.randrange(spec.p)
            if c:
                e = [0] * nvars
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
    return (
        HomogPoly(spec, nvars, 2, terms)
        if terms
        else HomogPoly.zero(spec, nvars, 2)
    )
