import random

import pytest

from conftest import assert_trace_verifies, brute_count, lit, scaled
from motivic.fields import prime_field, rationals
from motivic.kclass import Counts, VarietyAtom
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.quadform import QuadForm
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
    assert r.class_expr.count_measure(Counts(F3)) == 64
    assert union % 3 == 1
    assert assert_trace_verifies(r, F3) >= 5


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
    counts = Counts(F3)
    assert by_rule["union-scissor"].identity.sides(counts) == (64, 64)
    assert by_rule["chart-split"].identity.sides(counts) == (16, 16)
    assert by_rule["open-chart-cubic"].identity.sides(counts) == (11, 11)
    assert by_rule["infinity-hyperplane"].identity.sides(counts) == (8, 8)
    assert by_rule["closed-chart-fibration"].identity.sides(counts) == (5, 5)


def test_proportional_pair_delegates():
    f1, _ = _pair()
    f2 = scaled(f1, lit(F3, 2))
    r = class_of_two_quadric_union(f1, f2)
    assert dict(r.hypotheses)["q2_proportional_to_q1"]
    assert r.class_expr == class_of_quadric(f1).class_expr
    assert r.trace[0].rule == "identical-quadrics"
    assert_trace_verifies(r, F3)


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
        assert (r.class_expr.count_measure(Counts(F3))
                == brute_count(F3, 4, [f1 * f2]))
        assert_trace_verifies(r, F3)


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


def _proportional(g1, g2):
    """The value lam with g2 = lam * g1, or None: the Gram matrices
    compared entry by entry."""
    spec = g1.spec
    lam = None
    for row1, row2 in zip(g1.rows, g2.rows):
        for a, b in zip(row1, row2):
            if (not a) != (not b):
                return None
            if a:
                ratio = spec._mul(b, spec._inv(a))
                if lam is None:
                    lam = ratio
                elif ratio != lam:
                    return None
    return lam


def test_identical_route_exactly_when_grams_are_proportional():
    """Over F3 and F5 in P^4, f2 is a multiple of a smooth f1, a form on
    f1's support with unequal ratios, or a random quadric.  The engine
    takes its identical-quadrics route exactly when the Gram matrices are
    proportional."""
    rng = random.Random(61)
    routes = {True: 0, False: 0}
    for spec in (F3, prime_field(5)):
        p = spec.p
        drawn = 0
        while drawn < 30:
            f1 = _random_quadric(rng, spec, 5)
            if f1.is_zero() or not QuadForm.from_poly(f1).is_nondegenerate():
                continue
            kind = drawn % 3
            drawn += 1
            if kind == 2:
                f2 = _random_quadric(rng, spec, 5)
                if f2.is_zero():
                    continue
            else:
                support = sorted(f1.coeffs)
                ratios = [rng.randrange(1, p)] * len(support)
                if kind == 1:
                    # equal supports, and at least two ratios differ
                    ratios = [rng.randrange(1, p) for _ in support]
                    if len(set(ratios)) == 1:
                        ratios[rng.randrange(len(ratios))] = (
                            ratios[0] % (p - 1) + 1)
                f2 = HomogPoly(spec, 5, 2, {e: f1.coeffs[e] * c % p
                                            for e, c in zip(support, ratios)})
            proportional = _proportional(QuadForm.from_poly(f1).gram,
                                         QuadForm.from_poly(f2).gram)
            try:
                r = class_of_two_quadric_union(f1, f2)
            except ValueError:
                assert proportional is None  # unsupported configuration
                continue
            identical = r.trace[0].rule == "identical-quadrics"
            assert identical == (proportional is not None)
            routes[identical] += 1
    assert routes[True] >= 20 and routes[False] >= 20
