import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_trace_verifies, brute_count
from motivic.descent import GaloisContext, class_of_descended_arrangement
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import ClassExpr, projective_space_class
from motivic.linalg import Matrix, _kernel, _product, _rotation
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import (
    _coeff_rows,
    _normalize_forms,
    arrangement_inclusion_exclusion,
    class_of_arrangement,
)

F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def _forms(texts, spec, nvars):
    return [parse_poly(t, spec, nvars) for t in texts]


def test_single_hyperplane():
    r = class_of_arrangement(_forms(["x0"], F3, 3))
    assert r.class_expr == projective_space_class(1)
    assert r.residue == 1
    assert dict(r.hypotheses)["d_le_n"]
    assert_trace_verifies(r)


def test_two_lines_in_the_plane():
    forms = _forms(["x0", "x1"], F3, 3)
    r = class_of_arrangement(forms)
    assert r.class_expr == ClassExpr({0: 1, 1: 2})
    assert r.class_expr.count_measure(3) == 7 == brute_count(
        F3, 2, [forms[0] * forms[1]]
    )
    assert_trace_verifies(r)


def test_duplicate_and_scaled_forms_dedupe():
    forms = _forms(["x0", "2*x0", "x0"], F5, 3)
    r = class_of_arrangement(forms)
    assert r.class_expr == projective_space_class(1)
    # trace records the shrink from 3 given forms to 1 hyperplane
    first = r.trace[0]
    assert first.rule == "scalar-normalize"
    assert "3 forms given, 1 distinct" in first.description


def test_more_hyperplanes_than_dimension():
    # three points on the line P^1: d = 3 > n = 1, flagged but computed
    forms = _forms(["x0", "x1", "x0 + x1"], F3, 2)
    r = class_of_arrangement(forms)
    assert r.class_expr == ClassExpr.from_int(3)
    assert r.residue == 3
    assert not dict(r.hypotheses)["d_le_n"]
    assert_trace_verifies(r)


def test_dual_route_identical():
    cases = [
        (["x0", "x1"], F3, 3),
        (["x0", "x1", "x2"], F5, 4),
        (["x0 + x1", "x0 - x1", "x2"], F5, 4),
        (["x0", "x0 + x1", "x1"], Q, 5),
    ]
    for texts, spec, nvars in cases:
        forms = _forms(texts, spec, nvars)
        assert (
            class_of_arrangement(forms).class_expr
            == arrangement_inclusion_exclusion(forms)
        )


def test_rational_arrangement_constant_one():
    forms = _forms(["x0", "x1 - x2", "x0 + 3*x1"], Q, 5)
    r = class_of_arrangement(forms)
    assert not r.class_expr.residuals
    assert r.class_expr.coeffs[0] == 1
    assert r.residue == 1
    assert all(s.identity is None for s in r.trace)


def test_inclusion_exclusion_oracle_values():
    # d coincident hyperplanes = one hyperplane
    forms = _forms(["x0", "x0"], F3, 3)
    assert arrangement_inclusion_exclusion(forms) == projective_space_class(1)
    # full coordinate simplex in P^2 over F3: 3 lines pairwise meeting
    forms = _forms(["x0", "x1", "x2"], F3, 3)
    expr = arrangement_inclusion_exclusion(forms)
    # 3*[P^1] - 3*[P^0] + 0
    assert expr == ClassExpr({0: 3, 1: 3}) - ClassExpr.from_int(3)
    assert expr.count_measure(3) == 9
    with pytest.raises(ValueError, match="too many"):
        arrangement_inclusion_exclusion(
            [
                HomogPoly(Q, 20, 1, {tuple(1 if j == i else 0 for j in range(20)): 1})
                for i in range(17)
            ]
        )


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        class_of_arrangement([])
    with pytest.raises(ValueError, match="degree"):
        class_of_arrangement(_forms(["x0^2"], F3, 3))
    with pytest.raises(ValueError, match="zero form"):
        class_of_arrangement([HomogPoly.zero(F3, 3, 1)])


def _descended_over_f3(forms):
    return class_of_descended_arrangement(GaloisContext(F3, F3), forms, 3)


@pytest.mark.parametrize("engine", [arrangement_inclusion_exclusion,
                                    class_of_arrangement, _descended_over_f3])
def test_forms_of_two_spaces_are_refused(engine):
    """Hyperplanes in P^2 and P^3, or over F3 and F5, make no arrangement:
    each engine, the oracle included, refuses them before counting a
    class."""
    cases = ([parse_poly("x0", F3, 3), parse_poly("x1", F3, 4)],
             [parse_poly("x0", F3, 4), parse_poly("x1", F5, 4)])
    for forms in cases:
        with pytest.raises(ValueError, match="forms live in different spaces"):
            engine(forms)


def test_descent_refuses_forms_off_its_extension():
    ctx = GaloisContext(F3, extension_field(3, 2))
    with pytest.raises(ValueError, match="forms live in different spaces"):
        class_of_descended_arrangement(ctx, _forms(["x0", "x1"], F3, 4), 3)


def test_randomized_dual_route_and_counting():
    rng = random.Random(23)
    for trial in range(25):
        spec = (F3, F5)[trial % 2]
        q = spec.p
        n = rng.randrange(1, 4)
        nvars = n + 1
        d = rng.randrange(1, min(n, 3) + 1)
        forms = []
        while len(forms) < d:
            coeffs = [rng.randrange(q) for _ in range(nvars)]
            if not any(coeffs):
                continue
            terms = {
                tuple(1 if j == i else 0 for j in range(nvars)): c
                for i, c in enumerate(coeffs)
                if c
            }
            forms.append(HomogPoly(spec, nvars, 1, terms))
        r = class_of_arrangement(forms)
        assert r.class_expr == arrangement_inclusion_exclusion(forms)
        product = forms[0]
        for h in forms[1:]:
            product = product * h
        assert r.class_expr.count_measure(q) == brute_count(spec, n, [product])
        assert_trace_verifies(r)
        if len({h.monic().canonical_key() for h in forms}) <= n:
            assert r.residue == 1


@st.composite
def _forms_and_matrix(draw):
    spec = draw(st.sampled_from([prime_field(7), extension_field(3, 2),
                                 extension_field(37, 2), Q]))
    if spec.is_finite:
        value = st.integers(0, spec.order - 1)
    else:
        value = st.integers(-3, 3)
    value = st.one_of(st.just(spec.zero), value)
    nvars = draw(st.integers(1, 5))
    forms = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [draw(value) for _ in range(nvars)]
        if any(coeffs):
            forms.append(HomogPoly(spec, nvars, 1, {
                tuple(1 if j == i else 0 for j in range(nvars)): c
                for i, c in enumerate(coeffs)}))
    ncols = draw(st.integers(1, 5))
    M = Matrix(spec, [[draw(value) for _ in range(ncols)]
                      for _ in range(nvars)])
    return forms, M


@given(_forms_and_matrix())
@settings(max_examples=120, deadline=None)
def test_rotation_as_a_product_matches_linear_substitute(case):
    """The rows of A.M are the coefficients of h(M x), form by form; and
    over a finite field the engine's essential arrangement Z is the forms
    rotated by substitution onto their span."""
    forms, M = case
    if not forms:
        return
    spec = M.spec
    assert _product(spec, _coeff_rows(forms), M.rows) == _coeff_rows(
        [h.linear_substitute(M) for h in forms])

    forms = _normalize_forms(forms)
    result = class_of_arrangement(forms)
    assert result.class_expr == arrangement_inclusion_exclusion(forms)
    if not spec.is_finite:
        return
    nvars = forms[0].nvars
    radical = _kernel(spec, _coeff_rows(forms), nvars)
    r = nvars - len(radical)
    W = Matrix._from_rows(spec, _rotation(spec, radical, nvars))
    cone = result.trace[1]
    assert cone.rule == "cone-fibration"
    assert list(cone.identity.rhs[-1].query.factors) == [
        h.linear_substitute(W).remap_variables({i: i for i in range(r)}, r)
        for h in forms]
