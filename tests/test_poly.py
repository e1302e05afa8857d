import pytest
from hypothesis import given, strategies as st

from motivic.fields import extension_field, prime_field, rationals
from motivic.linalg import Matrix
from motivic.poly import HomogPoly
from motivic.parse import parse_poly

F5 = prime_field(5)


def test_constructor_validates_homogeneity():
    with pytest.raises(ValueError):
        HomogPoly(F5, 2, 2, {(1, 0): 1})  # degree-1 term in a degree-2 poly
    with pytest.raises(ValueError):
        HomogPoly(F5, 2, 2, {(1, 1, 0): 1})  # wrong arity


def test_ring_ops_small():
    f = parse_poly("x0 + x1", F5, 2)
    g = parse_poly("x0 - x1", F5, 2)
    assert str(f * g) == "x0^2 + 4*x1^2"
    assert str(f + g) == "2*x0"
    assert (f - f).is_zero()
    assert str(f.power(2)) == "x0^2 + 2*x0*x1 + x1^2"


def test_evaluate():
    f = parse_poly("x0*x1 - x2^2", F5, 3)
    assert f.evaluate([F5.elem(2), F5.elem(3), F5.elem(1)]) == F5.elem(0)
    assert f.evaluate([F5.elem(1), F5.elem(1), F5.elem(0)]) == F5.one


def test_linear_substitute_identity_and_composition():
    f = parse_poly("x0^2 + x1*x2", F5, 3)
    ident = Matrix.identity(F5, 3)
    assert f.linear_substitute(ident) == f
    A = Matrix(F5, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    B = Matrix(F5, [[1, 0, 3], [0, 2, 0], [0, 0, 1]])
    assert f.linear_substitute(A).linear_substitute(B) == \
        f.linear_substitute(A * B)


def test_split_by_variable():
    """f = sum_k x_i^k * g_k with g_k free of x_i."""
    f = parse_poly("x2^2*x0 + x2*x1^2 + x0^3 - x2^3", F5, 3)
    parts = f.split_by_variable(2)
    assert len(parts) == 4
    assert str(parts[0]) == "x0^3"
    assert str(parts[1]) == "x1^2"
    assert str(parts[2]) == "x0"
    assert str(parts[3]) == "4"
    for k, g in enumerate(parts):
        assert not g.uses_variable(2)


def test_drop_insert_remap():
    f = parse_poly("x0^2 + x1*x2", F5, 3)
    g = f.insert_variable(3)
    assert g.nvars == 4 and not g.uses_variable(3)
    assert g.drop_variable(3) == f
    with pytest.raises(ValueError):
        f.drop_variable(0)  # x0 occurs
    h = f.remap_variables({0: 2, 1: 1, 2: 0}, 3)
    assert str(h) == "x0*x1 + x2^2"


def test_partial_derivative():
    f = parse_poly("x0^3 + x0*x1^2", F5, 2)
    assert str(f.partial_derivative(0)) == "3*x0^2 + x1^2"
    assert str(f.partial_derivative(1)) == "2*x0*x1"


def test_monic_uses_graded_lex_leading_term():
    f = parse_poly("2*x1^2 + 3*x0*x1", F5, 2)
    assert str(f.monic()) == "x0*x1 + 4*x1^2"


@st.composite
def _polys(draw, count=1, spec=None, nvars=3, degree=2):
    if spec is None:
        spec = draw(st.sampled_from(
            [prime_field(3), prime_field(5), extension_field(3, 2)]))
    exps_pool = [e for e in _exps(nvars, degree)]
    out = []
    for _ in range(count):
        terms = {}
        for e in draw(st.lists(st.sampled_from(exps_pool), max_size=4)):
            terms[e] = spec.from_index(draw(st.integers(0, spec.order - 1)))
        out.append(HomogPoly(spec, nvars, degree, terms))
    return (spec,) + tuple(out)


def _exps(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for h in range(degree + 1):
        for rest in _exps(nvars - 1, degree - h):
            yield (h,) + rest


@given(_polys(count=3))
def test_poly_ring_axioms(data):
    spec, f, g, h = data
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f - f).is_zero()


@given(_polys(count=2), st.integers(0, 30))
def test_product_evaluates_pointwise(data, seed):
    spec, f, g = data
    pt = [spec.from_index((seed + k) % spec.order) for k in range(f.nvars)]
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


@given(_polys(count=1, spec=prime_field(5)))
def test_substitution_is_ring_map(data):
    spec, f = data
    A = Matrix(spec, [[1, 2, 0], [0, 1, 4], [3, 0, 1]])
    g = parse_poly("x0 + x1 + x2", spec, 3)
    assert (f * g).linear_substitute(A) == \
        f.linear_substitute(A) * g.linear_substitute(A)
