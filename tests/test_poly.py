from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from motivic.count import CountQuery
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


def _elem(draw, spec):
    if spec.is_finite:
        return spec.from_index(draw(st.integers(0, spec.order - 1)))
    num, den = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    return spec.elem(Fraction(num, den))


def _form(draw, spec, nvars, degree):
    pool = list(_exps(nvars, degree))
    terms = {e: _elem(draw, spec)
             for e in draw(st.lists(st.sampled_from(pool), max_size=5))}
    return HomogPoly(spec, nvars, degree, terms)


def _assert_valid(r):
    """What the validating constructor would give, with no zero and every
    coefficient in r's own field."""
    assert HomogPoly(r.spec, r.nvars, r.degree, dict(r.terms)).terms == r.terms
    assert all(not c.is_zero() for c in r.terms.values())
    assert all(c.spec is r.spec for c in r.terms.values())


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ring_results_are_valid_without_validation(data):
    """Ring operations skip the constructor's checks; their results must
    pass them unchanged, over Q, F_p and F_{p^m}."""
    draw = data.draw
    spec = draw(st.sampled_from([
        rationals(), prime_field(3), prime_field(7), extension_field(3, 2),
        extension_field(5, 2)]))
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    f = _form(draw, spec, nvars, degree)
    g = _form(draw, spec, nvars, degree)
    h = _form(draw, spec, nvars, draw(st.integers(0, 2)))
    i = draw(st.integers(0, nvars - 1))
    ncols = draw(st.integers(1, 3))
    M = Matrix(spec, [[_elem(draw, spec) for _ in range(ncols)]
                      for _ in range(nvars)])
    perm = draw(st.permutations(range(nvars + 1)))
    parts = f.split_by_variable(i)
    results = [
        f + g, f - g, f + (-f), -f, f * h, f * g, f.scale(_elem(draw, spec)),
        f.partial_derivative(i), *parts, f.insert_variable(i),
        f.insert_variable(i).drop_variable(i),
        f.remap_variables(dict(enumerate(perm)), nvars + 1),
        f.power(draw(st.integers(0, 3))), f.linear_substitute(M),
    ]
    if nvars > 1:
        results.extend(p.drop_variable(i) for p in parts)
    for r in results:
        _assert_valid(r)


def _expanded_product(f, g):
    """f * g term by term on exponent tuples and FieldElem operations."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return {e: c for e, c in acc.items() if not c.is_zero()}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_product_matches_term_expansion(data):
    """Products add packed monomial codes; the terms, including those of
    constants and pure powers, must be the ones term-by-term expansion
    gives."""
    draw = data.draw
    spec = draw(st.sampled_from([
        prime_field(3), prime_field(5), prime_field(7), prime_field(31),
        extension_field(3, 2), rationals()]))
    nvars = draw(st.integers(1, 4))
    f = _form(draw, spec, nvars, draw(st.integers(0, 3)))
    g = _form(draw, spec, nvars, draw(st.integers(0, 3)))
    i = draw(st.integers(0, nvars - 1))
    x = HomogPoly.variable(spec, nvars, i)
    const = HomogPoly(spec, nvars, 0, {(0,) * nvars: _elem(draw, spec)})
    for a, b in ((f, g), (f, f), (f, const), (const, const), (x, f),
                 (x.power(3), x.power(2)), (f.power(2), g)):
        r = a * b
        assert r.terms == _expanded_product(a, b)
        assert r.degree == a.degree + b.degree
        _assert_valid(r)


def _chained(factors):
    """f_1 * ... * f_d by term-by-term expansion, one factor at a time."""
    acc = factors[0]
    for g in factors[1:]:
        acc = HomogPoly._from_terms(acc.spec, acc.nvars, acc.degree + g.degree,
                                    _expanded_product(acc, g))
    return acc


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_product_matches_chained_expansion(data):
    """HomogPoly.product, power and the generators of a union multiply in
    one packed pass; their terms and degree must be those of a chain of
    term-by-term products, with one factor, repeated factors and zero
    factors alike."""
    draw = data.draw
    spec = draw(st.sampled_from([
        prime_field(3), prime_field(7), prime_field(31),
        extension_field(3, 2), extension_field(5, 2), rationals()]))
    nvars = draw(st.integers(1, 4))
    pool = [_form(draw, spec, nvars, draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(1, 3)))]
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    if draw(st.booleans()):
        zero = HomogPoly.zero(spec, nvars, draw(st.integers(0, 2)))
        factors.insert(draw(st.integers(0, len(factors))), zero)
    expect = _chained(factors)
    got = HomogPoly.product(factors)
    assert got.terms == expect.terms
    assert got.degree == sum(f.degree for f in factors)
    _assert_valid(got)
    if spec.is_finite:
        union = CountQuery.union(spec, nvars - 1, factors)
        assert union.generators == (() if expect.is_zero() else (expect,))

    one = HomogPoly(spec, nvars, 0, {(0,) * nvars: 1})
    k = draw(st.integers(0, 4))
    for f in (factors[0], HomogPoly.zero(spec, nvars, factors[0].degree)):
        r = f.power(k)
        assert r.terms == (_chained([f] * k).terms if k else one.terms)
        assert r.degree == k * f.degree
        _assert_valid(r)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_substitute_matches_term_by_term(data):
    """Substitution shares row powers between monomials; the result must be
    the sum over terms of coeff * prod_i (row i)^e_i.  Up to six variables
    and degree four, with as many or fewer or more columns than rows, so
    that pure powers x_i^degree meet every packing position."""
    draw = data.draw
    spec = draw(st.sampled_from([prime_field(5), extension_field(3, 2),
                                 rationals()]))
    nvars = draw(st.integers(1, 6))
    degree = draw(st.integers(0, 4))
    f = _form(draw, spec, nvars, degree)
    if draw(st.booleans()):
        i = draw(st.integers(0, nvars - 1))
        f = f + HomogPoly(spec, nvars, degree, {
            tuple(degree if k == i else 0 for k in range(nvars)): 1})
    ncols = draw(st.integers(1, 6).filter(lambda c: c != nvars)
                 if draw(st.booleans()) else st.just(nvars))
    M = Matrix(spec, [[_elem(draw, spec) for _ in range(ncols)]
                      for _ in range(nvars)])
    rows = [HomogPoly(spec, ncols, 1, {
        tuple(1 if k == j else 0 for k in range(ncols)): M.rows[i][j]
        for j in range(ncols)}) for i in range(nvars)]
    expect = HomogPoly.zero(spec, ncols, f.degree)
    for exps, coeff in f.terms.items():
        piece = HomogPoly(spec, ncols, 0, {(0,) * ncols: coeff})
        for i, e in enumerate(exps):
            for _ in range(e):
                piece = HomogPoly._from_terms(spec, ncols, piece.degree + 1,
                                              _expanded_product(piece, rows[i]))
        expect = expect + piece
    assert f.linear_substitute(M) == expect
