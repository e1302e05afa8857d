from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Ref, lit, ref_terms
from motivic.count import CountQuery, count_points
from motivic.fields import (FieldElem, FieldSpec, build_extension,
                            extension_field, prime_field, rationals)
from motivic.linalg import Matrix
from motivic import poly
from motivic.poly import (HomogPoly, _MONOMIAL_ENTRIES, _monomial_tables,
                          _power_names, _prefixes)
from motivic.parse import parse_poly
from motivic.quadform import QuadForm

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
    assert f.evaluate([2, 3, 1]) == F5.zero
    assert f.evaluate([1, 1, 0]) == F5.one


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
            terms[e] = draw(st.integers(0, spec.order - 1))
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
    values = [(seed + k) % spec.order for k in range(f.nvars)]
    assert ((f * g).evaluate(values)
            == (Ref(spec, f.evaluate(values))
                * Ref(spec, g.evaluate(values))).value)


@given(_polys(count=1, spec=prime_field(5)))
def test_substitution_is_ring_map(data):
    spec, f = data
    A = Matrix(spec, [[1, 2, 0], [0, 1, 4], [3, 0, 1]])
    g = parse_poly("x0 + x1 + x2", spec, 3)
    assert (f * g).linear_substitute(A) == \
        f.linear_substitute(A) * g.linear_substitute(A)


def _elem(draw, spec):
    """A value: an index over a finite field, a Fraction over Q."""
    if spec.is_finite:
        return draw(st.integers(0, spec.order - 1))
    num, den = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    return Fraction(num, den)


def _nonzero(draw, spec):
    """A nonzero value; over Q possibly negative."""
    return _elem(draw, spec) or spec.one


def _constant(spec, nvars, c):
    """The form of degree 0 with value c; a product with it scales."""
    return HomogPoly(spec, nvars, 0, {(0,) * nvars: c})


def _form(draw, spec, nvars, degree):
    pool = list(_exps(nvars, degree))
    terms = {e: _elem(draw, spec)
             for e in draw(st.lists(st.sampled_from(pool), max_size=5))}
    return HomogPoly(spec, nvars, degree, terms)


def _assert_valid(r):
    """What the validating constructor would give, with every stored value
    canonical and nonzero: an int in [1, q) over a finite field, a nonzero
    Fraction over Q."""
    built = HomogPoly(r.spec, r.nvars, r.degree, r.coeffs)
    assert built.coeffs == r.coeffs
    for v in r.coeffs.values():
        if r.spec.is_finite:
            assert type(v) is int and 1 <= v < r.spec.order
        else:
            assert type(v) is Fraction and v


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ring_results_are_valid_without_validation(data):
    """Ring operations, the parser and QuadForm.poly skip the constructor's
    checks; their results must pass them unchanged, over Q, F_p and
    F_{p^m}."""
    draw = data.draw
    spec = draw(st.sampled_from([
        rationals(), prime_field(3), prime_field(7), extension_field(3, 2),
        extension_field(5, 2)]))
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    f = _form(draw, spec, nvars, degree)
    g = _form(draw, spec, nvars, degree)
    h = _form(draw, spec, nvars, draw(st.integers(0, 2)))
    quadric = _form(draw, spec, nvars, 2)
    i = draw(st.integers(0, nvars - 1))
    ncols = draw(st.integers(1, 3))
    M = Matrix(spec, [[_elem(draw, spec) for _ in range(ncols)]
                      for _ in range(nvars)])
    perm = draw(st.permutations(range(nvars + 1)))
    parts = f.split_by_variable(i)
    results = [
        f + g, f - g, f + (-f), -f, f * h, f * g,
        f * _constant(spec, nvars, _elem(draw, spec)), f.partial_derivative(i), *parts, f.insert_variable(i),
        f.insert_variable(i).drop_variable(i),
        f.remap_variables(dict(enumerate(perm)), nvars + 1),
        f.power(draw(st.integers(0, 3))), f.linear_substitute(M),
        parse_poly(str(f), spec, nvars), QuadForm.from_poly(quadric).poly(),
    ]
    if nvars > 1:
        results.extend(p.drop_variable(i) for p in parts)
    for r in results:
        _assert_valid(r)


def test_form_path_builds_no_elements(monkeypatch):
    """Forms and matrices hold values: building a field, a matrix, parsing,
    products, powers, substitution, sums, keys, printing and counting build
    no FieldElem, counted from before the fields are built."""
    built = []
    init = FieldElem.__init__

    def counted(self, spec, value):
        built.append(value)
        init(self, spec, value)

    monkeypatch.setattr(FieldElem, "__init__", counted)
    cases = [
        (FieldSpec("Fp", p=7), "x0^2 - 2*x1*x2 + 3*x2^2", "x0 + x1 - 3*x2"),
        (FieldSpec("Fpm", p=3, m=2, modulus=build_extension(3, 2)),
         "x0^2 + t*x1*x2 - (1+t)*x2^2", "x0 + t^2*x1 - x2"),
        (FieldSpec("Q"), "x0^2 - 2*x1*x2 + 3*x2^2", "x0 + x1 - 3*x2"),
    ]
    for spec, quadric, linear in cases:
        # matrices hold values too
        M = Matrix(spec, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
        f, g = parse_poly(quadric, spec, 3), parse_poly(linear, spec, 3)
        h, k = f * g, g.power(3)
        for form in (f, g, h, k, f.linear_substitute(M), h + k, h - k):
            form.canonical_key()
            str(form)
        if spec.is_finite:
            count_points(CountQuery(spec, 2, [f, g]))
    assert built == []


def _expanded_product(f, g):
    """The values of f * g, term by term on exponent tuples and reference
    elements."""
    acc = {}
    for e1, c1 in ref_terms(f).items():
        for e2, c2 in ref_terms(g).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return {e: c.value for e, c in acc.items() if not c.is_zero()}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_product_matches_term_expansion(data):
    """Products add packed monomial codes; the terms, including those of
    constants and pure powers, must be the ones term-by-term expansion
    gives."""
    draw = data.draw
    spec = draw(st.sampled_from([
        prime_field(3), prime_field(5), prime_field(7), prime_field(31),
        extension_field(3, 2), extension_field(37, 2), rationals()]))
    nvars = draw(st.integers(1, 4))
    f = _form(draw, spec, nvars, draw(st.integers(0, 3)))
    g = _form(draw, spec, nvars, draw(st.integers(0, 3)))
    i = draw(st.integers(0, nvars - 1))
    x = HomogPoly.variable(spec, nvars, i)
    const = HomogPoly(spec, nvars, 0, {(0,) * nvars: _elem(draw, spec)})
    for a, b in ((f, g), (f, f), (f, const), (const, const), (x, f),
                 (x.power(3), x.power(2)), (f.power(2), g)):
        r = a * b
        assert r.coeffs == _expanded_product(a, b)
        assert r.degree == a.degree + b.degree
        _assert_valid(r)


def _chained(factors):
    """f_1 * ... * f_d by term-by-term expansion, one factor at a time."""
    acc = factors[0]
    for g in factors[1:]:
        acc = HomogPoly(acc.spec, acc.nvars, acc.degree + g.degree,
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
    assert got.coeffs == expect.coeffs
    assert got.degree == sum(f.degree for f in factors)
    _assert_valid(got)
    if spec.is_finite:
        union = CountQuery.union(spec, nvars - 1, factors)
        assert union.generators == (() if expect.is_zero() else (expect,))

    one = HomogPoly(spec, nvars, 0, {(0,) * nvars: 1})
    k = draw(st.integers(0, 4))
    for f in (factors[0], HomogPoly.zero(spec, nvars, factors[0].degree)):
        r = f.power(k)
        assert r.coeffs == (_chained([f] * k).coeffs if k else one.coeffs)
        assert r.degree == k * f.degree
        _assert_valid(r)


def _linear_form(draw, spec, nvars):
    """A nonzero linear form whose coefficients mix 1 with other values."""
    coeffs = [draw(st.sampled_from([0, 1, 1, 2])) for _ in range(nvars)]
    coeffs = [draw(st.integers(2, spec.order - 1)) if c == 2 else c
              for c in coeffs]
    if not any(coeffs):
        coeffs[draw(st.integers(0, nvars - 1))] = 1
    return HomogPoly(spec, nvars, 1, {
        tuple(int(j == i) for j in range(nvars)): c
        for i, c in enumerate(coeffs) if c})


def _printed(f):
    """The canonical text of a form, printed term by term as a reference:
    each monomial is "*".join over the powers in exponent order, and a
    coefficient prints before it, through the field's _str, unless it is
    one; over Q a negative coefficient prints its magnitude, with its sign
    between the terms."""
    pieces = []
    for exps, c in sorted(f.coeffs.items(), reverse=True):
        mono = "*".join("x%d" % i if e == 1 else "x%d^%d" % (i, e)
                        for i, e in enumerate(exps) if e)
        negative = not f.spec.is_finite and c < 0
        coeff = f.spec._str(-c if negative else c)
        piece = (coeff if not mono else mono if coeff == "1"
                 else coeff + "*" + mono)
        sign = "-" if negative else "+"
        pieces.append(("-" + piece if negative else piece) if not pieces
                      else "%s %s" % (sign, piece))
    return " ".join(pieces) or "0"


def _set_tables(draw):
    """Empty the kept monomial tables or keep them, as drawn; returns the
    shapes kept before the example prints."""
    if draw(st.booleans()):
        _monomial_tables.clear()
    return set(_monomial_tables)


def _assert_table_rule(form, kept_before):
    """A text that fills less than a quarter of its shape builds no table;
    one that fills more keeps the table of its shape."""
    key = (form.nvars, form.degree)
    size = comb(form.nvars + form.degree - 1, form.degree)
    if 4 * len(form.coeffs) < size:
        if key not in kept_before:
            assert key not in _monomial_tables
    elif size <= _MONOMIAL_ENTRIES:
        assert key in _monomial_tables


# F9 under its default modulus t^2 + 1 and under t^2 + t + 2: one order,
# two fields
F9_OTHER = extension_field(3, 2, (2, 1, 1))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_product_text_matches_expanded_product(data):
    """A union's text is printed from the packed product's codes, never
    expanded; it must be the text of the expanded product, and the one
    printed term by term, over F_p, F_{p^m} and Q (negative coefficients
    included), with one factor, repeated factors and zero factors, in up
    to six variables so that both halves of a code hold several digits.
    At the sizes of the benchmark's arrangements and two-quadric unions,
    4-6 linear forms in 7-8 variables and two quadrics in 6 variables,
    both halves hold up to 4 digits.  Dense texts read their monomials from
    the kept table of their shape, sparse ones build none; the kept tables
    are emptied before some examples and kept from earlier ones before
    others.  A union with a zero factor describes no generator."""
    draw = data.draw
    kept_before = _set_tables(draw)
    shape = draw(st.sampled_from(["small", "small", "dense", "planes",
                                  "quadrics"]))
    if shape == "small":
        spec = draw(st.sampled_from([
            prime_field(3), prime_field(7), prime_field(31),
            extension_field(3, 2), extension_field(5, 2), rationals()]))
        nvars = draw(st.integers(1, 6))
        pool = [_form(draw, spec, nvars, draw(st.integers(0, 2)))
                for _ in range(draw(st.integers(1, 3)))]
        factors = draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=4))
    elif shape == "dense":
        # generic linear forms in few variables fill their product's shape
        spec = draw(st.sampled_from([
            prime_field(5), extension_field(3, 2), rationals()]))
        nvars = draw(st.integers(2, 4))
        factors = [HomogPoly(spec, nvars, 1, {
            tuple(int(j == i) for j in range(nvars)): _nonzero(draw, spec)
            for i in range(nvars)}) for _ in range(draw(st.integers(1, 4)))]
    else:
        spec = draw(st.sampled_from([
            prime_field(3), prime_field(7), extension_field(3, 2), F9_OTHER,
            extension_field(5, 2)]))
        if shape == "planes":
            nvars = draw(st.integers(7, 8))
            factors = [_linear_form(draw, spec, nvars)
                       for _ in range(draw(st.integers(4, 6)))]
        else:
            nvars = 6
            factors = [_form(draw, spec, nvars, 2) for _ in range(2)]
    if draw(st.booleans()):
        factors.append(factors[0])
    text = HomogPoly.product_text(factors)
    product = HomogPoly.product(factors)
    _assert_table_rule(product, kept_before)
    assert text == str(product) == _printed(product)
    if spec.is_finite:
        described = CountQuery.union(spec, nvars - 1, factors).describe()
        zero = any(f.is_zero() for f in factors)
        assert described["generators"] == ([] if zero else [text])


@pytest.mark.parametrize("tables", ["emptied", "kept"])
@pytest.mark.parametrize("spec", [prime_field(7), extension_field(3, 2),
                                  rationals()])
@pytest.mark.parametrize("nvars", [8, 16])
def test_product_of_coordinate_hyperplanes_builds_no_table(nvars, spec,
                                                           tables):
    """A product of nvars coordinate hyperplanes c_i * x_i is one monomial
    of a shape with comb(2 * nvars - 1, nvars) monomials (6,435 for 8,
    300,540,541 for 16): its text builds no table, and it prints as the
    term-by-term reference does, from any state of the kept tables."""
    if tables == "emptied":
        _monomial_tables.clear()
    else:
        HomogPoly.product_text(
            [parse_poly("x0 + x1 - 2*x2", spec, 3)] * 2)  # keep (3, 2)
    kept = dict(_monomial_tables)
    values = [1, 2, -1, Fraction(1, 2)] if not spec.is_finite else [1, 2]
    factors = [HomogPoly(spec, nvars, 1, {
        tuple(int(j == i) for j in range(nvars)): values[i % len(values)]})
        for i in range(nvars)]
    text = HomogPoly.product_text(factors)
    product = HomogPoly.product(factors)
    assert text == str(product) == _printed(product)
    assert dict(_monomial_tables) == kept
    assert (nvars, nvars) not in _monomial_tables


def test_kept_tables_share_one_entry_budget(monkeypatch):
    """A dense text builds the table of its shape once and later texts of
    that shape read it; the tables hold at most _MONOMIAL_ENTRIES entries
    together, the store is emptied when a new table would pass that, and a
    shape larger than the budget is printed without a table."""
    tables = {}
    monkeypatch.setattr(poly, "_monomial_tables", tables)
    monkeypatch.setattr(poly, "_MONOMIAL_ENTRIES", 20)
    spec = prime_field(5)

    def dense(nvars, degree):
        f = HomogPoly(spec, nvars, 1, {
            tuple(int(j == i) for j in range(nvars)): i % 4 + 1
            for i in range(nvars)})
        return HomogPoly.product([f] * degree)

    f43 = dense(4, 3)  # 20 monomials, the whole budget
    assert len(f43.coeffs) == comb(6, 3) == 20
    assert str(f43) == _printed(f43)
    table = tables[4, 3]
    assert list(tables) == [(4, 3)] and len(table) == 20
    assert str(dense(4, 3)) == str(f43)
    assert tables[4, 3] is table
    f32 = dense(3, 2)
    assert str(f32) == _printed(f32)
    assert list(tables) == [(3, 2)] and len(tables[3, 2]) == 6
    f53 = dense(5, 3)  # 35 monomials, past the budget
    assert str(f53) == _printed(f53)
    assert list(tables) == [(3, 2)]


def test_huge_degree_prints_without_a_text_per_power():
    """A table is built over the degrees its shape has monomials in, so a
    form of degree 10^6 in one variable builds one power's text, not one
    per power below it."""
    f = HomogPoly(F5, 1, 10**6, {(10**6,): 2})
    assert str(f) == "2*x0^1000000"
    assert len(_power_names(1)[0]) < 100


def test_fields_of_one_order_keep_their_own_coefficient_texts():
    """The coefficient texts are kept per field, not per order: the two
    fields of order 9 each print a union with their own arithmetic and
    texts."""
    default = extension_field(3, 2)
    assert default.modulus != F9_OTHER.modulus
    assert _prefixes(default) is _prefixes(default)
    assert _prefixes(default) is not _prefixes(F9_OTHER)
    texts = []
    for spec in (default, F9_OTHER):
        t = Ref(spec, spec.p)
        factors = [parse_poly(text, spec, 3) for text in (
            "x0 + (1+t)*x1 + t*x2", "t*x0 + x1 + (2+2*t)*x2", "x0 + x2")]
        text = HomogPoly.product_text(factors)
        assert text == _printed(HomogPoly.product(factors))
        assert ref_terms(HomogPoly.product(factors))[(0, 0, 3)] == (
            lit(spec, 2) + lit(spec, 2) * t) * t
        texts.append(text)
    assert texts[0] != texts[1]


def test_union_with_zero_factor_describes_no_generator():
    spec = prime_field(5)
    f = parse_poly("x0 + 2*x1", spec, 3)
    union = CountQuery.union(spec, 2, [f, HomogPoly.zero(spec, 3, 1), f])
    assert union.describe()["generators"] == []
    assert union.generators == ()
    assert union.describe() is union.describe()


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_text_of_built_form_survives_parse_round_trip(data):
    """Ring operations build forms through _from_terms with no text; the
    text str() fills in must be the one printed term by term, parse back to
    the same form and print the same again, whether the kept monomial
    tables were emptied before the example or kept from earlier ones."""
    draw = data.draw
    _set_tables(draw)
    spec = draw(st.sampled_from([
        prime_field(3), prime_field(7), extension_field(3, 2),
        extension_field(5, 2), rationals()]))
    nvars = draw(st.integers(1, 5))
    f = _form(draw, spec, nvars, draw(st.integers(0, 2)))
    g = _form(draw, spec, nvars, draw(st.integers(0, 2)))
    for built in (f * g, f - g if f.degree == g.degree else -f, f.power(2),
                  f * _constant(spec, nvars, _elem(draw, spec)),
                  f.insert_variable(0)):
        text = str(built)
        assert text == _printed(built)
        back = parse_poly(text, spec, built.nvars)
        assert back == built or (built.is_zero() and back.is_zero())
        assert str(back) == text == str(built)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_substitute_matches_term_by_term(data):
    """Substitution shares row powers between monomials; the result must be
    the sum over terms of coeff * prod_i (row i)^e_i.  Up to six variables
    and degree four, with as many or fewer or more columns than rows, so
    that pure powers x_i^degree meet every packing position."""
    draw = data.draw
    spec = draw(st.sampled_from([prime_field(5), extension_field(3, 2),
                                 extension_field(37, 2), rationals()]))
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
        tuple(1 if k == j else 0 for k in range(ncols)): row[j]
        for j in range(ncols)}) for row in M.rows]
    expect = HomogPoly.zero(spec, ncols, f.degree)
    for exps, coeff in f.coeffs.items():
        piece = HomogPoly(spec, ncols, 0, {(0,) * ncols: coeff})
        for i, e in enumerate(exps):
            for _ in range(e):
                piece = HomogPoly(spec, ncols, piece.degree + 1,
                                  _expanded_product(piece, rows[i]))
        expect = expect + piece
    assert f.linear_substitute(M) == expect
