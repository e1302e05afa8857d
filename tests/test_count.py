from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings, strategies as st

import motivic
import motivic.count
from conftest import (Ref, lit, projective_reps, ref_terms, reference_points,
                      reference_walk, scaled)
from motivic.count import (
    BudgetError,
    CountQuery,
    _pure,
    count_points,
    enumerate_points,
)
from motivic.fields import (_TABLE_LIMIT, extension_field, prime_field,
                            rationals)
from motivic.parse import parse_poly
from motivic.poly import HomogPoly

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
F9 = extension_field(3, 2)
F11 = prime_field(11)
F13 = prime_field(13)
F25 = extension_field(5, 2)
F27 = extension_field(3, 3)


def _q(text, spec, n, chart=()):
    gens = [parse_poly(t, spec, n + 1) for t in text] if text else []
    return CountQuery(spec, n, gens, chart)


def test_projective_space_counts():
    # #P^n(F_q) = (q^(n+1) - 1) / (q - 1)
    assert count_points(_q([], F3, 1)) == 4
    assert count_points(_q([], F3, 2)) == 13
    assert count_points(_q([], F3, 3)) == 40
    assert count_points(_q([], F5, 2)) == 31
    assert count_points(_q([], F7, 4)) == 2801
    assert count_points(_q([], F9, 2)) == 91


def test_smooth_quadric_counts():
    # split quadric surface in P^3 has (q+1)^2 points
    assert count_points(_q(["x0*x1 + x2*x3"], F3, 3)) == 16
    assert count_points(_q(["x0*x1 + x2*x3"], F5, 3)) == 36
    # smooth conic = P^1
    assert count_points(_q(["x0^2 + x1^2 + x2^2"], F3, 2)) == 4
    assert count_points(_q(["x0*x1 - x2^2"], F9, 2)) == 10
    # odd-dimensional smooth quadric in P^4: q^3 + q^2 + q + 1
    assert count_points(_q(["x0*x1 + x2*x3 + x4^2"], F7, 4)) == 400


def test_anisotropic_binary_form_is_empty():
    # -1 is not a square mod 3, so x0^2 + x1^2 has no projective zero
    assert count_points(_q(["x0^2 + x1^2"], F3, 1)) == 0


def test_charts_partition_projective_space():
    assert count_points(_q([], F3, 2, chart=((0, "nonzero"),))) == 9
    assert count_points(_q([], F3, 2, chart=((0, "zero"),))) == 4
    total = count_points(_q([], F3, 2))
    assert total == 9 + 4


def test_chart_on_hypersurface():
    f = ["x0*x1 + x2*x3"]
    whole = count_points(_q(f, F3, 3))
    on = count_points(_q(f, F3, 3, chart=((0, "zero"),)))
    off = count_points(_q(f, F3, 3, chart=((0, "nonzero"),)))
    assert on + off == whole


def test_multiple_generators():
    # V(x0, x1) in P^2 is the single point (0 : 0 : 1)
    assert count_points(_q(["x0", "x1"], F3, 2)) == 1
    pts = list(enumerate_points(_q(["x0", "x1"], F3, 2)))
    assert len(pts) == 1
    assert pts[0] == (0, 0, 1)


def test_query_validation():
    with pytest.raises(ValueError, match="ambient"):
        CountQuery(F3, -1, [])
    f = parse_poly("x0*x1", F3, 2)
    with pytest.raises(ValueError, match="does not live"):
        CountQuery(F3, 2, [f])
    with pytest.raises(ValueError, match="chart index"):
        CountQuery(F3, 1, [], chart=((5, "zero"),))
    with pytest.raises(ValueError, match="chart kind"):
        CountQuery(F3, 1, [], chart=((0, "positive"),))
    with pytest.raises(ValueError, match="duplicate"):
        CountQuery(F3, 1, [], chart=((0, "zero"), (0, "nonzero")))


def test_query_over_q_is_stated_but_not_counted():
    """A query over Q builds, compares and describes as one over F_q does;
    counting it, enumerating it or asking its cost raises ValueError."""
    Q = rationals()
    query = CountQuery(Q, 1, [parse_poly("x0^2 - 2*x1^2", Q, 2)])
    assert query == CountQuery(Q, 1, [parse_poly("x0^2 - 2*x1^2", Q, 2)])
    assert query.describe()["field"] == {"kind": "rationals"}
    for attempt in (lambda: count_points(query),
                    lambda: list(enumerate_points(query)),
                    lambda: motivic.count._first_point(query),
                    query.cost):
        with pytest.raises(ValueError, match="finite"):
            attempt()


def test_query_repr_names_its_field():
    """repr() names the field as str(spec) does: Q over the rationals, and
    the F%d of the field's order, as before, over F7 and F9."""
    Q = rationals()
    assert repr(_q(["x0*x1"], Q, 1)) == "#V(x0*x1) in P^1(Q)"
    assert repr(_q(["x0*x1"], F7, 1)) == "#V(x0*x1) in P^1(F7)"
    assert (repr(_q(["x0 + t*x1"], F9, 2, chart=((2, "zero"),)))
            == "#V(x0 + (t)*x1) in P^2(F9) | x2=0")


def test_query_equality_and_cost():
    a = _q(["x0*x1"], F3, 1)
    b = _q(["x0*x1"], F3, 1)
    assert a == b and hash(a) == hash(b)
    assert a != _q(["x0^2"], F3, 1)
    # the candidates of the lead strata: #P^n(F_q), fewer under a chart
    assert a.cost() == 4
    assert _q([], F5, 3).cost() == 156
    assert _q([], F3, 2, chart=((2, "nonzero"),)).cost() == 9
    assert _q([], F3, 2, chart=((0, "zero"), (1, "zero"))).cost() == 1


def test_budget_errors():
    with pytest.raises(BudgetError):
        count_points(_q([], F3, 20))  # (3^21 - 1) / 2 > default budget
    # P^2(F3) has 13 candidates: 12 is one short, 13 is enough
    with pytest.raises(BudgetError, match="needs 13 candidates, budget is 12"):
        count_points(_q([], F3, 2), budget=12)
    assert count_points(_q([], F3, 2), budget=13) == 13
    with pytest.raises(BudgetError, match="needs 13 candidates, budget is 12"):
        list(enumerate_points(_q([], F3, 2), budget=12))
    assert len(list(enumerate_points(_q([], F3, 2), budget=13))) == 13
    assert motivic.count._DEFAULT_BUDGET == 10**8


def test_large_extension_field_refused():
    F2187 = extension_field(3, 7)
    with pytest.raises(BudgetError, match="too large to tabulate"):
        count_points(CountQuery(F2187, 0, []))


def test_bigprime_path():
    # q > 1024 skips the q*q tables and evaluates mod p directly
    P = prime_field(1031)
    f = parse_poly("x0^2 - x1*x2", P, 3)
    n = count_points(CountQuery(P, 2, [f]), budget=2 * 10**9)
    assert n == 1032  # smooth conic = P^1


def _product(factors, spec, n):
    out = parse_poly(factors[0], spec, n + 1)
    for text in factors[1:]:
        out = out * parse_poly(text, spec, n + 1)
    return out


def _nonresidue(p):
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", [1031, 1033])
def test_bigprime_known_counts(p):
    """The direct-mod path against counts known by construction."""
    P = prime_field(p)
    r = _nonresidue(p)
    cases = [
        # binary forms: each linear factor is one point of P^1, x0 the
        # point (0 : 1) that only the stratum with no free position sees
        (1, ["x0", "x1", "x0 - 2*x1", "x0 + 5*x1"], (), 4),
        (1, ["x0 - 3*x1", "x0 - 3*x1", "x0 + x1"], (), 2),
        (1, ["x0^2 - %d*x1^2" % r], (), 0),
        (1, ["x0^2 - %d*x1^2" % r, "x0 - x1", "x1"], (), 2),
        (1, ["x0^2 - %d*x1^2" % r, "x0 - x1", "x1"], ((1, "nonzero"),), 1),
        (1, ["x0 - 7*x1", "x0 - 7*x1", "x0 - 7*x1", "x1"], (), 2),
        # conics and line pairs in P^2
        (2, ["x0^2 + x1^2 + x2^2"], (), p + 1),
        (2, ["x0^2 - x1*x2"], ((2, "nonzero"),), p),
        (2, ["x0", "x1"], (), 2 * p + 1),
        (2, ["x0", "x1"], ((2, "nonzero"),), 2 * p - 1),
        # x1*(x2 - x0) vanishes identically on the fibre over x1 = 0
        (2, ["x1", "x2 - x0"], (), 2 * p + 1),
        # x0^2 vanishes identically on the stratum x0 = 0, x1 = 1
        (2, ["x0", "x0"], (), p + 1),
    ]
    for n, factors, chart, expected in cases:
        query = CountQuery(P, n, [_product(factors, P, n)], chart)
        assert count_points(query, budget=2 * 10**9) == expected, factors
    # two generators, the second identically zero on the stratum x0 = 0,
    # x1 = 1: the line x2 = 0 and the point (0 : 0 : 1)
    query = CountQuery(P, 2, [_product(["x1", "x2"], P, 2),
                              _product(["x0", "x2"], P, 2)])
    assert count_points(query, budget=2 * 10**9) == p + 2
    # a union takes this path as the product of its factors' restrictions:
    # three lines through (0 : 0 : 1), and off x2 = 0 without their points
    # at infinity
    lines = [parse_poly(t, P, 3) for t in ("x0", "x1", "x0 - x1")]
    for chart, expected in [((), 3 * p + 1), (((2, "nonzero"),), 3 * p - 2)]:
        query = CountQuery.union(P, 2, lines, chart)
        assert count_points(query, budget=2 * 10**9) == expected


def test_enumerate_matches_count():
    for text, spec, n in [
        (["x0*x1 + x2^2"], F3, 2),
        (["x0^2 + x1^2 + x2^2"], F5, 2),
        ([], F9, 1),
        (["x0*x1 + x2*x3"], F3, 3),
    ]:
        query = _q(text, spec, n)
        pts = list(enumerate_points(query))
        assert len(pts) == count_points(query)
        for pt in pts:
            assert not any(g.evaluate(pt) for g in query.generators)


@pytest.mark.parametrize("spec", [
    F3, F5, F7, prime_field(11), F9, F25, extension_field(3, 3),
], ids=str)
def test_field_tables_match_element_arithmetic(spec):
    """The lane kernel's arithmetic on values agrees with the reference
    element's: the fold's mul, add and power, and each constant's matrix
    over F_p acting on the digits of every value."""
    mul, add, power = spec._mul, spec._add, spec._pow
    lanes = _pure._lanes(spec)
    p, m = spec.p, spec.m
    elems = [Ref(spec, i) for i in range(spec.order)]
    for a in elems:
        assert [power(a.value, e) for e in range(4)] == [
            (a ** e).value for e in range(4)]
        mat = lanes.matrix(a.value)
        assert len(mat) == m and all(len(row) == m for row in mat)
        for b in elems:
            assert mul(a.value, b.value) == (a * b).value
            assert add(a.value, b.value) == (a + b).value
            digits = spec._digits(b.value)
            image = [sum(x * d for x, d in zip(row, digits)) % p
                     for row in mat]
            assert spec._encode(image) == (a * b).value


@st.composite
def _f3_quadric(draw):
    terms = {}
    for i in range(3):
        for j in range(i, 3):
            c = draw(st.integers(0, 2))
            if c:
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
    return terms


@given(_f3_quadric())
@settings(max_examples=30, deadline=None)
def test_kernel_matches_direct_evaluation(terms):
    from motivic.poly import HomogPoly

    if not terms:
        return
    f = HomogPoly(F3, 3, 2, terms)
    query = CountQuery(F3, 2, [f])
    direct = sum(
        1 for pt in projective_reps(F3, 2) if not f.evaluate(pt)
    )
    assert count_points(query) == direct


def _draw_form(draw, spec, n, degree):
    """A nonzero form of the given degree, sometimes free of the last
    variable or a pure power of it."""
    nonzero = st.integers(1, spec.order - 1)
    shape = draw(st.sampled_from(["any", "no last", "power of last"]))
    if shape == "power of last" or n == 0:
        exps = tuple([0] * n + [degree])
        return HomogPoly(spec, n + 1, degree, {exps: draw(nonzero)})
    width = n + 1 if shape == "any" else n
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps = [0] * (n + 1)
        for i in draw(st.lists(st.integers(0, width - 1),
                               min_size=degree, max_size=degree)):
            exps[i] += 1
        terms[tuple(exps)] = draw(nonzero)
    return HomogPoly(spec, n + 1, degree, terms)


def _draw_space(draw):
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25, F27]))
    # P^3 over F11 has 1464 points, over F27 20440: enumerating them all
    # would take most of the run
    n = draw(st.integers(0, 3 if spec.order <= 9 else 2))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    return spec, n, chart


@st.composite
def _count_query(draw):
    """A query over a small field: 0 to 3 forms of degree 1 to 4, some free
    of the last variable or pure powers of it, and a random chart."""
    spec, n, chart = _draw_space(draw)
    forms = [_draw_form(draw, spec, n, draw(st.integers(1, 4)))
             for _ in range(draw(st.integers(0, 3)))]
    return CountQuery(spec, n, forms, chart)


def _draw_factors(draw, spec, n, most):
    """1 to most factors of degree 1 or 2, some of them repeated or zero."""
    factors = []
    for _ in range(draw(st.integers(1, most))):
        kind = draw(st.sampled_from(["form", "form", "repeat", "zero"]))
        degree = draw(st.integers(1, 2))
        if kind == "repeat" and factors:
            factors.append(draw(st.sampled_from(factors)))
        elif kind == "zero":
            factors.append(HomogPoly.zero(spec, n + 1, degree))
        else:
            factors.append(_draw_form(draw, spec, n, degree))
    return factors


@st.composite
def _union_query(draw):
    """A union of 1 to 4 factors of degree 1 or 2, some of them repeated or
    zero, with a random chart."""
    spec, n, chart = _draw_space(draw)
    return CountQuery.union(spec, n, _draw_factors(draw, spec, n, 4), chart)


@given(st.one_of(_count_query(), _union_query()))
# the middle free coordinate of the strata x0 = 1 and x1 = 1 is x2, which
# the chart keeps nonzero
@example(query=_q(["x0*x1 + x2^2 - 3*x3^2", "x1*x3 + x2*x0 + x3^2"], F7, 3,
                  chart=((2, "nonzero"),)))
# no generator: every candidate of the chart counts
@example(query=_q([], F13, 2, chart=((1, "nonzero"),)))
@settings(max_examples=120, deadline=None)
def test_pure_kernel_matches_enumeration(query):
    assert count_points(query) == len(reference_points(query))
    # cost() is the number of candidates the count walks: with no
    # generator every one of them is a point
    space = CountQuery(query.spec, query.n, [], query.chart)
    assert query.cost() == space.cost() == count_points(space)


F131 = prime_field(131)
F343 = extension_field(7, 3)
F1021 = prime_field(1021)


@st.composite
def _planned_query(draw):
    """A plain or union query for the lane kernel: 0 to 3 forms
    of degree 0 to 4 (constants, forms free of the last variable and pure
    powers of it among them) or a union of 1 to 3 factors, some zero, with
    random zero and nonzero constraints, the lead and last coordinates
    included.  The ambient dimension shrinks as the field grows, so that
    the brute-force walk stays small."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25, F27, F131,
                                 F343, F1021]))
    top = 4 if spec.order <= 7 else 3 if spec.order <= 13 else 2
    n = draw(st.integers(0, 1 if spec.order > 100 else top))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(0, 4)))
                 for _ in range(draw(st.integers(0, 3)))]
        return CountQuery(spec, n, forms, chart)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(0, 3))
        if draw(st.integers(0, 4)) == 0:
            factors.append(HomogPoly.zero(spec, n + 1, degree))
        else:
            factors.append(_draw_form(draw, spec, n, degree))
    return CountQuery.union(spec, n, factors, chart)


def _planned_count(query):
    """The query's count in the planned lane blocks (_pure.count_lanes),
    which count_points takes over a tabulated field only past a P^n of
    _BLOCK_LANES points."""
    polys, union = query._kernel_polys()
    plan = _pure._plan(query.spec.order, query.n, query.chart, False)
    if not polys or not plan.cost:
        return plan.cost
    gens = _pure._split(motivic.count._rows(polys), plan)
    return _pure.count_lanes(_pure._lanes(query.spec), gens, plan, union)


@given(_planned_query())
# a union whose only factor is zero, in P^0
@example(query=CountQuery.union(F3, 0, [HomogPoly.zero(F3, 1, 2)]))
# a constant generator and a form free of the last variable
@example(query=CountQuery(F5, 2, [HomogPoly(F5, 3, 0, {(0, 0, 0): F5.one}),
                                  parse_poly("x0*x1", F5, 3)]))
@example(query=_q(["x0^2 - 2*x1^2", "x0*x1 + x2^2"], F5, 4,
                  ((0, "nonzero"), (4, "zero"))))
# P^0 under a nonzero chart, and a union in P^0 with a zero factor
@example(query=_q(["2*x0^3"], F7, 0, ((0, "nonzero"),)))
@example(query=CountQuery.union(F9, 0, [HomogPoly.zero(F9, 1, 1),
                                        parse_poly("x0^2", F9, 1)]))
# F_{p^m} unions under charts, one projective block
@example(query=CountQuery.union(
    F25, 2, [parse_poly(t, F25, 3) for t in ("x0*x1 - x2^2", "x0 + x2")],
    ((1, "nonzero"),)))
@example(query=CountQuery.union(
    F27, 2, [parse_poly(t, F27, 3) for t in ("x0^2 + x1*x2", "x1 - x2")],
    ((0, "zero"), (2, "nonzero"))))
# cost() just below, at and just above _BLOCK_LANES: P^5(F5) has 3906
# candidates; P^3(F17) off the coordinate hyperplanes has 16^3 = 4096; with
# x0 free it has 4352, the stratum x0 = 1 an affine block of 4096 and x1 = 1
# the projective tail of 256
@example(query=_q(["x0*x1 - x2*x3 + x4^2 - 2*x5^2"], F5, 5))
@example(query=CountQuery.union(
    prime_field(17), 3, [parse_poly("x0*x1 - x2*x3", prime_field(17), 4),
                         parse_poly("x0 + x1 + x3", prime_field(17), 4)],
    ((0, "nonzero"), (1, "nonzero"), (2, "nonzero"), (3, "nonzero"))))
@example(query=_q(["x0*x1 - x2*x3 + 3*x1^2", "x0 - 2*x1 + x2"],
                  prime_field(17), 3,
                  ((1, "nonzero"), (2, "nonzero"), (3, "nonzero"))))
@settings(max_examples=100, deadline=None)
def test_planned_count_matches_strata_and_reference(query):
    """count_points counts what the point search lists and what the
    brute-force walk finds, and so do the planned lane blocks
    (_pure.count_lanes) that it takes past a P^n of _BLOCK_LANES points;
    a query of at most _BLOCK_LANES candidates is one projective block."""
    expected = len(reference_walk(query)[0])
    assert count_points(query) == len(list(enumerate_points(query))) \
        == _planned_count(query) == expected
    t = _pure._plan(query.spec.order, query.n, query.chart, False).t
    assert (t == 0) == (query.cost() <= _pure._BLOCK_LANES)


def test_monomial_vectors_stay_bounded_per_field(monkeypatch):
    """The monomial vectors the lane kernel keeps per field, affine and
    projective, never hold more than _VECTOR_BITS bits, here lowered so
    that the counts pass it, and counting over more fields than _FIELDS
    leaves _lanes at that size; the counts stay exact."""
    bound = 1 << 16
    monkeypatch.setattr(_pure, "_VECTOR_BITS", bound)
    built = {}
    kron = _pure._Lanes._kron

    def counted(lanes, values, planes, n):
        vec = kron(lanes, values, planes, n)
        built[lanes.q] = built.get(lanes.q, 0) + sum(
            [plane.bit_length() for plane in vec])
        return vec

    monkeypatch.setattr(_pure._Lanes, "_kron", counted)
    # start from empty caches: earlier counts filled them under the real
    # bound
    _pure._lanes.cache_clear()
    fields = [prime_field(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                       37, 41, 43, 47, 53, 59, 61)]
    fields += [F9, F25, F27, F343]
    for spec in fields:
        n = 3 if spec.order <= 9 else 2 if spec.order <= 31 else 1
        query = CountQuery(spec, n, [_dense_form(spec, n, 3, spec.order)])
        assert count_points(query) == len(reference_points(query))
        lanes = _pure._lanes(spec)
        held = sum([plane.bit_length() for vec in lanes.vectors.values()
                    for plane in vec])
        # every bit held is counted once: a projective vector that is the
        # affine one is not stored again
        assert 0 < held == lanes.held <= bound
        # each query is one projective block, whose vectors are built last
        # and held under the same bound
        projective = sum([plane.bit_length()
                          for (_, _, proj), vec in lanes.vectors.items()
                          if proj for plane in vec])
        assert 0 < projective <= held
    # the bound was passed, so some caches were emptied on the way
    assert max(built.values()) > bound
    info = _pure._lanes.cache_info()
    assert info.currsize == info.maxsize == _pure._FIELDS < len(fields)


def test_generators_are_split_once_per_query(monkeypatch):
    """Past the small spaces a count and a point search read a query's
    generators once (_rows) and split them once (_pure._split), whatever
    its number of strata, and derive each stratum from that split.  In a
    P^n of at most _SEARCH_LANES points a count, a union count, an
    enumeration and a search read each form's terms once in all and split
    nothing: every query after the first reads the lanes the form keeps."""
    reads, splits = [], []
    rows, split = motivic.count._rows, _pure._split

    def reading(polys):
        reads.append(list(polys))
        return rows(polys)

    def splitting(rows, plan):
        splits.append(len(plan.strata))
        return split(rows, plan)

    monkeypatch.setattr(motivic.count, "_rows", reading)
    monkeypatch.setattr(_pure, "_split", splitting)
    f = parse_poly("x0*x1 - x2*x3", F5, 4)
    h = parse_poly("x0^2 + x1*x3 + x2^2", F5, 4)
    # P^3(F5) has 156 points
    for query in (CountQuery(F5, 3, [f, h]), CountQuery.union(F5, 3, [f, h])):
        expected = reference_walk(query)[0]
        assert count_points(query) == len(expected)
        assert list(enumerate_points(query)) == [pt for _, pt in expected]
        assert motivic.count._first_point(query) == expected[0][1]
    assert reads == [[f], [h]] and splits == []
    big = prime_field(1031)
    # past the table limit two lead strata, x0 = 1 and x3 = 1; over F11 in
    # P^4, 16105 candidates, the strata x0 = 1 (under a prefix) and x1 = 1
    # each an affine block and the rest one projective block
    for query in (_q(["x0^2 - x3^2", "x0^3 - x0*x3^2"], big, 3,
                     ((1, "zero"), (2, "zero"))),
                  _q(["x0*x1 - x2*x3 + x4^2", "x1 - x4"], F11, 4)):
        reads.clear()
        splits.clear()
        expected = reference_walk(query)[0]
        assert count_points(query) == len(expected)
        assert len(list(enumerate_points(query))) == len(expected)
        assert motivic.count._first_point(query) == expected[0][1]
        polys = list(query._kernel_polys()[0])
        assert reads == [polys] * 3
        assert len(splits) == 3 and splits[1] == splits[2] > 1


@st.composite
def _shared_form_queries(draw):
    """Two to four queries over one P^n of at most _SEARCH_LANES points,
    over F3, F5, F7, F9 or F25, drawn from one pool of forms so that the
    later queries read the lanes the forms keep: each a plain query or a
    union, some unions with a zero factor, under its own random zero and
    nonzero chart."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F25]))
    # P^5(F3) has 364 points, P^4(F5) 781, P^3(F7) 400, P^3(F9) 820 and
    # P^2(F25) 651
    n = draw(st.integers(0, {3: 5, 5: 4, 7: 3, 9: 3, 25: 2}[spec.order]))
    pool = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 3)))]
    queries = []
    for _ in range(draw(st.integers(2, 4))):
        chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
                 for i in range(n + 1) if draw(st.booleans())]
        forms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        if draw(st.booleans()):
            queries.append(CountQuery(spec, n, forms, chart))
        else:
            if draw(st.booleans()):
                forms.append(HomogPoly.zero(spec, n + 1, 1))
            queries.append(CountQuery.union(spec, n, forms, chart))
    return queries


def _kept_lanes_example(spec, n, texts, charts, zero=False):
    """Queries on one pool of forms, parsed from texts: each form alone,
    then all of them under each chart of charts, then their union, with a
    zero factor when zero is set, under each chart."""
    pool = [parse_poly(t, spec, n + 1) for t in texts]
    union = pool + [HomogPoly.zero(spec, n + 1, 1)] * zero
    return ([CountQuery(spec, n, [f]) for f in pool]
            + [CountQuery(spec, n, pool, chart) for chart in charts]
            + [CountQuery.union(spec, n, union, chart) for chart in charts])


@given(_shared_form_queries())
@example(queries=_kept_lanes_example(
    F9, 3, ["x0*x1 - x2*x3", "x0 + x3"],
    [((0, "zero"),), ((1, "nonzero"), (3, "zero"))], zero=True))
@example(queries=_kept_lanes_example(
    F25, 2, ["x0^2 - 2*x1*x2", "x1^3 + x0*x2^2"], [(), ((2, "nonzero"),)]))
@settings(max_examples=60, deadline=None)
def test_small_spaces_read_the_lanes_each_form_keeps(queries):
    """count_points, enumerate_points and _first_point in a P^n of at most
    _SEARCH_LANES points against the brute-force walk, on queries that
    share their forms; a charted query searches through its plan.  Asked a
    second time, no count reads a form's terms again or evaluates a
    block, charted or not, and no search without a chart reads the terms:
    they read the lanes its forms, and the coordinate forms of its chart,
    kept the first time.  Only a charted enumeration reads them again."""
    expected = []
    for query in queries:
        points = [pt for _, pt in reference_walk(query)[0]]
        expected.append(points)
        assert count_points(query) == len(points)
        assert list(enumerate_points(query)) == points
        assert motivic.count._first_point(query) == (
            points[0] if points else None)
    rows, reads = motivic.count._rows, []
    zeros, evaluated = _pure._zeros, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motivic.count, "_rows",
                      lambda polys: reads.append(polys) or rows(polys))
        patch.setattr(_pure, "_zeros",
                      lambda *args: evaluated.append(args) or zeros(*args))
        for query, points in zip(queries, expected):
            reads.clear()
            evaluated.clear()
            assert count_points(query) == len(points)
            assert reads == [] and evaluated == []
            assert list(enumerate_points(query)) == points
            assert reads == [] or query.chart


def test_forms_keep_lanes_only_over_small_spaces():
    """A count keeps a form's zero lanes over a P^n of at most
    _BLOCK_LANES points, and a search with no chart over one of at most
    _SEARCH_LANES; past them the form keeps nothing, and its counts and
    searches walk blocks and fibres as before.  A charted count keeps them
    too, and a charted search keeps nothing over any P^n."""
    assert _pure._BLOCK_LANES == 4096 and _pure._SEARCH_LANES == 1024
    cases = [
        # (field, n, #P^n, a count keeps lanes, a search keeps lanes)
        (F3, 5, 364, True, True),
        (F7, 4, 2801, True, False),
        (F3, 7, 3280, True, False),
        (F3, 8, 9841, False, False),
        (F11, 4, 16105, False, False),
    ]
    for spec, n, size, counted, searched in cases:
        assert count_points(CountQuery(spec, n)) == size
        names = ["x%d" % i for i in range(n + 1)]
        text = " + ".join(a + "*" + b for a, b in zip(names, names[1:]))
        query = CountQuery(spec, n, [parse_poly(text, spec, n + 1)])
        (form,) = query.generators
        points = reference_walk(query)[0]
        assert motivic.count._first_point(query) == points[0][1]
        assert hasattr(form, "_zero_lanes") is searched
        assert count_points(query) == len(points)
        assert hasattr(form, "_zero_lanes") is counted
    # P^2(F3) has 13 points, 9 of them off x0 = 0
    form = parse_poly("x0*x1 + x1*x2", F3, 3)
    query = CountQuery(F3, 2, [form], ((0, "nonzero"),))
    points = reference_walk(query)[0]
    assert motivic.count._first_point(query) == points[0][1]
    assert not hasattr(form, "_zero_lanes")
    assert count_points(query) == len(points)
    assert hasattr(form, "_zero_lanes")


@pytest.mark.parametrize("q, n, size, counted, searched", [
    (31, 2, 993, "kept", "kept"),
    (11, 3, 1464, "kept", "lanes"),
    (5, 5, 3906, "kept", "lanes"),
    (3, 8, 9841, "lanes", "lanes"),
    (1021, 1, 1022, "kept", "kept"),
    # the order of F_{2^10}, at the table limit itself
    (1024, 1, 1025, "kept", "lanes"),
    (1031, 1, 1032, "fibres", "fibres"),
    # F_{37^2}
    (1369, 1, 1370, "fibres", "fibres"),
])
def test_plans_name_each_kernel_at_the_size_boundaries(q, n, size, counted,
                                                       searched):
    """_pure._plan names the kernel of a count and of a point search with
    no chart from q and #P^n: "kept" over a tabulated P^n of at most
    _BLOCK_LANES points for a count, _SEARCH_LANES for a search, "lanes"
    over a larger tabulated one and "fibres" past the table limit.  A
    chart leaves a count's kernel as it is, and sends a search past the
    kept lanes."""
    assert _pure._space(q, n) == size
    chart = ((0, "nonzero"),)
    assert _pure._plan(q, n, (), False).kernel == counted
    assert _pure._plan(q, n, chart, False).kernel == counted
    assert _pure._plan(q, n, (), True).kernel == searched
    assert _pure._plan(q, n, chart, True).kernel == (
        "fibres" if q > _TABLE_LIMIT else "lanes")


@pytest.mark.parametrize("spec, text, chart, k", [
    (F7, "x0^2 - 3*x1^2 + x2^2", (), 11),
    # the stratum x0 = 1 holds 49 points, x1 = 1 seven and x2 = 1 one
    (F7, "x0", (), 50),
    (F7, "x0^2 + x1^2", (), 57),
    (F9, "x0*x2 - x1^2 + 3*x2^2", ((0, "zero"),), 10),
    (F7, "x0^2 - 3*x1^2 + x2^2", ((2, "nonzero"),), 9),
], ids=["no chart", "lead x1", "lead x2", "zero chart", "nonzero chart"])
def test_small_space_search_stops_where_the_walk_does(spec, text, chart, k):
    """k is the walk position of the first point (reference_walk).  Under
    budget k - 1 a search over the kept lanes raises the fibre walk's
    BudgetError, with the same text; under budget k it returns the same
    point.  A charted search walks fibres on both sides.  Under a budget
    of #P^n or more an enumeration lists every point and raises nothing."""
    query = _q([text], spec, 2, chart)
    walk = reference_walk(query)[0]
    position, first = walk[0]
    assert position == k
    passed = ("no point of %r among the first %d candidates, budget is %d"
              % (query, k - 1, k - 1))
    for search in (motivic.count._points, motivic.count._walk_points):
        with pytest.raises(BudgetError) as err:
            next(search(query, k - 1))
        assert str(err.value) == passed
        assert next(search(query, k)) == first
    with pytest.raises(BudgetError) as err:
        motivic.count._first_point(query, k - 1)
    assert str(err.value) == passed
    assert motivic.count._first_point(query, k) == first
    size = _pure._space(spec.order, 2)
    for budget in (size, size + 1):
        assert list(enumerate_points(query, budget)) == [pt for _, pt in walk]


def _binary_forms(spec, degree, up_to_scalar):
    """Every nonzero binary form of the degree over spec; with up_to_scalar
    only those whose first nonzero coefficient is 1."""
    monomials = [(degree - k, k) for k in range(degree + 1)]
    for values in product(range(spec.order), repeat=degree + 1):
        first = next((v for v in values if v), 0)
        if first == 1 or first and not up_to_scalar:
            yield HomogPoly(spec, 2, degree, {
                m: v for m, v in zip(monomials, values) if v})


@pytest.mark.parametrize("spec", [F3, F5, F7, F9, F27], ids=str)
def test_closed_form_roots_cover_every_binary_form(spec):
    """Every binary form of degree 1 and 2 is counted against the
    brute-force walk: plain, in a union with x0 - x1 and off x1 = 0.  In
    P^1 a count is one projective block, the q lanes of the stratum x0 = 1
    and the one lane of (0 : 1), so every form checks the lanes a root
    can take, the point at infinity among them.  Over F27 the quadratics
    are taken up to a nonzero scalar (757 of 19682), which keeps their
    points, so every zero set is still met; each of the 20 thousand would
    cost as much to enumerate."""
    other = parse_poly("x0 - x1", spec, 2)
    for degree in (1, 2):
        up_to_scalar = degree == 2 and spec is F27
        for f in _binary_forms(spec, degree, up_to_scalar):
            for query in (CountQuery(spec, 1, [f]),
                          CountQuery.union(spec, 1, [f, other]),
                          CountQuery(spec, 1, [f], ((1, "nonzero"),))):
                assert count_points(query) == len(
                    reference_points(query)), query


def test_union_counts_as_its_product():
    f = parse_poly("x0*x1 - x2*x3", F5, 4)
    h = parse_poly("x0 + 2*x3", F5, 4)
    union = CountQuery.union(F5, 3, [f, h, h], ((1, "nonzero"),))
    product = CountQuery(F5, 3, [f * h * h], ((1, "nonzero"),))
    assert union.generators == product.generators
    assert union.describe() == product.describe()
    assert union != product
    assert count_points(union) == count_points(product)
    with pytest.raises(ValueError, match="at least one factor"):
        CountQuery.union(F5, 3, [])
    with pytest.raises(ValueError, match="does not live"):
        CountQuery.union(F5, 2, [f])


def test_query_equality_and_hash_are_stable():
    f = parse_poly("x0*x1 - x2^2", F7, 3)
    h = parse_poly("x0 + 3*x2", F7, 3)
    a, b = CountQuery(F7, 2, [f, h]), CountQuery(F7, 2, [f, h])
    assert [hash(a) for _ in range(3)] == [hash(b)] * 3
    assert a == b and b == a and a == b
    assert a != CountQuery(F7, 2, [h, f])  # generator order is structure
    u = CountQuery.union(F7, 2, [f, h])
    # order, repetition and nonzero scalars of the factors do not matter
    same = [CountQuery.union(F7, 2, [h, f]),
            CountQuery.union(F7, 2, [f, h, f]),
            CountQuery.union(F7, 2, [scaled(f, lit(F7, 3)),
                                     scaled(h, lit(F7, 6))])]
    for other in same:
        assert other == u and hash(other) == hash(u)
        assert count_points(other) == count_points(u)
    assert u != CountQuery.union(F7, 2, [f])
    assert u != CountQuery.union(F7, 2, [f, h], ((0, "zero"),))
    assert len({u, a, *same}) == 2


@given(st.one_of(_count_query(), _union_query()))
@settings(max_examples=120, deadline=None)
def test_enumerate_points_matches_generic_walk(query):
    """enumerate_points yields the points of the brute-force walk, in the
    same order, as tuples of values of the query's field."""
    pts = list(enumerate_points(query))
    assert pts == reference_points(query)
    assert all(type(c) is int and 0 <= c < query.spec.order
               for pt in pts for c in pt)


def _points_within(query, budget, search=motivic.count._points):
    """(points, error text) of a point search under budget: the points it
    yields before it stops, and the BudgetError it stops with, or None."""
    pts = []
    try:
        for pt in search(query, budget):
            pts.append(pt)
    except BudgetError as e:
        return pts, str(e)
    return pts, None


@st.composite
def _search_query(draw):
    """A plain or union query over F3-F13, F9 or F25 in P^0-P^3."""
    spec = draw(st.sampled_from([F3, F5, F7, F9, F11, F13, F25]))
    n = draw(st.integers(0, 3))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 3)))]
        return CountQuery(spec, n, forms, chart)
    factors = [_draw_form(draw, spec, n, draw(st.integers(1, 2)))
               for _ in range(draw(st.integers(1, 3)))]
    return CountQuery.union(spec, n, factors, chart)


def _assert_searches_match_reference(query, more_budgets=()):
    """_first_point and enumerate_points against the brute-force walk at
    budgets k - 1, k and k + 1 around the first point's position k and the
    candidate count, and at more_budgets: a point at position k is
    returned iff k <= budget, the walk yields every point up to the budget
    and then raises once it passes budget candidates, and enumerate_points
    charges every candidate up front.  Over a tabulated field the fibre
    walk (_walk_points), which _points takes there only past a P^n of
    _SEARCH_LANES points, is held to the same.  Returns the reference's
    points."""
    points, total = reference_walk(query)
    assert query.cost() == total
    budgets = {total - 1, total, total + 1, *more_budgets}
    if points:
        k = points[0][0]
        budgets |= {k - 1, k, k + 1}
    for budget in sorted(b for b in budgets if b >= 0):
        within = [pt for pos, pt in points if pos <= budget]
        passed = None
        if total > budget:
            passed = ("no point of %r among the first %d candidates, budget "
                      "is %d" % (query, budget, budget))
        assert _points_within(query, budget) == (within, passed)
        if query.spec.order <= _TABLE_LIMIT:
            assert _points_within(query, budget, motivic.count._walk_points) \
                == (within, passed)
        if within:
            assert motivic.count._first_point(query, budget) == within[0]
        elif passed:
            with pytest.raises(BudgetError) as err:
                motivic.count._first_point(query, budget)
            assert str(err.value) == passed
        else:
            assert motivic.count._first_point(query, budget) is None
        if total > budget:
            with pytest.raises(BudgetError) as err:
                next(enumerate_points(query, budget))
            assert str(err.value) == (
                "enumerating %r needs %d candidates, budget is %d"
                % (query, total, budget))
        else:
            assert list(enumerate_points(query, budget)) == within
    return points


@given(_search_query(), st.data())
# the first point of x0^2 - 2*x1^2 in P^1(F7) is (1 : 3), the 5th candidate
@example(query=_q(["x0^2 - 2*x1^2"], F7, 1), data=None)
@settings(max_examples=80, deadline=None)
def test_point_searches_match_reference_walk(query, data):
    """Point searches over tabulated fields, the kept lanes and the fibre
    walk, at the budgets of _assert_searches_match_reference and one more
    drawn budget."""
    more = ()
    if data is not None:
        more = [data.draw(st.integers(0, query.cost() + 1))]
    _assert_searches_match_reference(query, more)


@pytest.mark.parametrize("spec", [prime_field(1031), extension_field(37, 2)],
                         ids=str)
def test_point_searches_past_the_table_limit(spec):
    """Fields too large to tabulate test each value of a fibre in turn."""
    g = spec.p if spec.kind == "Fpm" else 5
    lines = [parse_poly("x0 - x1", spec, 2),
             HomogPoly(spec, 2, 1, {(1, 0): g, (0, 1): spec.one})]
    for query in [
            _q(["x0^2 - x1^2"], spec, 1),
            _q(["x0^3 - x1^3 + x0*x1^2"], spec, 1, ((1, "nonzero"),)),
            CountQuery.union(spec, 1, lines),
            _q(["x0*x1 - x2^2", "x1 - x2"], spec, 2, ((0, "zero"),))]:
        _assert_searches_match_reference(query)


F1031 = prime_field(1031)
F1369 = extension_field(37, 2)


@st.composite
def _query_past_the_table_limit(draw):
    """A plain query of 0 to 2 forms of degree 1 to 3, or a union of 1 to 3
    factors, some zero or repeated, over F1031 or F1369 in P^0-P^2 with a
    random chart.  In P^2 the chart sets some coordinate to zero, so that
    the brute-force walk stays near q candidates."""
    spec = draw(st.sampled_from([F1031, F1369]))
    n = draw(st.integers(0, 2))
    chart = {i: draw(st.sampled_from(["zero", "nonzero"]))
             for i in range(n + 1) if draw(st.booleans())}
    if n == 2 and "zero" not in chart.values():
        chart[draw(st.integers(0, 2))] = "zero"
    chart = sorted(chart.items())
    if draw(st.booleans()):
        forms = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 2)))]
        return CountQuery(spec, n, forms, chart)
    return CountQuery.union(spec, n, _draw_factors(draw, spec, n, 3), chart)


@given(_query_past_the_table_limit(), st.data())
@settings(max_examples=30, deadline=None)
def test_walks_past_the_table_limit_match_reference_walk(query, data):
    """The modular fold against the brute-force walk: point searches over
    F1031 and F1369 at the budgets of _assert_searches_match_reference and
    one more drawn budget, and counts over F1031."""
    more = [data.draw(st.integers(0, query.cost() + 1))]
    points = _assert_searches_match_reference(query, more)
    if query.spec.kind == "Fp":
        assert count_points(query) == len(points)


@pytest.mark.parametrize("spec", [F5, F1031], ids=str)
def test_unions_are_never_expanded(monkeypatch, spec):
    """repr(), counts, point searches and their BudgetError texts take a
    union factor by factor: with HomogPoly.product refused, each gives
    what it gave with the expanded product."""
    chart = ((1, "zero"),)
    lines = [parse_poly(t, spec, 3) for t in ("x0 - x2", "x0 + 2*x2", "x0")]

    def unions():
        return [CountQuery.union(spec, 2, lines, chart),
                CountQuery.union(spec, 2, lines + [HomogPoly.zero(spec, 3, 1)],
                                 chart)]

    expected = []
    for query in unions():
        body = "; ".join(str(g) for g in query.generators) or "0"
        expected.append(("#V(%s) in P^2(F%d) | x1=0" % (body, spec.order),)
                        + reference_walk(query))

    def refuse(cls, polys):
        raise AssertionError("a union was expanded")

    monkeypatch.setattr(HomogPoly, "product", classmethod(refuse))
    for query, (text, points, total) in zip(unions(), expected):
        assert repr(query) == text
        assert count_points(query, budget=total) == len(points)
        assert list(enumerate_points(query, total)) == [p for _, p in points]
        assert motivic.count._first_point(query, total) == points[0][1]
        with pytest.raises(BudgetError) as err:
            count_points(query, budget=total - 1)
        assert str(err.value) == ("counting %s needs %d candidates, budget "
                                  "is %d" % (text, total, total - 1))
        with pytest.raises(BudgetError) as err:
            motivic.count._first_point(query, 0)
        assert str(err.value) == ("no point of %s among the first 0 "
                                  "candidates, budget is 0" % text)


def test_first_point_in_the_first_fibre_walks_that_fibre(monkeypatch):
    """Over F1021 in P^3, a point search whose first point lies in the
    first fibre evaluates that fibre alone: at most one block evaluation
    (_pure._zeros) per generator, each over the q lanes of the last
    coordinate, where a block over more coordinates would hold q^2 or
    more."""
    calls = []
    zeros = _pure._zeros

    def counted(lanes, coeffs, vectors, masks):
        # the lanes of the block: one top bit each
        calls.append(masks[0].bit_count())
        return zeros(lanes, coeffs, vectors, masks)

    monkeypatch.setattr(_pure, "_zeros", counted)
    f = parse_poly("x0*x1 - x2*x3", F1021, 4)
    h = parse_poly("x0^2*x1 + x0*x2^2 - x3^3", F1021, 4)
    origin = (1, 0, 0, 0)
    for query in (CountQuery(F1021, 3, [f, h]),
                  CountQuery.union(F1021, 3, [h, f])):
        calls.clear()
        assert motivic.count._first_point(query) == origin
        assert 1 <= len(calls) <= len(query._kernel_polys()[0])
        assert set(calls) == {1021}


def _dense_form(spec, n, degree, seed):
    """A form with every monomial of the degree in P^n, each coefficient
    nonzero and chosen by seed."""
    terms = {}
    for k, pick in enumerate(combinations_with_replacement(range(n + 1),
                                                           degree)):
        exps = [0] * (n + 1)
        for i in pick:
            exps[i] += 1
        terms[tuple(exps)] = 1 + (seed + 5 * k + k * k) % (spec.order - 1)
    return HomogPoly(spec, n + 1, degree, terms)


def test_lane_geometries_match_reference_walk():
    """Counts and point searches against the brute-force walk in the lane
    shapes at the edges of the kernel: more slots than one reduction chunk,
    the widest lanes, the tightest chunk of a digit-plane field, and a
    stratum too large for one block.  Each count is taken both over the
    kept lanes of the whole space and in the planned blocks
    (_planned_count)."""
    quartic = _dense_form(F3, 4, 4, 1)
    # 70 slots in the stratum x0 = 1, reduced more than once
    assert len(quartic.coeffs) == 70 > _pure._lanes(F3).chunk
    line = parse_poly("x0 + x1 - x4", F3, 5)
    wide = _dense_form(F1021, 1, 4, 2)
    assert _pure._lanes(F1021).width == max(
        _pure._lanes(prime_field(p)).width for p in (3, 31, 1021))
    # 9 slots of x1 against a chunk of 8: reduced mid-sum on the widest
    # lanes; the product of 8 lines has 8 points
    octic = _dense_form(F1021, 1, 8, 4)
    roots = HomogPoly.product([parse_poly("x1 - %d*x0" % a, F1021, 2)
                               for a in (1, 2, 509, 510, 1000, 1017, 1019,
                                         1020)])
    assert len(roots.coeffs) == 9 > _pure._lanes(F1021).chunk == 8
    # F961: 5 slots of 2 products each against a chunk of 9, the least of
    # any digit-plane field
    F961 = extension_field(31, 2)
    assert F961.m * 5 > _pure._lanes(F961).chunk == 9
    quartic961 = _dense_form(F961, 1, 4, 5)
    lines961 = HomogPoly.product([HomogPoly(F961, 2, 1, {
        (1, 0): a, (0, 1): F961.one}) for a in (1, 40, 500, 960)])
    assert len(lines961.coeffs) == 5
    # P^8(F3): the stratum x0 = 1 has 3^8 = 6561 candidates, so its block is
    # the last 7 coordinates and x1 runs as the prefix; x1 = 1 takes the
    # same block with no prefix, and the strata led by x2 to x8 hold 1093
    # candidates, one projective block over those 7 coordinates
    big = _dense_form(F3, 8, 2, 3)
    plan = _pure._plan(3, 8, (), False)
    assert (plan.t, plan.z, plan.block) == (2, 2, (0,) * 7)
    for query in (CountQuery(F3, 4, [quartic]),
                  CountQuery.union(F3, 4, [quartic, line]),
                  CountQuery(F3, 4, [quartic], ((0, "nonzero"),)),
                  CountQuery(F1021, 1, [wide]),
                  CountQuery(F1021, 1, [wide], ((1, "nonzero"),)),
                  CountQuery(F1021, 1, [octic]),
                  CountQuery(F1021, 1, [roots]),
                  CountQuery.union(F1021, 1, [octic, roots]),
                  CountQuery(F961, 1, [quartic961]),
                  CountQuery(F961, 1, [lines961]),
                  CountQuery.union(F961, 1, [quartic961, lines961]),
                  CountQuery(F3, 8, [big])):
        points = reference_points(query)
        assert count_points(query) == _planned_count(query) == len(points), \
            query
        assert list(enumerate_points(query)) == points, query
    assert count_points(CountQuery(F1021, 1, [roots])) == 8
    assert count_points(CountQuery(F961, 1, [lines961])) == 4


@pytest.mark.parametrize("spec", [
    F3, prime_field(31), F1021, F9, extension_field(31, 2),
    extension_field(3, 6),
], ids=str)
def test_zero_lanes_are_exact_at_the_largest_sums(monkeypatch, spec):
    """_zeros against field arithmetic lane by lane, on sums of three chunks
    and more of products as large as the lanes take: half the lanes hold
    p - 1 in every digit of every slot, as does every constant but the
    last.  Each reduction must find every lane below 2^(shift - b), the
    bound within which its multiply-shift is exact, so a chunk one product
    too long fails here over F_p.  The last slot cancels the sum on every
    other lane, so that both zero and nonzero lanes are checked."""
    lanes = _pure._lanes(spec)
    mul, add = spec._mul, spec._add
    p, q, width = spec.p, spec.order, lanes.width
    top = spec._encode([p - 1] * spec.m)
    nlanes, nslots = 40, 3 * lanes.chunk + 1
    coeffs = [top] * nslots
    values = [[top if i < nlanes // 2 else (i * k + 1) % q
               for i in range(nlanes)] for k in range(nslots)]
    sums = [0] * nlanes
    for c, vals in zip(coeffs, values):
        sums = [add(s, mul(c, v)) for s, v in zip(sums, vals)]
    # one more slot, constant 1: minus the sum on even lanes
    coeffs.append(1)
    values.append([spec._neg(s) if i % 2 == 0 else i % q
                   for i, s in enumerate(sums)])
    sums = [add(s, v) for s, v in zip(sums, values[-1])]

    reduce = lanes.reduce
    bound = 1 << lanes.shift - (p - 1).bit_length()

    def checked(x, qmask):
        assert all(x >> i * width & (1 << width) - 1 < bound
                   for i in range(nlanes))
        return reduce(x, qmask)

    monkeypatch.setattr(lanes, "reduce", checked)

    def planes(vals):
        return tuple(sum(spec._digits(v)[d] << i * width
                         for i, v in enumerate(vals)) for d in range(spec.m))

    zeros = _pure._zeros(lanes, coeffs, [planes(v) for v in values],
                         lanes.masks(nlanes))
    got = [zeros >> (i + 1) * width - 1 & 1 for i in range(nlanes)]
    assert got == [int(s == 0) for s in sums]
    assert 0 < sum(got) < nlanes


@pytest.mark.parametrize("spec, n", [(F5, 3), (F9, 2), (F1031, 1), (F7, 0)],
                         ids=str)
def test_every_chart_pattern_matches_reference_walk(spec, n):
    """Counts and point lists against the brute-force walk under every
    chart pattern, each coordinate free, zero or nonzero: the pattern
    decides where the projective block of a count ends (at the first
    nonzero coordinate) and which coordinates it drops (the zero ones)."""
    quadric = _dense_form(spec, n, 2, 1)
    line = _dense_form(spec, n, 1, 2)
    cubic = _dense_form(spec, n, 3, 3)
    for pattern in product((None, "zero", "nonzero"), repeat=n + 1):
        chart = [(i, kind) for i, kind in enumerate(pattern) if kind]
        for query in (CountQuery(spec, n, [quadric, cubic], chart),
                      CountQuery.union(spec, n, [quadric, line], chart),
                      CountQuery(spec, n, [], chart)):
            points = reference_points(query)
            assert count_points(query, budget=2 * 10**9) == len(points), \
                query
            assert list(enumerate_points(query, 2 * 10**9)) == points, query


@st.composite
def _reduced_query(draw):
    """(query, lift, raises): a query of one or two forms of degree 1 to 3,
    or a union of two, and how to raise its exponents (_raised): by lift =
    J * (q - 1) with J up to 10^12 / (q - 1), each term's in one
    coordinate where it is positive, or split in two terms whose
    coefficients add up to its own and are raised in different coordinates,
    which reduce to one monomial again.  Each raise is (exps, part, i)."""
    spec = draw(st.sampled_from([F5, F7, F13, F9, F25, F27, F1031]))
    q = spec.order
    n = draw(st.integers(0, 1 if q > 100 else 2))
    chart = [(i, draw(st.sampled_from(["zero", "nonzero"])))
             for i in range(n + 1) if draw(st.booleans())]
    nonzero = st.integers(1, q - 1).map(lambda v: Ref(spec, v))
    forms = [_draw_form(draw, spec, n, draw(st.integers(1, 3)))
             for _ in range(draw(st.integers(1, 2)))]
    raises = []
    for f in forms:
        raised = []
        for exps, c in ref_terms(f).items():
            parts = [c]
            if sum(e > 0 for e in exps) > 1 and draw(st.booleans()):
                first = draw(nonzero)
                parts = [first, c - first]
            for part in parts:
                raised.append((exps, part, draw(st.sampled_from(
                    [i for i, e in enumerate(exps) if e]))))
        raises.append(raised)
    lift = (q - 1) * draw(st.integers(1, 10**12 // (q - 1)))
    if len(forms) == 2 and draw(st.booleans()):
        return CountQuery.union(spec, n, forms, chart), lift, raises
    return CountQuery(spec, n, forms, chart), lift, raises


def _raised(query, lift, raises):
    """The query with its exponents raised as _reduced_query drew."""
    spec, polys = query.spec, query._kernel_polys()[0]
    forms = []
    for f, raised in zip(polys, raises):
        terms = {}
        for exps, part, i in raised:
            up = exps[:i] + (exps[i] + lift,) + exps[i + 1:]
            terms[up] = terms.get(up, lit(spec, 0)) + part
        forms.append(HomogPoly(spec, query.n + 1, f.degree + lift,
                               {e: c.value for e, c in terms.items()}))
    if query.factors is None:
        return CountQuery(spec, query.n, forms, query.chart)
    return CountQuery.union(spec, query.n, forms, query.chart)


@given(_reduced_query())
@settings(max_examples=60, deadline=None)
def test_exponents_are_reduced_once_per_query(drawn):
    """A form with exponents up to about 10^12 counts and lists the points
    of the form its exponents reduce to (x^q = x on F_q points) and of the
    brute-force walk, in about the time of the reduced form.  Only the
    reduced query is printed on a failure: the text of a raised form
    would take a name for every power up to its degree."""
    reduced = drawn[0]
    query = _raised(*drawn)
    assert all(max(map(max, g.coeffs)) >= query.spec.order
               for g in query._kernel_polys()[0])
    points = reference_points(query)
    assert count_points(query) == count_points(reduced) == len(points)
    assert list(enumerate_points(query)) == points
