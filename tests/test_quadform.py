from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Ref, lit
from motivic.count import BudgetError, CountQuery, enumerate_points
from motivic.fields import extension_field, prime_field, rationals
from motivic.linalg import Matrix, _kernel
from motivic.parse import parse_poly
from motivic.quadform import (
    QuadForm,
    diagonalize,
    find_projective_point,
    hyperbolic_normalize,
)

F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def test_char_two_rejected_and_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        QuadForm(F5, Matrix(F5, [[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="square"):
        QuadForm(F5, Matrix(F5, [[0, 1, 0], [1, 0, 0]]))


def _transpose(M):
    """M^t, on the value rows of M."""
    return Matrix._from_rows(M.spec, [list(c) for c in zip(*M.rows)])


def _columns(spec, cols):
    """The matrix whose columns are the given vectors of reference
    elements."""
    return Matrix._from_rows(spec,
                             [[x.value for x in row] for row in zip(*cols)])


def _column(M, j):
    """Column j of M as a tuple of reference elements."""
    return tuple(Ref(M.spec, row[j]) for row in M.rows)


def test_from_poly_poly_round_trip():
    f = parse_poly("x0^2 + 3*x0*x1 + 2*x1*x2 + x2^2", F5, 3)
    q = QuadForm.from_poly(f)
    assert q.poly() == f
    # cross term coefficient of x0*x1 is 2*G[0][1]
    assert q.gram.rows[0][1] == (lit(F5, 3) * lit(F5, 2).inverse()).value
    with pytest.raises(ValueError, match="degree"):
        QuadForm.from_poly(parse_poly("x0^3", F5, 2))


def _gram_value(q, x):
    """x^T G x from the Gram matrix of q, on reference elements."""
    G = [[Ref(q.spec, v) for v in row] for row in q.gram.rows]
    return sum((x[i] * G[i][j] * x[j]
                for i in range(q.nvars) for j in range(q.nvars)),
               lit(q.spec, 0))


def test_evaluate_matches_poly():
    f = parse_poly("x0^2 + x0*x1 + 2*x1^2", F5, 2)
    q = QuadForm.from_poly(f)
    for pt in [(1, 0), (0, 1), (1, 1), (2, 3), (4, 4)]:
        x = [lit(F5, v) for v in pt]
        values = tuple(c.value for c in x)
        assert (q.poly().evaluate(values) == f.evaluate(values)
                == _gram_value(q, x).value)


def test_diagonalize_congruence():
    for text, n in [
        ("x0*x1", 2),
        ("x0^2 + x0*x1 + x1^2 + x1*x2", 3),
        ("x0*x1 + x2*x3", 4),
    ]:
        q = QuadForm.from_poly(parse_poly(text, F5, n))
        M, diag = diagonalize(q)
        M.inverse()  # invertible by contract
        D = _transpose(M) * q.gram * M
        for i in range(n):
            for j in range(n):
                expect = diag[i] if i == j else F5.zero
                assert D.rows[i][j] == expect
        nonzero = sum(1 for d in diag if d)
        assert nonzero == q.rank()


def test_diagonalize_over_q_and_extension():
    q = QuadForm.from_poly(parse_poly("x0*x1 + x1*x2", Q, 3))
    M, diag = diagonalize(q)
    D = _transpose(M) * q.gram * M
    assert all(
        not D.rows[i][j] for i in range(3) for j in range(3) if i != j
    )
    F9 = extension_field(3, 2)
    q9 = QuadForm.from_poly(parse_poly("x0^2 + x0*x1", F9, 2))
    M9, _ = diagonalize(q9)
    M9.inverse()


def test_find_projective_point_isotropic():
    # x0*x1 vanishes at (1, 0) and (0, 1); canonical order gives (1, 0) first
    q = QuadForm.from_poly(parse_poly("x0*x1", F3, 2))
    pt = find_projective_point(q)
    assert pt is not None
    assert not q.poly().evaluate(pt)
    assert pt == (1, 0)


def test_find_projective_point_anisotropic_none():
    # x0^2 + x1^2 has no projective zero over F3 (-1 is not a square)
    q = QuadForm.from_poly(parse_poly("x0^2 + x1^2", F3, 2))
    assert find_projective_point(q) is None


def test_find_projective_point_rational_height_bound():
    q = QuadForm.from_poly(parse_poly("x0^2 - 4*x1^2", Q, 2))
    pt = find_projective_point(q, height=5)
    assert pt is not None and not q.poly().evaluate(pt)
    aniso = QuadForm.from_poly(parse_poly("x0^2 + x1^2", Q, 2))
    assert find_projective_point(aniso, height=6) is None


def test_find_projective_point_charges_walked_candidates():
    # the first zero over F7 is (1, 0, ..., 0, 3), the 4th candidate
    F7 = prime_field(7)
    q = QuadForm.from_poly(parse_poly(
        "x0^2 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + 3*x6^2", F7, 7))
    with pytest.raises(BudgetError, match="first 3 candidates"):
        find_projective_point(q, budget=3)
    pt = find_projective_point(q, budget=4)
    assert pt == (1, 0, 0, 0, 0, 0, 3)
    # an anisotropic form walks all of P^1(F3), 4 candidates
    aniso = QuadForm.from_poly(parse_poly("x0^2 + x1^2", F3, 2))
    assert find_projective_point(aniso, budget=4) is None
    with pytest.raises(BudgetError):
        find_projective_point(aniso, budget=3)


def test_hyperbolic_normalize_binary():
    q = QuadForm.from_poly(parse_poly("x0^2 - x1^2", F5, 2))
    x = (F5.one, F5.one)
    M, q2 = hyperbolic_normalize(q, x)
    assert q2 is None
    assert tuple(row[1] for row in M.rows) == x
    f2 = q.poly().linear_substitute(M)
    assert f2 == parse_poly("x0*x1", F5, 2)


def test_hyperbolic_normalize_splits_plane():
    q = QuadForm.from_poly(parse_poly("x0*x1 + x2^2 + x3^2", F5, 4))
    pt = find_projective_point(q)
    M, q2 = hyperbolic_normalize(q, pt)
    assert tuple(row[1] for row in M.rows) == pt
    assert q2 is not None and q2.nvars == 2 and q2.is_nondegenerate()
    f2 = q.poly().linear_substitute(M)
    # y0*y1 + q2(y2, y3) exactly
    lifted = q2.poly().insert_variable(0).insert_variable(0)
    assert f2 == parse_poly("x0*x1", F5, 4) + lifted


def test_hyperbolic_normalize_error_paths():
    q = QuadForm.from_poly(parse_poly("x0*x1", F5, 2))
    with pytest.raises(ValueError, match="nonzero"):
        hyperbolic_normalize(q, (0, 0))
    with pytest.raises(ValueError, match="not on the quadric"):
        hyperbolic_normalize(q, (1, 1))
    dg = QuadForm.from_poly(parse_poly("x0^2", F5, 2))
    with pytest.raises(ValueError, match="degenerate"):
        hyperbolic_normalize(dg, (0, 1))


@pytest.mark.parametrize("spec, x", [
    (extension_field(3, 2), (1, 9)),  # an index past F9
    (F5, (1, 5)),
    (F5, (prime_field(7).from_index(1), 1)),  # an element of another field
    (F5, (1, 1, 0)),  # a coordinate too many
    (F5, (1, 1.0)),
    (Q, (1, 1.0)),
])
def test_hyperbolic_normalize_checks_the_point(spec, x):
    """The point is checked by FieldSpec._point before any arithmetic: an
    index past the field or an element of another field was an IndexError
    or a TypeError from the value arithmetic."""
    q = QuadForm.from_poly(parse_poly("x0^2 - x1^2", spec, 2))
    with pytest.raises(ValueError, match="not a value of|coordinates"):
        hyperbolic_normalize(q, x)


def test_hyperbolic_normalize_reads_ints_over_q_as_fractions():
    q = QuadForm.from_poly(parse_poly("x0^2 - x1^2", Q, 2))
    M, q2 = hyperbolic_normalize(q, (1, 1))
    assert q2 is None
    assert tuple(row[1] for row in M.rows) == (Fraction(1), Fraction(1))
    assert all(type(v) is Fraction for row in M.rows for v in row)


def _hyperbolic_normalize_on_elements(q, x):
    """hyperbolic_normalize written on reference elements, the reference of
    the value-row version; x is a tuple of values."""
    spec = q.spec
    n = q.nvars
    x = tuple(Ref(spec, v) for v in x)
    two = lit(spec, 2)
    G = q.gram
    gx = _column(G * _columns(spec, [x]), 0)
    i = next(i for i, v in enumerate(gx) if not v.is_zero())
    w = tuple(lit(spec, 1 if j == i else 0) for j in range(n))
    factor = Ref(spec, G.rows[i][i]) / (two * gx[i])
    u = tuple(wv - factor * xv for wv, xv in zip(w, x))
    bux = sum((uv * gv for uv, gv in zip(u, gx)), lit(spec, 0))
    scale = (two * bux).inverse()
    u = tuple(scale * v for v in u)
    gu = _column(G * _columns(spec, [u]), 0)
    pairing = Matrix(spec, [[v.value for v in row] for row in (gu, gx)])
    comp = [tuple(Ref(spec, c) for c in v)
            for v in _kernel(spec, pairing.rows, n)]
    M = _columns(spec, [u, x] + comp)
    H = _transpose(M) * G * M
    if n == 2:
        return M, None
    return M, QuadForm(spec, Matrix._from_rows(
        spec, [row[2:] for row in H.rows[2:]]))


@pytest.mark.parametrize("spec, text, nvars", [
    (F5, "x0*x1 + x2^2 + x3^2", 4),
    (F5, "x0^2 + 2*x1^2 + 3*x2^2 + x0*x2", 3),
    (prime_field(7), "x0^2 - x1^2", 2),
    (prime_field(7), "x0*x1 + 3*x1*x2 + x2^2 - x3^2 + 2*x0*x4 + x4^2", 5),
    (extension_field(3, 2), "x0^2 + t*x1^2 + x2*x3", 4),
    (extension_field(5, 2), "t*x0*x1 + x1^2 + (t+1)*x2^2", 3),
    (Q, "x0^2 + x1^2 - x2^2", 3),
    (Q, "x0*x1 + 2*x2^2 - x3^2 + x0*x2", 4),
    (Q, "2*x0^2 - 3*x1^2 + x2*x3 + x1*x3", 4),
], ids=str)
def test_hyperbolic_normalize_matches_element_version(spec, text, nvars):
    """The split on value rows returns the M and q2 of the element version,
    at every isotropic point of a small field and at scaled points over
    Q."""
    q = QuadForm.from_poly(parse_poly(text, spec, nvars))
    assert q.is_nondegenerate()
    if spec.is_finite:
        pts = list(enumerate_points(CountQuery(spec, nvars - 1, [q.poly()])))
        if spec.kind == "Fpm":
            t = Ref(spec, spec.p)
            pts += [tuple((t * Ref(spec, v)).value for v in pt)
                    for pt in pts]
    else:
        pt = find_projective_point(q, height=3)
        pts = [pt, tuple(v * Fraction(-3, 2) for v in pt)]
    assert pts
    for pt in pts:
        M, q2 = hyperbolic_normalize(q, pt)
        M_ref, q2_ref = _hyperbolic_normalize_on_elements(q, pt)
        assert M == M_ref
        if q2_ref is None:
            assert q2 is None
        else:
            assert q2.gram == q2_ref.gram


def test_transform_composes():
    # the form with Gram matrix M^T G M is q(M x)
    q = QuadForm.from_poly(parse_poly("x0^2 + x1*x2", F5, 3))
    M = Matrix(F5, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    qt = QuadForm(F5, _transpose(M) * q.gram * M)
    x = [lit(F5, v) for v in (1, 2, 3)]
    mx = [row[0] for row in (M * _columns(F5, [x])).rows]
    assert qt.poly().evaluate([c.value for c in x]) == q.poly().evaluate(mx)


@st.composite
def _f3_gram(draw, n):
    vals = draw(
        st.lists(st.integers(0, 2), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    g = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = vals[k]
            k += 1
    return QuadForm(F3, Matrix(F3, g))


@given(_f3_gram(3))
@settings(max_examples=40, deadline=None)
def test_diagonalize_preserves_values(q):
    M, diag = diagonalize(q)
    gd = _transpose(M) * q.gram * M
    for i in range(3):
        for j in range(3):
            expect = diag[i] if i == j else F3.zero
            assert gd.rows[i][j] == expect


@given(_f3_gram(3))
@settings(max_examples=30, deadline=None)
def test_nondegenerate_ternary_has_point(q):
    """Every nondegenerate form in >= 3 variables over a finite field is
    isotropic, and the normalization at that point must succeed."""
    if not q.is_nondegenerate():
        return
    pt = find_projective_point(q)
    assert pt is not None
    M, q2 = hyperbolic_normalize(q, pt)
    assert q2 is not None and q2.nvars == 1
