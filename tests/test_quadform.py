import pytest
from hypothesis import given, settings, strategies as st

from motivic.count import BudgetError
from motivic.fields import extension_field, prime_field, rationals
from motivic.linalg import Matrix
from motivic.parse import parse_poly
from motivic.points import projective_reps
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


def test_from_poly_poly_round_trip():
    f = parse_poly("x0^2 + 3*x0*x1 + 2*x1*x2 + x2^2", F5, 3)
    q = QuadForm.from_poly(f)
    assert q.poly() == f
    # cross term coefficient of x0*x1 is 2*G[0][1]
    assert q.gram.rows[0][1] == F5.elem(3) * F5.elem(2).inverse()
    with pytest.raises(ValueError, match="degree"):
        QuadForm.from_poly(parse_poly("x0^3", F5, 2))


def test_evaluate_matches_poly():
    f = parse_poly("x0^2 + x0*x1 + 2*x1^2", F5, 2)
    q = QuadForm.from_poly(f)
    for pt in [(1, 0), (0, 1), (1, 1), (2, 3), (4, 4)]:
        x = [F5.elem(v) for v in pt]
        assert q.evaluate(x) == f.evaluate(x)


def test_diagonalize_congruence():
    for text, n in [
        ("x0*x1", 2),
        ("x0^2 + x0*x1 + x1^2 + x1*x2", 3),
        ("x0*x1 + x2*x3", 4),
    ]:
        q = QuadForm.from_poly(parse_poly(text, F5, n))
        M, diag = diagonalize(q)
        M.inverse()  # invertible by contract
        D = M.transpose() * q.gram * M
        for i in range(n):
            for j in range(n):
                expect = diag[i] if i == j else F5.zero
                assert D.rows[i][j] == expect
        nonzero = sum(1 for d in diag if not d.is_zero())
        assert nonzero == q.rank()


def test_diagonalize_over_q_and_extension():
    q = QuadForm.from_poly(parse_poly("x0*x1 + x1*x2", Q, 3))
    M, diag = diagonalize(q)
    D = M.transpose() * q.gram * M
    assert all(
        D.rows[i][j].is_zero() for i in range(3) for j in range(3) if i != j
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
    assert q.evaluate(pt).is_zero()
    assert tuple(v.value for v in pt) == (1, 0)


def test_find_projective_point_anisotropic_none():
    # x0^2 + x1^2 has no projective zero over F3 (-1 is not a square)
    q = QuadForm.from_poly(parse_poly("x0^2 + x1^2", F3, 2))
    assert find_projective_point(q) is None


def test_find_projective_point_rational_height_bound():
    q = QuadForm.from_poly(parse_poly("x0^2 - 4*x1^2", Q, 2))
    pt = find_projective_point(q, height=5)
    assert pt is not None and q.evaluate(pt).is_zero()
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
    assert tuple(v.value for v in pt) == (1, 0, 0, 0, 0, 0, 3)
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
    assert M.column(1) == x
    f2 = q.poly().linear_substitute(M)
    assert f2 == parse_poly("x0*x1", F5, 2)


def test_hyperbolic_normalize_splits_plane():
    q = QuadForm.from_poly(parse_poly("x0*x1 + x2^2 + x3^2", F5, 4))
    pt = find_projective_point(q)
    M, q2 = hyperbolic_normalize(q, pt)
    assert M.column(1) == pt
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


def test_transform_composes():
    # the form with Gram matrix M^T G M is q(M x)
    q = QuadForm.from_poly(parse_poly("x0^2 + x1*x2", F5, 3))
    M = Matrix(F5, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    qt = QuadForm(F5, M.transpose() * q.gram * M)
    x = [F5.elem(v) for v in (1, 2, 3)]
    mx = (M * Matrix.from_columns(F5, [x])).column(0)
    assert qt.evaluate(x) == q.evaluate(mx)


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
    gd = M.transpose() * q.gram * M
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
