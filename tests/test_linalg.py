import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from motivic.fields import extension_field, prime_field, rationals
from motivic.linalg import Matrix, extend_to_basis

F5 = prime_field(5)
Q = rationals()


def _apply(A, v):
    """A times the column vector v, through Matrix.__mul__."""
    return (A * Matrix.from_columns(A.spec, [v])).column(0)


def test_constructor_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2], [3]])


def test_rref_canonical_over_q():
    A = Matrix(Q, [[2, 4, 6], [1, 2, 4]])
    R, pivots = A.rref()
    assert pivots == (0, 2)
    assert R.rows == Matrix(Q, [[1, 2, 0], [0, 0, 1]]).rows


def test_rref_idempotent_and_rank():
    A = Matrix(F5, [[1, 0, 2], [0, 1, 3], [1, 1, 1]])  # det = -4 = 1 mod 5
    R, _ = A.rref()
    R2, _ = R.rref()
    assert R == R2
    assert A.rank() == 3


def test_nullspace_vectors_are_killed():
    A = Matrix(F5, [[1, 2, 3, 4], [0, 1, 1, 0]])
    basis = A.nullspace()
    assert len(basis) == 4 - A.rank()
    for v in basis:
        assert all(x.is_zero() for x in _apply(A, v))


def test_nullspace_free_column_pattern():
    # one vector per free column; unit there, zero at the other free columns
    A = Matrix(Q, [[1, 0, 2, 0, 3]])
    basis = A.nullspace()
    assert len(basis) == 4
    free = [1, 2, 3, 4]
    for k, v in enumerate(basis):
        for j, fc in enumerate(free):
            expect = Q.one if j == k else Q.zero
            assert v[fc] == expect


def test_inverse_round_trip():
    A = Matrix(F5, [[1, 2, 0], [0, 1, 4], [3, 0, 2]])  # det = 26 = 1 mod 5
    B = A.inverse()
    assert A * B == Matrix.identity(F5, 3)
    assert B * A == Matrix.identity(F5, 3)


def test_inverse_singular_raises():
    A = Matrix(F5, [[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        A.inverse()
    with pytest.raises(ValueError, match="square"):
        Matrix(F5, [[1, 2, 3]]).inverse()


def test_solve_consistent_and_inconsistent():
    A = Matrix(Q, [[1, 1], [1, -1]])
    x = A.solve([Q.elem(3), Q.elem(1)])
    assert x == (Q.elem(2), Q.elem(1))
    B = Matrix(Q, [[1, 1], [2, 2]])
    assert B.solve([Q.elem(1), Q.elem(3)]) is None
    # underdetermined: returns one valid solution
    C = Matrix(F5, [[1, 2, 3]])
    x = C.solve([F5.elem(4)])
    assert x is not None
    lhs = _apply(C, x)
    assert lhs[0] == F5.elem(4)


def test_from_columns_transpose_consistency():
    cols = [(1, 2, 3), (4, 5, 6)]
    A = Matrix.from_columns(F5, cols)
    assert A.nrows == 3 and A.ncols == 2
    assert A.transpose().rows == Matrix(F5, [[1, 2, 3], [4, 5, 6]]).rows


def test_extend_to_basis_prefix_and_invertibility():
    W = extend_to_basis(F5, [(1, 2, 0), (0, 1, 1)], 3)
    assert W.column(0) == (F5.elem(1), F5.elem(2), F5.elem(0))
    assert W.column(1) == (F5.elem(0), F5.elem(1), F5.elem(1))
    assert W.rank() == 3
    W.inverse()  # must not raise


def test_extend_to_basis_rejects_dependent_input():
    with pytest.raises(ValueError, match="dependent"):
        extend_to_basis(Q, [(1, 2), (2, 4)], 2)
    with pytest.raises(ValueError, match="length"):
        extend_to_basis(Q, [(1, 2, 3)], 2)


def test_extension_field_matrices():
    F9 = extension_field(3, 2)
    t = F9.gen()
    A = Matrix(F9, [[t, 1], [1, t]])
    # det = t^2 - 1 = -2 = 1 in F3[t]/(t^2+1), so invertible
    B = A.inverse()
    assert A * B == Matrix.identity(F9, 2)


@st.composite
def _f5_matrix(draw, n):
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return Matrix(F5, rows)


@given(_f5_matrix(3))
@settings(max_examples=60, deadline=None)
def test_rank_bounds_and_nullity(A):
    r = A.rank()
    assert 0 <= r <= 3
    assert len(A.nullspace()) == 3 - r


@given(_f5_matrix(3))
@settings(max_examples=60, deadline=None)
def test_inverse_or_nullvector(A):
    if A.rank() == 3:
        assert A * A.inverse() == Matrix.identity(F5, 3)
    else:
        v = A.nullspace()[0]
        assert any(not x.is_zero() for x in v)
        assert all(x.is_zero() for x in _apply(A, v))


@given(_f5_matrix(2), _f5_matrix(2))
@settings(max_examples=60, deadline=None)
def test_rank_subadditive_under_product(A, B):
    assert (A * B).rank() <= min(A.rank(), B.rank())


@given(
    st.lists(st.fractions(max_denominator=7), min_size=3, max_size=3),
    st.lists(st.fractions(max_denominator=7), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_solve_recovers_rhs_over_q(row, b):
    A = Matrix(Q, [row, [0, 1, 0], [1, 0, 1]])
    x = A.solve([Q.elem(v) for v in b])
    if x is not None:
        got = _apply(A, x)
        assert list(got) == [Q.elem(v) for v in b]


# -- residue elimination and the echelon helper, against FieldElem references

_SPECS = [prime_field(p) for p in (3, 5, 7, 11, 13, 31)] + [
    extension_field(3, 2), extension_field(5, 2), extension_field(3, 3), Q]


def _reference_rref(rows, ncols):
    """Gauss-Jordan on FieldElem operations alone: (rows, pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


@st.composite
def _entries(draw, spec, nrows, ncols):
    # zeros drawn often, so that low ranks and zero columns show up
    if spec.is_finite:
        value = st.one_of(st.just(0), st.integers(0, spec.order - 1)).map(
            spec.from_index)
    else:
        value = st.one_of(st.just(0), st.integers(-3, 3)).map(spec.elem)
    return [[draw(value) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def _any_matrix(draw, square=False):
    spec = draw(st.sampled_from(_SPECS))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    return Matrix(spec, draw(_entries(spec, nrows, ncols)))


@given(_any_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_and_nullspace_match_element_elimination(A):
    R, pivots = A.rref()
    ref, ref_pivots = _reference_rref(A.rows, A.ncols)
    assert pivots == ref_pivots
    assert R.rows == ref and R.spec is A.spec
    assert (R.nrows, R.ncols) == (A.nrows, A.ncols)
    assert A.rank() == len(pivots)
    basis = A.nullspace()
    assert len(basis) == A.ncols - len(pivots)
    for v in basis:
        assert all(x.is_zero() for x in _apply(A, v))
    assert A.transpose().transpose() == A


@given(_any_matrix(square=True))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_element_elimination(A):
    n = A.nrows
    ident = Matrix.identity(A.spec, n)
    ref, pivots = _reference_rref(
        [row + ident.rows[i] for i, row in enumerate(A.rows)], 2 * n)
    if pivots[:n] != tuple(range(n)):
        with pytest.raises(ValueError, match="singular"):
            A.inverse()
        return
    B = A.inverse()
    assert B.rows == [row[n:] for row in ref]
    assert A * B == ident and B * A == ident


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_matches_element_elimination(data):
    A = data.draw(_any_matrix())
    b = data.draw(_entries(A.spec, 1, A.nrows))[0]
    ref, pivots = _reference_rref(
        [row + [v] for row, v in zip(A.rows, b)], A.ncols + 1)
    x = A.solve(b)
    if A.ncols in pivots:
        assert x is None
        return
    expect = [A.spec.zero] * A.ncols
    for r, c in enumerate(pivots):
        expect[c] = ref[r][A.ncols]
    assert x == tuple(expect)
    assert list(_apply(A, x)) == b


@given(_any_matrix())
@settings(max_examples=100, deadline=None)
def test_subset_ranks_match_matrix_rank(A):
    from motivic.strat import _subset_ranks

    ranks = _subset_ranks(A.spec, A.rows)
    assert ranks[0] == 0 and len(ranks) == 1 << A.nrows
    for mask in range(1, 1 << A.nrows):
        sub = [row for i, row in enumerate(A.rows) if mask >> i & 1]
        assert ranks[mask] == Matrix(A.spec, sub).rank(), mask


@given(_any_matrix())
@settings(max_examples=100, deadline=None)
def test_extend_to_basis_matches_rank_per_candidate(A):
    # the first independent rows, then the standard basis vectors that raise
    # the rank, each decided by a fresh rank
    from motivic.descent import _chosen_basis

    spec, dim = A.spec, A.ncols
    chosen = []
    for row in A.rows:
        if Matrix(spec, chosen + [row]).rank() > len(chosen):
            chosen.append(row)
    assert _chosen_basis(spec, A.rows) == Matrix(spec, chosen)
    W = extend_to_basis(spec, chosen, dim)
    expect = list(chosen)
    for i in range(dim):
        e = [1 if j == i else 0 for j in range(dim)]
        if len(expect) < dim and Matrix(spec, expect + [e]).rank() > len(expect):
            expect.append(e)
    assert W == Matrix.from_columns(spec, expect)
    assert W.rank() == dim
