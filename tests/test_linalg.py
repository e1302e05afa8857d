import pytest
from hypothesis import given, settings, strategies as st

from conftest import elem_rows
from motivic.fields import FieldElem, extension_field, prime_field, rationals
from motivic.linalg import Matrix, _kernel, _rotation

F5 = prime_field(5)
Q = rationals()


def _from_columns(spec, cols):
    """The matrix with the given columns of values."""
    return Matrix._from_rows(spec, [list(row) for row in zip(*cols)])


def _apply(A, v):
    """A times the column vector v of values, through Matrix.__mul__, as
    a tuple of values."""
    return tuple(row[0] for row in (A * _from_columns(A.spec, [v])).rows)


def _values(spec, vectors):
    """Vectors of anything FieldSpec.elem accepts, as lists of values."""
    return [[spec._value(x) for x in v] for v in vectors]


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
    basis = _kernel(F5, list(A.rows), A.ncols)
    assert len(basis) == 4 - A.rank()
    for v in basis:
        assert not any(_apply(A, v))


def test_nullspace_free_column_pattern():
    # one vector per free column; unit there, zero at the other free columns
    A = Matrix(Q, [[1, 0, 2, 0, 3]])
    basis = _kernel(Q, list(A.rows), A.ncols)
    assert len(basis) == 4
    free = [1, 2, 3, 4]
    for k, v in enumerate(basis):
        for j, fc in enumerate(free):
            expect = Q.one.value if j == k else Q.zero.value
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


def test_extend_to_basis_prefix_and_invertibility():
    # _rotation puts the completing standard vectors first, the inputs last
    W = Matrix._from_rows(
        F5, _rotation(F5, _values(F5, [(1, 2, 0), (0, 1, 1)]), 3))
    cols = list(zip(*elem_rows(W)))
    assert cols[0] == (F5.elem(1), F5.elem(0), F5.elem(0))
    assert cols[1] == (F5.elem(1), F5.elem(2), F5.elem(0))
    assert cols[2] == (F5.elem(0), F5.elem(1), F5.elem(1))
    assert W.rank() == 3
    W.inverse()  # must not raise


def test_extend_to_basis_rejects_dependent_input():
    with pytest.raises(ValueError, match="dependent"):
        _rotation(Q, _values(Q, [(1, 2), (2, 4)]), 2)


def test_extension_field_matrices():
    F9 = extension_field(3, 2)
    t = F9.from_index(F9.p)
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
    assert len(_kernel(F5, list(A.rows), 3)) == 3 - r


@given(_f5_matrix(3))
@settings(max_examples=60, deadline=None)
def test_inverse_or_nullvector(A):
    if A.rank() == 3:
        assert A * A.inverse() == Matrix.identity(F5, 3)
    else:
        v = _kernel(F5, list(A.rows), 3)[0]
        assert any(v)
        assert not any(_apply(A, v))


@given(_f5_matrix(2), _f5_matrix(2))
@settings(max_examples=60, deadline=None)
def test_rank_subadditive_under_product(A, B):
    assert (A * B).rank() <= min(A.rank(), B.rank())


# -- residue elimination and the echelon helper, against FieldElem references

_SPECS = [prime_field(p) for p in (3, 5, 7, 11, 13, 31)] + [
    extension_field(3, 2), extension_field(5, 2), extension_field(3, 3),
    extension_field(37, 2), Q]


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
    ref, ref_pivots = _reference_rref(elem_rows(A), A.ncols)
    assert pivots == ref_pivots
    assert elem_rows(R) == ref and R.spec is A.spec
    # the rows hold values, not elements
    assert not any(isinstance(x, FieldElem) for row in A.rows + R.rows
                   for x in row)
    assert (R.nrows, R.ncols) == (A.nrows, A.ncols)
    assert A.rank() == len(pivots)
    # the canonical kernel: one vector per free column, 1 there and 0 at the
    # other free columns, minus the reduced rows' entries at the pivots
    spec = A.spec
    rows = list(A.rows)
    basis = _kernel(spec, rows, A.ncols)
    assert rows == R.rows and A.rows == Matrix(spec, elem_rows(A)).rows
    expect = []
    for fc in range(A.ncols):
        if fc in ref_pivots:
            continue
        v = [spec.one if c == fc else spec.zero for c in range(A.ncols)]
        for r, c in enumerate(ref_pivots):
            v[c] = -ref[r][fc]
        expect.append(v)
    assert [[FieldElem(spec, x) for x in v] for v in basis] == expect
    for v in basis:
        assert not any(_apply(A, v))


@given(_any_matrix(square=True))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_element_elimination(A):
    n = A.nrows
    ident = Matrix.identity(A.spec, n)
    ref, pivots = _reference_rref(
        [row + e for row, e in zip(elem_rows(A), elem_rows(ident))], 2 * n)
    if pivots[:n] != tuple(range(n)):
        with pytest.raises(ValueError, match="singular"):
            A.inverse()
        return
    B = A.inverse()
    assert elem_rows(B) == [row[n:] for row in ref]
    assert A * B == ident and B * A == ident


@given(_any_matrix())
@settings(max_examples=100, deadline=None)
def test_subset_ranks_match_matrix_rank(A):
    from motivic.strat import _subset_ranks

    ranks = _subset_ranks(A.spec, A.rows)
    assert ranks[0] == 0 and len(ranks) == 1 << A.nrows
    for mask in range(1, 1 << A.nrows):
        sub = [row for i, row in enumerate(elem_rows(A)) if mask >> i & 1]
        assert ranks[mask] == Matrix(A.spec, sub).rank(), mask


@given(_any_matrix())
@settings(max_examples=100, deadline=None)
def test_extend_to_basis_matches_rank_per_candidate(A):
    # the first independent rows (_chosen_basis), and _rotation's completing
    # standard basis vectors followed by those rows, each decided by a fresh
    # rank
    from motivic.descent import _chosen_basis

    spec, dim = A.spec, A.ncols
    chosen = []
    for row in elem_rows(A):
        if Matrix(spec, chosen + [row]).rank() > len(chosen):
            chosen.append(row)
    assert _chosen_basis(spec, A.rows) == Matrix(spec, chosen)
    W = Matrix._from_rows(spec, _rotation(spec, _values(spec, chosen), dim))
    span, completion = list(chosen), []
    for i in range(dim):
        e = [1 if j == i else 0 for j in range(dim)]
        if len(span) < dim and Matrix(spec, span + [e]).rank() > len(span):
            span.append(e)
            completion.append(e)
    assert W == _from_columns(spec, _values(spec, completion + chosen))
    assert W.rank() == dim
