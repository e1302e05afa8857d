"""Exact dense linear algebra over a FieldSpec.

Everything is deterministic: reduced row echelon form picks the first usable
pivot scanning columns left to right and rows top to bottom, nullspace vectors
follow the canonical free-variable unit pattern in ascending column order, and
basis extension appends standard basis vectors in index order.  No floating
point anywhere.
"""

from __future__ import annotations

from .fields import FieldElem, FieldSpec


class Matrix:
    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows):
        self.spec = spec
        self.rows = [[spec.elem(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, spec: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(spec, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, spec: FieldSpec, cols) -> "Matrix":
        cols = [list(c) for c in cols]
        n = len(cols[0])
        return cls(spec, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.spec,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = self.spec.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.spec, out)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return "Matrix(%s | %s)" % (self.spec, body)

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
        m = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r == self.nrows:
                break
            pr = None
            for i in range(r, self.nrows):
                if not m[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c].inverse()
            m[r] = [x * inv for x in m[r]]
            for i in range(self.nrows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(self.spec, m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Canonical right-nullspace basis: one vector per free column, which
        gets entry 1 while the other free columns get 0."""
        R, pivots = self.rref()
        pivot_of = {c: r for r, c in enumerate(pivots)}
        free = [c for c in range(self.ncols) if c not in pivot_of]
        basis = []
        for fc in free:
            v = [self.spec.zero] * self.ncols
            v[fc] = self.spec.one
            for c, r in pivot_of.items():
                v[c] = -R.rows[r][fc]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = Matrix(
            self.spec,
            [
                list(self.rows[i]) + [1 if i == j else 0 for j in range(n)]
                for i in range(n)
            ],
        )
        R, pivots = aug.rref()
        if list(pivots[:n]) != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.spec, [R.rows[i][n:] for i in range(n)])

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent."""
        aug = Matrix(self.spec, [list(r) + [v] for r, v in zip(self.rows, b)])
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.spec.zero] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = R.rows[r][self.ncols]
        return tuple(x)


def extend_to_basis(spec: FieldSpec, vectors, dim: int) -> Matrix:
    """Complete independent vectors to a basis of spec^dim.

    Returns the invertible matrix whose first columns are the inputs and whose
    remaining columns are the standard basis vectors that keep the collection
    independent, taken in index order.
    """
    cols = [tuple(spec.elem(x) for x in v) for v in vectors]
    for v in cols:
        if len(v) != dim:
            raise ValueError("vector length != dim")
    if cols and Matrix.from_columns(spec, cols).rank() != len(cols):
        raise ValueError("input vectors are dependent")
    rank = len(cols)
    for i in range(dim):
        if rank == dim:
            break
        e = tuple(spec.elem(1 if j == i else 0) for j in range(dim))
        if Matrix.from_columns(spec, cols + [e]).rank() > rank:
            cols.append(e)
            rank += 1
    return Matrix.from_columns(spec, cols)
