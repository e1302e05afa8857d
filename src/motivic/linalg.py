"""Exact dense linear algebra over a FieldSpec.

Everything is deterministic: reduced row echelon form picks the first usable
pivot scanning columns left to right and rows top to bottom, nullspace vectors
follow the canonical free-variable unit pattern in ascending column order, and
basis extension appends standard basis vectors in index order.  No floating
point anywhere.

Elimination and products run on rows of plain values -- residues over F_p,
indices over F_{p^m}, Fractions over Q -- and convert back to field
elements once, at the end.  Over F_p the row operations are written out on
the residues; over F_{p^m} and Q they are the value arithmetic of the spec
(its _inv, _scale and _axpy), which over F_{p^m} is lookup in the spec's
index tables.
The public constructor validates and coerces its entries.  Results of rref,
transpose, products, inverse and solve are valid by construction, so they
are built through _from_rows, which stores the rows it is given.  _Echelon
keeps a reduced basis of a growing span, so that the rank after each new
row costs one reduction; basis extension and the subset walks of the
arrangement engines use it.
"""

from __future__ import annotations

from .fields import FieldElem, FieldSpec


def _raw(rows):
    """The rows as lists of element values."""
    return [[x.value for x in row] for row in rows]


def _eliminate(spec, m, ncols):
    """Reduce the raw rows m (see _raw) to rref in place; return the pivots."""
    p = spec.p if spec.kind == "Fp" else 0
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][c], p - 2, p)
            row = m[r] = [x * inv % p for x in m[r]]
            for i in range(nrows):
                f = m[i][c]
                if i != r and f:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
        else:
            row = m[r] = spec._scale(spec._inv(m[r][c]), m[r])
            for i in range(nrows):
                f = m[i][c]
                if i != r and f:
                    m[i] = spec._axpy(m[i], spec._neg(f), row)
        pivots.append(c)
        r += 1
    return tuple(pivots)


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
    def _from_rows(cls, spec: FieldSpec, rows) -> "Matrix":
        """No checks: rows is a list of equally long lists of elements of
        spec, and becomes the result's own."""
        M = object.__new__(cls)
        M.spec = spec
        M.rows = rows
        M.nrows = len(rows)
        M.ncols = len(rows[0]) if rows else 0
        return M

    @classmethod
    def _from_raw(cls, spec: FieldSpec, rows) -> "Matrix":
        """The matrix of raw rows as _raw gives them."""
        return cls._from_rows(
            spec, [[FieldElem(spec, v) for v in row] for row in rows])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        return Matrix._from_rows(self.spec, [list(c) for c in zip(*self.rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        spec = self.spec
        if other.spec is not spec:
            raise ValueError("mixed fields: %s vs %s" % (spec, other.spec))
        if spec.kind == "Fp":
            p = spec.p
            cols = list(zip(*_raw(other.rows)))
            out = [[sum(a * b for a, b in zip(row, col)) % p for col in cols]
                   for row in _raw(self.rows)]
            return Matrix._from_raw(spec, out)
        zero = spec.zero.value
        right = _raw(other.rows)
        out = []
        for row in _raw(self.rows):
            acc = [zero] * other.ncols
            for a, b in zip(row, right):
                if a:
                    acc = spec._axpy(acc, a, b)
            out.append(acc)
        return Matrix._from_raw(spec, out)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return "Matrix(%s | %s)" % (self.spec, body)

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
        m = _raw(self.rows)
        pivots = _eliminate(self.spec, m, self.ncols)
        return Matrix._from_raw(self.spec, m), pivots

    def rank(self) -> int:
        return len(_eliminate(self.spec, _raw(self.rows), self.ncols))

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
        zero, one = self.spec.zero, self.spec.one
        aug = Matrix._from_rows(
            self.spec,
            [
                list(self.rows[i]) + [one if i == j else zero for j in range(n)]
                for i in range(n)
            ],
        )
        R, pivots = aug.rref()
        if list(pivots[:n]) != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_rows(self.spec, [R.rows[i][n:] for i in range(n)])

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent."""
        b = [self.spec.elem(v) for v in b]
        aug = Matrix._from_rows(self.spec,
                                [list(r) + [v] for r, v in zip(self.rows, b)])
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.spec.zero] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = R.rows[r][self.ncols]
        return tuple(x)


class _Echelon:
    """A reduced basis of the span of the rows added so far.

    Each kept row is scaled to 1 at its pivot and is zero at the pivots of
    the rows kept before it, so reducing a new row against the kept rows in
    order clears every pivot column: the new row is independent exactly
    when something is left.  The kept rows are lists of values.
    """

    __slots__ = ("spec", "p", "rows", "pivots")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p if spec.kind == "Fp" else 0
        self.rows = []
        self.pivots = []

    def add(self, row) -> bool:
        """Reduce a row of elements against the basis; keep it and return
        True when it is independent of the span, else return False."""
        spec, p = self.spec, self.p
        row = [x.value for x in row]
        for b, c in zip(self.rows, self.pivots):
            f = row[c]
            if f:
                if p:
                    row = [(x - f * y) % p for x, y in zip(row, b)]
                else:
                    row = spec._axpy(row, spec._neg(f), b)
        for c, x in enumerate(row):
            if x:
                if p:
                    inv = pow(x, p - 2, p)
                    row = [y * inv % p for y in row]
                else:
                    row = spec._scale(spec._inv(x), row)
                self.rows.append(row)
                self.pivots.append(c)
                return True
        return False

    def pop(self):
        """Forget the row kept last."""
        self.rows.pop()
        self.pivots.pop()


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
    span = _Echelon(spec)
    for v in cols:
        if not span.add(v):
            raise ValueError("input vectors are dependent")
    zero, one = spec.zero, spec.one
    for i in range(dim):
        if len(span.rows) == dim:
            break
        e = tuple(one if j == i else zero for j in range(dim))
        if span.add(e):
            cols.append(e)
    return Matrix.from_columns(spec, cols)
