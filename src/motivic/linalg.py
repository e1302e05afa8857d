"""Exact dense linear algebra over a FieldSpec.

Everything is deterministic: reduced row echelon form picks the first usable
pivot scanning columns left to right and rows top to bottom, nullspace vectors
follow the canonical free-variable unit pattern in ascending column order, and
a basis is completed with standard basis vectors in index order.  No floating
point anywhere.

A Matrix keeps rows of plain values, as a HomogPoly keeps its coefficients:
residues over F_p, indices over F_{p^m}, Fractions over Q.  Elimination,
products, inverses and the other operations run on those rows through the
value arithmetic of the spec (its _inv, _neg, _scale and _axpy), one path
for every field, which over F_{p^m} is lookup in the spec's index tables.
No Matrix hands out an element: an entry is read as M.rows[i][j].  The
row functions below (_eliminate, _product, _kernel, _rotation) serve the
engines, which keep values throughout.  The public constructor takes rows
of values, each checked by FieldSpec._checked, so an entry read out of
M.rows can be passed back in; results of operations are valid by
construction, so they are built through _from_rows, which stores the
value rows it is given and never changes them.  _Echelon keeps a
reduced basis of a growing span, so that the rank after each new row
costs one reduction; _rotation's basis completion and the subset walks of
the arrangement engines use it.
"""

from __future__ import annotations

from .fields import FieldSpec


def _eliminate(spec, m, ncols):
    """Reduce the value rows m to rref in place; return the pivots.  Only
    the list m changes: a row is replaced, never written into."""
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
        row = m[r] = spec._scale(spec._inv(m[r][c]), m[r])
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = spec._axpy(m[i], spec._neg(f), row)
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _product(spec, left, right):
    """The product of the value rows left and right, as value rows."""
    zero = spec.zero
    width = len(right[0]) if right else 0
    out = []
    for row in left:
        acc = [zero] * width
        for a, b in zip(row, right):
            if a:
                acc = spec._axpy(acc, a, b)
        out.append(acc)
    return out


def _kernel(spec, m, ncols):
    """The canonical right-nullspace basis of the value rows m, as value
    lists: one vector per free column, which gets entry 1 while the other
    free columns get 0.  The list m is reduced to rref on the way."""
    pivots = _eliminate(spec, m, ncols)
    zero, one = spec.zero, spec.one
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, c in enumerate(pivots):
            v[c] = spec._neg(m[r][fc])
        basis.append(v)
    return basis


class Matrix:
    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows):
        """Equally long rows of values, each checked by FieldSpec._checked."""
        self.spec = spec
        self.rows = [[spec._checked(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def _from_rows(cls, spec: FieldSpec, rows) -> "Matrix":
        """No checks: rows is a list of equally long lists of values of
        spec, and becomes the result's own."""
        M = object.__new__(cls)
        M.spec = spec
        M.rows = rows
        M.nrows = len(rows)
        M.ncols = len(rows[0]) if rows else 0
        return M

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        zero, one = spec.zero, spec.one
        return cls._from_rows(
            spec, [[one if i == j else zero for j in range(n)] for i in range(n)])

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
        return Matrix._from_rows(spec, _product(spec, self.rows, other.rows))

    def __repr__(self):
        text = self.spec._str
        body = "; ".join(" ".join(map(text, row)) for row in self.rows)
        return "Matrix(%s | %s)" % (self.spec, body)

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
        m = list(self.rows)
        pivots = _eliminate(self.spec, m, self.ncols)
        return Matrix._from_rows(self.spec, m), pivots

    def rank(self) -> int:
        return len(_eliminate(self.spec, list(self.rows), self.ncols))

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        ident = Matrix.identity(self.spec, n).rows
        R, pivots = Matrix._from_rows(
            self.spec, [row + e for row, e in zip(self.rows, ident)]).rref()
        if list(pivots[:n]) != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_rows(self.spec, [row[n:] for row in R.rows])


class _Echelon:
    """A reduced basis of the span of the rows added so far.

    Each kept row is scaled to 1 at its pivot and is zero at the pivots of
    the rows kept before it, so reducing a new row against the kept rows in
    order clears every pivot column: the new row is independent exactly
    when something is left.  The kept rows are lists of values.
    """

    __slots__ = ("spec", "rows", "pivots")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.rows = []
        self.pivots = []

    def add(self, row) -> bool:
        """Reduce a row of values against the basis; keep it and return
        True when it is independent of the span, else return False."""
        spec = self.spec
        for b, c in zip(self.rows, self.pivots):
            f = row[c]
            if f:
                row = spec._axpy(row, spec._neg(f), b)
        for c, x in enumerate(row):
            if x:
                row = spec._scale(spec._inv(x), row)
                self.rows.append(row)
                self.pivots.append(c)
                return True
        return False

    def pop(self):
        """Forget the row kept last."""
        self.rows.pop()
        self.pivots.pop()


def _rotation(spec: FieldSpec, vectors, dim: int):
    """The value rows of the invertible matrix whose columns are the
    standard basis vectors that complete the independent value vectors to
    a basis of spec^dim, taken in index order, followed by the vectors.
    Substituting it moves the vectors onto the last coordinates."""
    span = _Echelon(spec)
    for v in vectors:
        if not span.add(v):
            raise ValueError("input vectors are dependent")
    zero, one = spec.zero, spec.one
    cols = []
    for i in range(dim):
        if len(span.rows) == dim:
            break
        e = [zero] * dim
        e[i] = one
        if span.add(e):
            cols.append(e)
    return [list(row) for row in zip(*cols, *vectors)]
