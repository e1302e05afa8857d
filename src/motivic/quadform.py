"""Quadratic forms: Gram matrices, diagonalization, isotropic vectors, and
the hyperbolic-plane normal form.

Conventions (char != 2 always): the Gram matrix G is symmetric with
q(x) = x^T G x, so the polynomial coefficient of x_i*x_j (i < j) is 2*G[i][j].
All choices are deterministic -- diagonalization scans for pivots in index
order and mixes the first hyperbolic pair when the diagonal is stuck at zero;
point searches walk the canonical enumeration order.
"""

from __future__ import annotations

from .fields import FieldSpec
from .linalg import Matrix
from .points import first_point
from .poly import HomogPoly


class QuadForm:
    __slots__ = ("spec", "nvars", "gram")

    def __init__(self, spec: FieldSpec, gram: Matrix):
        if spec.char == 2:
            raise ValueError("characteristic 2 is not supported")
        if gram.nrows != gram.ncols:
            raise ValueError("Gram matrix must be square")
        for i in range(gram.nrows):
            for j in range(i):
                if gram.rows[i][j] != gram.rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.spec = spec
        self.nvars = gram.nrows
        self.gram = gram

    @classmethod
    def from_poly(cls, f: HomogPoly) -> "QuadForm":
        if f.degree != 2:
            raise ValueError("not a quadratic form (degree %d)" % f.degree)
        spec = f.spec
        half = spec.elem(2).inverse()
        n = f.nvars
        g = [[spec.zero for _ in range(n)] for _ in range(n)]
        for exps, coeff in f.terms.items():
            support = [i for i, e in enumerate(exps) if e]
            if len(support) == 1:
                g[support[0]][support[0]] = coeff
            else:
                i, j = support
                g[i][j] = g[j][i] = coeff * half
        return cls(spec, Matrix(spec, g))

    @classmethod
    def diagonal(cls, spec: FieldSpec, entries) -> "QuadForm":
        n = len(entries)
        rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(spec, Matrix(spec, rows))

    def poly(self) -> HomogPoly:
        terms = {}
        n = self.nvars
        for i in range(n):
            c = self.gram.rows[i][i]
            if not c.is_zero():
                terms[tuple(2 if k == i else 0 for k in range(n))] = c
            for j in range(i + 1, n):
                c = self.gram.rows[i][j]
                if not c.is_zero():
                    terms[tuple(1 if k in (i, j) else 0 for k in range(n))] = c + c
        return HomogPoly(self.spec, n, 2, terms)

    def evaluate(self, x):
        x = [self.spec.elem(v) for v in x]
        acc = self.spec.zero
        for i in range(self.nvars):
            row = self.gram.rows[i]
            inner = self.spec.zero
            for j in range(self.nvars):
                inner = inner + row[j] * x[j]
            acc = acc + x[i] * inner
        return acc

    def rank(self) -> int:
        return self.gram.rank()

    def is_nondegenerate(self) -> bool:
        return self.rank() == self.nvars

    def __repr__(self):
        return "QuadForm(%s)" % (self.poly(),)


def diagonalize(q: QuadForm):
    """Congruence diagonalization by symmetric elimination.

    Returns (M, diag) with M invertible and M^T G M = diag(diag).  Pivot
    choice is deterministic: first nonzero diagonal entry in index order;
    failing that, the first nonzero off-diagonal pair (i, j) gets column j
    added to column i (valid since char != 2), creating a pivot.
    """
    spec = q.spec
    n = q.nvars
    B = [list(row) for row in q.gram.rows]
    M = [[spec.one if i == j else spec.zero for j in range(n)] for i in range(n)]

    def col_add(dst, src, factor):
        # column dst += factor * column src, mirrored on rows for B
        for i in range(n):
            B[i][dst] = B[i][dst] + factor * B[i][src]
        for j in range(n):
            B[dst][j] = B[dst][j] + factor * B[src][j]
        for i in range(n):
            M[i][dst] = M[i][dst] + factor * M[i][src]

    def col_swap(a, b):
        for i in range(n):
            B[i][a], B[i][b] = B[i][b], B[i][a]
        B[a], B[b] = B[b], B[a]
        for i in range(n):
            M[i][a], M[i][b] = M[i][b], M[i][a]

    for k in range(n):
        piv = None
        for i in range(k, n):
            if not B[i][i].is_zero():
                piv = i
                break
        if piv is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if not B[i][j].is_zero():
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is identically zero
            col_add(pair[0], pair[1], spec.one)
            piv = pair[0]
        if piv != k:
            col_swap(k, piv)
        d = B[k][k]
        for j in range(k + 1, n):
            if not B[k][j].is_zero():
                col_add(j, k, -(B[k][j] / d))
    diag = [B[i][i] for i in range(n)]
    return Matrix(spec, M), diag


def find_projective_point(q: QuadForm, height: int = 10, budget=None):
    """First projective zero of q in canonical order, or None.

    The search is points.first_point, charged only for the candidates it
    walks and height-bounded over Q.  Over Q a form that is definite over
    R, every diagonal entry of one strict sign, has no real zero and so no
    rational one: it returns None without a walk, as the walk would.
    """
    if not q.spec.is_finite:
        diag = [d.value for d in diagonalize(q)[1]]
        if all(d > 0 for d in diag) or all(d < 0 for d in diag):
            return None
    return first_point(q.spec, q.nvars - 1, [q.poly()], height, budget)


def hyperbolic_normalize(q: QuadForm, x):
    """Split a hyperbolic plane off a nondegenerate form at an isotropic x.

    Returns (M, q2) with q(M y) = y0*y1 + q2(y2..yn), column 1 of M equal to
    x (so M^-1 x is the second standard basis vector), and q2 nondegenerate
    in nvars-2 variables (None when nvars == 2).
    """
    spec = q.spec
    n = q.nvars
    x = tuple(spec.elem(v) for v in x)
    if all(v.is_zero() for v in x):
        raise ValueError("isotropic vector must be nonzero")
    if not q.evaluate(x).is_zero():
        raise ValueError("point is not on the quadric")
    if not q.is_nondegenerate():
        raise ValueError("form is degenerate")

    two = spec.elem(2)
    G = q.gram
    # b(x, e_i) = (G x)_i, as G is symmetric
    gx = (G * Matrix.from_columns(spec, [x])).column(0)
    # first standard basis vector e_i not orthogonal to x
    i = next((i for i, v in enumerate(gx) if not v.is_zero()), None)
    if i is None:
        raise AssertionError("nondegenerate form with x in the radical")
    w = tuple(spec.one if j == i else spec.zero for j in range(n))
    # u = w - (b(w,w) / (2 b(x,w))) x is isotropic and pairs with x
    factor = G.rows[i][i] / (two * gx[i])
    u = tuple(wv - factor * xv for wv, xv in zip(w, x))
    bux = sum((uv * gv for uv, gv in zip(u, gx)), spec.zero)
    scale = (two * bux).inverse()
    u = tuple(scale * v for v in u)
    if not q.evaluate(u).is_zero():
        raise AssertionError("constructed vector is not isotropic")

    # orthogonal complement of span(u, x): nullspace of the two pairing
    # rows b(u, .) = (G u)^T and b(x, .) = (G x)^T
    gu = (G * Matrix.from_columns(spec, [u])).column(0)
    pair_rows = Matrix(spec, [gu, gx])
    comp = pair_rows.nullspace()
    M = Matrix.from_columns(spec, [u, x] + comp)
    # the Gram matrix of q(M y) is H = M^T G M: y0*y1 + q2 needs H[0][1] = 1/2
    # and no other entry in rows 0 and 1
    H = M.transpose() * G * M
    if H.rows[0][1] != two.inverse():
        raise AssertionError("hyperbolic pair not normalized")
    for i in (0, 1):
        if any(not H.rows[i][j].is_zero() for j in range(n) if j != 1 - i):
            raise AssertionError("residual form still involves x%d" % i)
    if n == 2:
        return M, None
    q2 = QuadForm(spec, Matrix._from_rows(spec, [row[2:] for row in H.rows[2:]]))
    if not q2.is_nondegenerate():
        raise AssertionError("split complement is degenerate")
    return M, q2
