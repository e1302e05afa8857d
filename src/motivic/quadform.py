"""Quadratic forms: Gram matrices, diagonalization, isotropic vectors, and
the hyperbolic-plane normal form.

Conventions (char != 2 always): the Gram matrix G is symmetric with
q(x) = x^T G x, so the polynomial coefficient of x_i*x_j (i < j) is 2*G[i][j].
All choices are deterministic -- diagonalization scans for pivots in index
order and mixes the first hyperbolic pair when the diagonal is stuck at zero;
point searches walk the canonical enumeration order.

A form keeps its rank and its polynomial once computed, so the quadric
recursion eliminates each Gram matrix once; a form read from a polynomial
keeps that polynomial itself, with its kept text and zero lanes, as in odd
characteristic the Gram matrix gives the same coefficients back.  The Gram
matrix holds values (see motivic.linalg), and diagonalize and
hyperbolic_normalize work on its rows with the spec's value arithmetic and
the row products of motivic.linalg, one path for every field; neither
builds an element, as the diagonal and the points they return or take are
values.
"""

from __future__ import annotations

from .fields import FieldSpec
from .linalg import Matrix, _kernel, _product
from .points import first_point
from .poly import HomogPoly


class QuadForm:
    """A quadratic form by its Gram matrix.  A form is never changed after
    it is built, so it keeps its rank and its polynomial once computed."""

    __slots__ = ("spec", "nvars", "gram", "_rank", "_poly")

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
        self._rank = None
        self._poly = None

    @classmethod
    def from_poly(cls, f: HomogPoly) -> "QuadForm":
        if f.degree != 2:
            raise ValueError("not a quadratic form (degree %d)" % f.degree)
        spec = f.spec
        half = spec._inv(spec._literal(2))
        n = f.nvars
        g = [[spec.zero] * n for _ in range(n)]
        for exps, coeff in f.coeffs.items():
            support = [i for i, e in enumerate(exps) if e]
            if len(support) == 1:
                g[support[0]][support[0]] = coeff
            else:
                i, j = support
                g[i][j] = g[j][i] = spec._mul(coeff, half)
        q = cls(spec, Matrix._from_rows(spec, g))
        q._poly = f
        return q

    @classmethod
    def diagonal(cls, spec: FieldSpec, entries) -> "QuadForm":
        n = len(entries)
        zero = spec.zero
        rows = [[entries[i] if i == j else zero for j in range(n)]
                for i in range(n)]
        return cls(spec, Matrix._from_rows(spec, rows))

    def poly(self) -> HomogPoly:
        if self._poly is not None:
            return self._poly
        terms = {}
        n = self.nvars
        add = self.spec._add
        for i, row in enumerate(self.gram.rows):
            if row[i]:
                terms[tuple(2 if k == i else 0 for k in range(n))] = row[i]
            for j in range(i + 1, n):
                if row[j]:
                    # in odd characteristic c + c is nonzero
                    exps = tuple(1 if k in (i, j) else 0 for k in range(n))
                    terms[exps] = add(row[j], row[j])
        self._poly = HomogPoly._from_terms(self.spec, n, 2, terms)
        return self._poly

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.gram.rank()
        return self._rank

    def is_nondegenerate(self) -> bool:
        return self.rank() == self.nvars

    def __repr__(self):
        return "QuadForm(%s)" % (self.poly(),)


def diagonalize(q: QuadForm):
    """Congruence diagonalization by symmetric elimination.

    Returns (M, diag) with M invertible and M^T G M = diag(diag), diag a
    list of values.  Pivot choice is deterministic: first nonzero diagonal
    entry in index order; failing that, the first nonzero off-diagonal pair
    (i, j) gets column j added to column i (valid since char != 2),
    creating a pivot.
    """
    spec = q.spec
    n = q.nvars
    add, mul = spec._add, spec._mul
    B = [list(row) for row in q.gram.rows]
    M = [list(row) for row in Matrix.identity(spec, n).rows]

    def col_add(dst, src, factor):
        # column dst += factor * column src, mirrored on rows for B; the
        # factor is nonzero
        for row in B + M:
            row[dst] = add(row[dst], mul(factor, row[src]))
        B[dst] = spec._axpy(B[dst], factor, B[src])

    def col_swap(a, b):
        for i in range(n):
            B[i][a], B[i][b] = B[i][b], B[i][a]
        B[a], B[b] = B[b], B[a]
        for i in range(n):
            M[i][a], M[i][b] = M[i][b], M[i][a]

    for k in range(n):
        piv = None
        for i in range(k, n):
            if B[i][i]:
                piv = i
                break
        if piv is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if B[i][j]:
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
        neg_inv = spec._neg(spec._inv(B[k][k]))
        for j in range(k + 1, n):
            if B[k][j]:
                col_add(j, k, mul(B[k][j], neg_inv))
    return Matrix._from_rows(spec, M), [B[i][i] for i in range(n)]


def find_projective_point(q: QuadForm, height: int = 10, budget=None):
    """First projective zero of q in canonical order, or None.

    The search is points.first_point, charged only for the candidates it
    walks and height-bounded over Q.  Over Q a form that is definite over
    R, every diagonal entry of one strict sign, has no real zero and so no
    rational one: it returns None without a walk, as the walk would.
    """
    if not q.spec.is_finite:
        diag = diagonalize(q)[1]
        if all(d > 0 for d in diag) or all(d < 0 for d in diag):
            return None
    return first_point(q.spec, q.nvars - 1, [q.poly()], height, budget)


def hyperbolic_normalize(q: QuadForm, x):
    """Split a hyperbolic plane off a nondegenerate form at an isotropic x.

    Returns (M, q2) with q(M y) = y0*y1 + q2(y2..yn), column 1 of M equal to
    x (so M^-1 x is the second standard basis vector), and q2 nondegenerate
    in nvars-2 variables (None when nvars == 2).  x is a tuple of values,
    checked by FieldSpec._point, and the work runs on value rows, as M and
    q2 keep them.
    """
    spec = q.spec
    n = q.nvars
    x = spec._point(x, n)
    if not any(x):
        raise ValueError("isotropic vector must be nonzero")
    G = q.gram.rows

    add, mul = spec._add, spec._mul

    def value_at(a, ga):
        # q(a) = a . ga, ga being G a
        acc = spec.zero
        for v, w in zip(a, ga):
            if v and w:
                acc = add(acc, mul(v, w))
        return acc

    # b(x, e_i) = (G x)_i, the row x^T G, as G is symmetric
    gx = _product(spec, [x], G)[0]
    if value_at(x, gx):
        raise ValueError("point is not on the quadric")
    if not q.is_nondegenerate():
        raise ValueError("form is degenerate")

    # first standard basis vector e_i not orthogonal to x
    i = next((i for i, v in enumerate(gx) if v), None)
    if i is None:
        raise AssertionError("nondegenerate form with x in the radical")
    # w = e_i - (b(e_i, e_i) / (2 b(x, e_i))) x is isotropic with
    # b(w, x) = b(x, e_i), as q(x) = 0; u = w / (2 b(x, e_i)) pairs with x
    # to 1/2: with r = 1 / (2 b(x, e_i)), u = r e_i - G[i][i] r^2 x
    two = spec._literal(2)
    r = spec._inv(spec._mul(two, gx[i]))
    gii = G[i][i]
    if gii:
        u = spec._scale(spec._neg(spec._mul(gii, r)), spec._scale(r, x))
        u[i] = spec._add(u[i], r)
    else:
        u = [spec.zero] * n
        u[i] = r
    gu = _product(spec, [u], G)[0]
    if value_at(u, gu):
        raise AssertionError("constructed vector is not isotropic")

    # orthogonal complement of span(u, x): nullspace of the two pairing
    # rows b(u, .) = (G u)^T and b(x, .) = (G x)^T
    comp = _kernel(spec, [gu, gx], n)
    M = [list(row) for row in zip(u, x, *comp)]
    # the Gram matrix of q(M y) is H = M^T G M, rows 0 and 1 of M^T G being
    # gu and gx: y0*y1 + q2 needs H[0][1] = 1/2 and no other entry in rows
    # 0 and 1
    H = _product(spec, [gu, gx] + _product(spec, comp, G), M)
    if H[0][1] != spec._inv(two):
        raise AssertionError("hyperbolic pair not normalized")
    for i in (0, 1):
        if any(H[i][j] for j in range(n) if j != 1 - i):
            raise AssertionError("residual form still involves x%d" % i)
    M = Matrix._from_rows(spec, M)
    if n == 2:
        return M, None
    q2 = QuadForm(spec, Matrix._from_rows(spec, [row[2:] for row in H[2:]]))
    if not q2.is_nondegenerate():
        raise AssertionError("split complement is degenerate")
    return M, q2
