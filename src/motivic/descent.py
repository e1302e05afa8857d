"""Constructive Galois descent for hyperplane unions split over F_{p^m}.

A union of hyperplanes can be defined over F_q while the individual
hyperplanes only exist over a cyclic extension.  The machinery here makes
the quotient explicit: Frobenius stability of the span yields a 1-cocycle
on a chosen basis, an averaging construction trivializes the cocycle
(the cohomology set H^1(Gal, GL_r) vanishes), and twisting the basis by
the trivializing matrix produces base-field coordinates.  The class of
the union then follows the same cone fibration as a rational arrangement,
with the essential part kept as a variety atom over the base field.

All of it runs on the value rows of motivic.linalg.  The Frobenius maps
an index v to ext._pow(v, q^k), and an element lies in the base field
exactly when its index is below p.  The cocycle comes from one
elimination, the Hilbert 90 average is one row product, and the
fixed-point cross-check builds its system from digits.  The forms are
checked by the same strat._normalize_forms as a rational arrangement's,
and rotated onto their span by the same strat._onto_span, over the
extension, with the radical of the descended basis; Z is the product of
the rotated factors.
"""

import random

from .fields import FieldSpec
from .linalg import Matrix, _Echelon, _eliminate, _kernel, _product
from .poly import HomogPoly
from .count import CountQuery
from .kclass import (
    ClassExpr,
    CountTerm,
    Identity,
    StratResult,
    TraceStep,
    VarietyAtom,
    projective_space_class,
)
from .strat import (DefectError, _coeff_rows, _normalize_forms, _onto_span,
                    _row_forms, _staircase)


class GaloisContext:
    """Cyclic extension F_{p^m} / F_p with its Frobenius generator.

    Only prime base fields are supported: an extension element's index
    holds its coordinates in the monomial basis over F_p as base-p digits,
    so F_p, the indices below p, is the one subfield read off directly.
    """

    __slots__ = ("base", "ext", "m")

    def __init__(self, base: FieldSpec, ext: FieldSpec):
        if not base.is_finite or not ext.is_finite:
            raise ValueError("descent needs finite fields")
        if base.kind != "Fp":
            raise ValueError("base must be a prime field")
        if ext.p != base.p:
            raise ValueError("extension has a different characteristic")
        self.base = base
        self.ext = ext
        self.m = ext.m
        if self.m > 1:
            # t, of index p, generates ext over base, so checking the orbit
            # of t checks the whole automorphism: order must be exactly m
            t = cur = ext.p
            for k in range(1, self.m):
                cur = ext._pow(cur, base.order)
                if cur == t:
                    raise DefectError("Frobenius order is smaller than m")
            if ext._pow(cur, base.order) != t:
                raise DefectError("Frobenius does not have order m")

    def frobenius_matrix(self, M: Matrix, power: int = 1) -> Matrix:
        k = power % self.m
        if not k:
            return M
        pow_, e = self.ext._pow, self.base.order ** k
        return Matrix._from_rows(
            self.ext, [[pow_(v, e) for v in row] for row in M.rows])

    def __repr__(self):
        return "GaloisContext(%s over %s)" % (self.ext, self.base)


class Cocycle:
    """Matrices (alpha_1, alpha_s, ..., alpha_s^(m-1)) over the extension,
    one per power of the Frobenius s."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise ValueError("empty cocycle")
        r = images[0].nrows
        for M in images:
            if not isinstance(M, Matrix) or M.nrows != r or M.ncols != r:
                raise ValueError("cocycle images must be square of equal size")
        self.images = images

    @property
    def size(self) -> int:
        return self.images[0].nrows

    def is_trivial(self) -> bool:
        spec = self.images[0].spec
        ident = Matrix.identity(spec, self.size)
        return all(M == ident for M in self.images)

    def condition_holds(self, ctx: GaloisContext) -> bool:
        """alpha_{s^(i+j)} == alpha_{s^i} . s^i(alpha_{s^j}) for all i, j,
        indices wrapping mod m (the wrap is the norm condition)."""
        m = len(self.images)
        if m != ctx.m:
            return False
        spec = self.images[0].spec
        if spec != ctx.ext:
            return False
        if self.images[0] != Matrix.identity(spec, self.size):
            return False
        for M in self.images:
            if M.rank() != self.size:
                return False
        for i in range(m):
            for j in range(m):
                lhs = self.images[(i + j) % m]
                rhs = self.images[i] * ctx.frobenius_matrix(self.images[j], i)
                if lhs != rhs:
                    return False
        return True

    def __repr__(self):
        return "Cocycle(%d matrices of size %d)" % (len(self.images), self.size)


def _chosen_basis(spec, rows):
    """First linearly independent subset of the value rows, in input
    order."""
    span = _Echelon(spec)
    return Matrix._from_rows(spec,
                             [list(row) for row in rows if span.add(row)])


def _span_cocycle(ctx, forms):
    """(basis matrix T, Cocycle) for the Frobenius action on span(forms),
    or (T, None) when the span is not Frobenius-stable.

    One elimination of [T^t | s(T)^t] solves T^t x = s(t_i) for every row
    t_i of T at once.  The r columns of T^t are independent, so they take
    the first r pivots; a pivot past them is an image outside the span.
    """
    ext = ctx.ext
    T = _chosen_basis(ext, _coeff_rows(forms))
    r = T.nrows
    aug = [list(a + b) for a, b in zip(zip(*T.rows),
                                       zip(*ctx.frobenius_matrix(T).rows))]
    if len(_eliminate(ext, aug, 2 * r)) > r:
        return T, None
    ident = Matrix.identity(ext, r)
    if ctx.m == 1:
        return T, Cocycle([ident])
    # N encodes s(t_i) = sum_j N[i][j] t_j, N[i] being column r + i of the
    # reduced block; alpha inverts it
    N = [[row[r + i] for row in aug[:r]] for i in range(r)]
    alpha = Matrix._from_rows(ext, N).inverse()
    images = [ident]
    for _ in range(1, ctx.m):
        images.append(alpha * ctx.frobenius_matrix(images[-1]))
    return T, Cocycle(images)


def h90_trivialize(ctx: GaloisContext, cocycle: Cocycle, seed: int = 0) -> Matrix:
    """Invertible B over ext with alpha_s = B . s(B)^(-1).

    B = sum_i alpha_{s^i} . s^i(C) satisfies the equation for any C; the
    averaging is retried over up to 64 seeded random C until B is
    invertible.  The sum is one product: the alphas side by side times
    the Frobenius images of C stacked.
    """
    if not cocycle.condition_holds(ctx):
        raise ValueError("not a cocycle")
    ext = ctx.ext
    r = cocycle.size
    ident = Matrix.identity(ext, r)
    if cocycle.is_trivial():
        return ident
    alphas = [sum(rows, []) for rows in zip(*(M.rows for M in cocycle.images))]

    def average(C):
        stacked = [row for i in range(ctx.m)
                   for row in ctx.frobenius_matrix(C, i).rows]
        return Matrix._from_rows(ext, _product(ext, alphas, stacked))

    rng = random.Random(seed)
    order = ext.order
    for attempt in range(64):
        C = ident if attempt == 0 else Matrix._from_rows(
            ext, [[rng.randrange(order) for _ in range(r)] for _ in range(r)])
        B = average(C)
        if B.rank() != r:
            continue
        if cocycle.images[1] * ctx.frobenius_matrix(B) != B:
            raise DefectError("averaged matrix violates the cocycle equation")
        return B
    raise ValueError(
        "no invertible average found in 64 tries (seed %d)" % seed
    )


def _fixed_point_subspace(ctx, T, N):
    """Independent oracle: solve s(v) = v inside the row span of T as a
    linear system over the base field.  Returns the rref basis matrix."""
    r = T.nrows
    m = ctx.m
    base = ctx.base
    ext = ctx.ext

    # unknown c in ext^r subject to s(c) . N = c, spelled out over the base
    cols = []
    for i in range(r):
        for k in range(m):
            # c = t^k e_i, so (s(c) . N)_j = s(t^k) N[i][j]; t^k has index
            # p^k
            tk = ext.p**k
            stk = ext._pow(tk, base.order)
            col = []
            for j, v in enumerate(N.rows[i]):
                acc = ext._mul(stk, v)
                if j == i:
                    acc = ext._add(acc, ext._neg(tk))
                col.extend(ext._digits(acc))
            cols.append(col)
    kernel = _kernel(base, [list(row) for row in zip(*cols)], r * m)
    if len(kernel) != r:
        raise DefectError(
            "fixed-point solver found dimension %d, expected %d"
            % (len(kernel), r)
        )
    # a kernel vector holds the digits of c_0, ..., c_(r-1); c . T is fixed
    c = [[ext._encode(vec[i * m:(i + 1) * m]) for i in range(r)]
         for vec in kernel]
    rows = _product(ext, c, T.rows)
    if any(v >= base.p for row in rows for v in row):
        raise DefectError("fixed vector has a coefficient off the base")
    return Matrix._from_rows(base, rows).rref()[0]


def _descend_core(ctx, forms, seed):
    """(T, cocycle, B, rref basis over base) of span(forms).

    The twisted basis B^(-1).T has Frobenius-fixed coefficients; its rref
    over the base field is cross-checked against a direct fixed-point
    solver.
    """
    T, cocycle = _span_cocycle(ctx, forms)
    if cocycle is None:
        raise ValueError("unstable: the Frobenius does not preserve the span")
    B = h90_trivialize(ctx, cocycle, seed)
    twisted = (B.inverse() * T).rows
    if any(v >= ctx.base.p for row in twisted for v in row):
        raise DefectError("twisted basis is not Frobenius-fixed")
    R = Matrix._from_rows(ctx.base, twisted).rref()[0]

    if ctx.m == 1:
        N = Matrix.identity(ctx.ext, T.nrows)
    else:
        N = cocycle.images[1].inverse()
    oracle = _fixed_point_subspace(ctx, T, N)
    if oracle != R:
        raise DefectError("descended basis disagrees with the fixed-point solver")
    return T, cocycle, B, R


def class_of_descended_arrangement(ctx: GaloisContext, forms, ambient: int,
                                   seed: int = 0) -> StratResult:
    """Class of a union of d <= n hyperplanes in P^n that is defined over
    the base field while the hyperplanes themselves need the extension.

    The descended span is rotated onto the first r coordinates over the
    base field, exposing the union as a cone with vertex P^(n-r) over
    Z = V(product) in P^(r-1).  Each hyperplane is rotated as a row of
    coefficients over the extension, and Z is the product of the rotated
    forms; a product of nonzero forms is free of x_i exactly when each
    factor is.  Z stays a variety atom: its hyperplanes
    are irrational, so inclusion-exclusion over the base does not apply.
    The vertex supplies a rational point, so the count is 1 mod q.
    """
    forms = list(forms)
    given = len(forms)
    forms = _normalize_forms(forms, ctx.ext)
    n = ambient
    nvars = n + 1
    if forms[0].nvars > nvars:
        raise ValueError("forms use more variables than P^%d has" % n)
    if forms[0].nvars < nvars:
        forms = [
            h.remap_variables({i: i for i in range(h.nvars)}, nvars)
            for h in forms
        ]
    d = len(forms)
    if d > n:
        raise ValueError("need d <= n hyperplanes in P^n, got d = %d" % d)

    product = HomogPoly.product(forms).monic()
    if any(v >= ctx.base.p for v in product.coeffs.values()):
        raise ValueError("product not Frobenius-fixed")
    # nonzero values below p are the base field's own
    f_base = HomogPoly._from_terms(ctx.base, nvars, d, product.coeffs)

    steps = [TraceStep(
        "scalar-normalize",
        "%d forms given, %d distinct hyperplanes; monic product has "
        "Frobenius-fixed coefficients, so the union is defined over %s"
        % (given, d, ctx.base),
        None,
        check={"product": str(f_base)},
    )]

    T, cocycle, B, R = _descend_core(ctx, forms, seed)
    r = T.nrows
    steps.append(TraceStep(
        "frobenius-stability",
        "span of rank %d is stable under the Frobenius of %s over %s; cocycle "
        "recorded on the first independent subset of the forms"
        % (r, ctx.ext, ctx.base),
        None,
        check={"trivial_cocycle": cocycle.is_trivial()},
    ))
    steps.append(TraceStep(
        "hilbert90-twist",
        "averaging produced an invertible B with alpha.s(B) = B; the "
        "twisted basis B^(-1)T has base-field coefficients",
        None,
        check={"B": repr(B)},
    ))
    descended = _row_forms(ctx.base, R.rows)
    steps.append(TraceStep(
        "subspace-descent",
        "descended basis agrees with the direct fixed-point solver",
        None,
        check={"basis": [str(h) for h in descended]},
    ))

    # base values below p are the same values in the extension
    radical = _kernel(ctx.base, list(R.rows), nvars)
    g = HomogPoly.product(_row_forms(ctx.ext,
                                     _onto_span(ctx.ext, forms, radical)))
    if any(v >= ctx.base.p for v in g.coeffs.values()):
        raise DefectError("rotated product has a coefficient off the base")
    gz = HomogPoly._from_terms(ctx.base, r, d, g.coeffs)

    atom = VarietyAtom(ctx.base, r - 1, [gz], name="Z", resolved=False)
    expr = projective_space_class(n - r) + ClassExpr.from_atom(atom, n - r + 1)
    ident = Identity(
        [CountTerm(1, 0, CountQuery(ctx.base, n, [f_base]))],
        _staircase(n - r)
        + [CountTerm(1, n - r + 1, atom.query())],
    )
    steps.append(TraceStep(
        "cone-fibration",
        "descended span has rank %d: the union is a cone with vertex P^%d "
        "over Z in P^%d; the vertex is a rational point of the union"
        % (r, n - r, r - 1),
        ident,
    ))

    return StratResult(expr, steps, [
        ("product_frobenius_fixed", True),
        ("span_frobenius_stable", True),
        ("d_le_n", True),
        ("rational_point_certified", n - r >= 0),
    ])
