"""Constructive Galois descent for hyperplane unions split over F_{p^m}.

A union of hyperplanes can be defined over F_q while the individual
hyperplanes only exist over a cyclic extension.  The machinery here makes
the quotient explicit: Frobenius stability of the span yields a 1-cocycle
on a chosen basis, an averaging construction trivializes the cocycle
(the cohomology set H^1(Gal, GL_r) vanishes), and twisting the basis by
the trivializing matrix produces base-field coordinates.  The class of
the union then follows the same cone fibration as a rational arrangement,
with the essential part kept as a variety atom over the base field.
"""

import random

from .fields import FieldElem, FieldSpec, prime_field
from .linalg import Matrix, _Echelon, extend_to_basis
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
from .strat import DefectError, _coeff_rows, _normalize_forms, _staircase


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
            # t generates ext over base, so checking the orbit of t checks
            # the whole automorphism: order must be exactly m
            t = ext.gen()
            cur = t
            for k in range(1, self.m):
                cur = self.frobenius(cur)
                if cur == t:
                    raise DefectError("Frobenius order is smaller than m")
            if self.frobenius(cur) != t:
                raise DefectError("Frobenius does not have order m")

    def frobenius(self, a, power: int = 1):
        """a -> a^(q^power) where q is the base field order."""
        return a ** (self.base.order ** (power % self.m))

    def frobenius_matrix(self, M: Matrix, power: int = 1) -> Matrix:
        if power % self.m == 0:
            return M
        return Matrix._from_rows(
            self.ext,
            [[self.frobenius(x, power) for x in row] for row in M.rows],
        )

    def in_base(self, a):
        """The base-field value of a, or None if a is not Frobenius-fixed."""
        if self.ext.kind == "Fp":
            return a
        if a.value >= self.base.p:
            return None
        return FieldElem(self.base, a.value)

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


def _validated_ext_forms(forms, spec=None):
    forms = list(forms)
    if not forms:
        raise ValueError("no forms given")
    if spec is None:
        spec = forms[0].spec
    if not spec.is_finite:
        raise ValueError("descent needs a finite field")
    nvars = forms[0].nvars
    for h in forms:
        if h.spec != spec or h.nvars != nvars:
            raise ValueError("forms live in different spaces")
        if h.degree != 1:
            raise ValueError("expected a linear form, got degree %d" % h.degree)
        if h.is_zero():
            raise ValueError("zero form")
    return forms


def _chosen_basis(spec, rows):
    """First linearly independent subset of the rows, in input order."""
    span = _Echelon(spec)
    return Matrix(spec, [list(row) for row in rows if span.add(row)])


def _span_cocycle(ctx, forms):
    """(basis matrix T, Cocycle) for the Frobenius action on span(forms),
    or (T, None) when the span is not Frobenius-stable."""
    T = _chosen_basis(ctx.ext, _coeff_rows(forms))
    Tt = T.transpose()
    n_rows = []
    for row in T.rows:
        image = [ctx.frobenius(c) for c in row]
        x = Tt.solve(image)
        if x is None:
            return T, None
        n_rows.append(list(x))
    if ctx.m == 1:
        return T, Cocycle([Matrix.identity(ctx.ext, T.nrows)])
    # N encodes s(t_i) = sum_j N[i][j] t_j; alpha inverts it
    alpha = Matrix(ctx.ext, n_rows).inverse()
    images = [Matrix.identity(ctx.ext, T.nrows)]
    for _ in range(1, ctx.m):
        images.append(alpha * ctx.frobenius_matrix(images[-1]))
    return T, Cocycle(images)


def frobenius_stability_check(forms):
    """Cocycle of the Frobenius action on span(forms), or None if the span
    is not stable.  The basis is the first independent subset of the forms,
    so a permutation of the hyperplanes shows up as a permutation cocycle."""
    forms = _validated_ext_forms(forms)
    spec = forms[0].spec
    ctx = GaloisContext(prime_field(spec.p), spec)
    _, cocycle = _span_cocycle(ctx, forms)
    return cocycle


def h90_trivialize(ctx: GaloisContext, cocycle: Cocycle, seed: int = 0,
                   retries: int = 64) -> Matrix:
    """Invertible B over ext with alpha_s = B . s(B)^(-1).

    B = sum_i alpha_{s^i} . s^i(C) satisfies the equation for any C; the
    averaging is retried over seeded random C until B is invertible.
    """
    if not cocycle.condition_holds(ctx):
        raise ValueError("not a cocycle")
    r = cocycle.size
    ident = Matrix.identity(ctx.ext, r)
    if cocycle.is_trivial():
        return ident

    def average(C):
        rows = [[ctx.ext.zero] * r for _ in range(r)]
        for i, alpha in enumerate(cocycle.images):
            term = alpha * ctx.frobenius_matrix(C, i)
            for a in range(r):
                for b in range(r):
                    rows[a][b] = rows[a][b] + term.rows[a][b]
        return Matrix(ctx.ext, rows)

    rng = random.Random(seed)
    order = ctx.ext.order
    for attempt in range(retries):
        C = ident if attempt == 0 else Matrix(
            ctx.ext,
            [[ctx.ext.from_index(rng.randrange(order)) for _ in range(r)]
             for _ in range(r)],
        )
        B = average(C)
        if B.rank() != r:
            continue
        if cocycle.images[1] * ctx.frobenius_matrix(B) != B:
            raise DefectError("averaged matrix violates the cocycle equation")
        return B
    raise ValueError(
        "no invertible average found in %d tries (seed %d)" % (retries, seed)
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
            # c = t^k e_i, so (s(c) . N)_j = s(t^k) N[i][j]
            tk = ext.from_index(ext.p**k)
            stk = ctx.frobenius(tk)
            col = []
            for j in range(r):
                acc = stk * N.rows[i][j]
                if j == i:
                    acc = acc - tk
                col.extend(ext._digits(acc.value))
            cols.append(col)
    kernel = Matrix.from_columns(base, cols).nullspace()
    if len(kernel) != r:
        raise DefectError(
            "fixed-point solver found dimension %d, expected %d"
            % (len(kernel), r)
        )
    rows = []
    for vec in kernel:
        c = []
        for i in range(r):
            chunk = tuple(vec[i * m + k].value for k in range(m))
            c.append(ext.elem(chunk if ext.kind == "Fpm" else chunk[0]))
        row = []
        for j in range(T.ncols):
            acc = ext.zero
            for i in range(r):
                acc = acc + c[i] * T.rows[i][j]
            v = ctx.in_base(acc)
            if v is None:
                raise DefectError("fixed vector has a coefficient off the base")
            row.append(v)
        rows.append(row)
    return Matrix(base, rows).rref()[0]


def _descend_core(ctx, forms, seed):
    """(T, cocycle, B, rref basis over base) behind descend_subspace."""
    T, cocycle = _span_cocycle(ctx, forms)
    if cocycle is None:
        raise ValueError("unstable: the Frobenius does not preserve the span")
    B = h90_trivialize(ctx, cocycle, seed)
    twisted = B.inverse() * T
    rows = []
    for row in twisted.rows:
        vals = [ctx.in_base(x) for x in row]
        if any(v is None for v in vals):
            raise DefectError("twisted basis is not Frobenius-fixed")
        rows.append(vals)
    R = Matrix(ctx.base, rows).rref()[0]

    if ctx.m == 1:
        N = Matrix.identity(ctx.ext, T.nrows)
    else:
        N = cocycle.images[1].inverse()
    oracle = _fixed_point_subspace(ctx, T, N)
    if oracle != R:
        raise DefectError("descended basis disagrees with the fixed-point solver")
    return T, cocycle, B, R


def _rows_to_forms(spec, R):
    out = []
    nvars = R.ncols
    for row in R.rows:
        terms = {}
        for i, c in enumerate(row):
            if not c.is_zero():
                exps = tuple(1 if j == i else 0 for j in range(nvars))
                terms[exps] = c
        out.append(HomogPoly(spec, nvars, 1, terms))
    return out


def descend_subspace(ctx: GaloisContext, forms, seed: int = 0):
    """Base-field basis of span(forms) when the span is Frobenius-stable.

    The twisted basis B^(-1).T has Frobenius-fixed coefficients; its rref
    over the base field is cross-checked against a direct fixed-point
    solver before being returned as linear forms.
    """
    forms = _validated_ext_forms(forms, ctx.ext)
    _, _, _, R = _descend_core(ctx, forms, seed)
    return _rows_to_forms(ctx.base, R)


def class_of_descended_arrangement(ctx: GaloisContext, forms, ambient: int,
                                   seed: int = 0) -> StratResult:
    """Class of a union of d <= n hyperplanes in P^n that is defined over
    the base field while the hyperplanes themselves need the extension.

    The descended span is rotated onto the first r coordinates over the
    base field, exposing the union as a cone with vertex P^(n-r) over
    Z = V(product) in P^(r-1).  Z stays a variety atom: its hyperplanes
    are irrational, so inclusion-exclusion over the base does not apply.
    The vertex supplies a rational point, so the count is 1 mod q.
    """
    forms = _validated_ext_forms(forms, ctx.ext)
    n = ambient
    nvars = n + 1
    if forms[0].nvars > nvars:
        raise ValueError("forms use more variables than P^%d has" % n)
    if forms[0].nvars < nvars:
        forms = [
            h.remap_variables({i: i for i in range(h.nvars)}, nvars)
            for h in forms
        ]
    given = len(forms)
    forms = _normalize_forms(forms)
    d = len(forms)
    if d > n:
        raise ValueError("need d <= n hyperplanes in P^n, got d = %d" % d)

    product = HomogPoly.product(forms).monic()
    fixed_terms = {}
    for exps, c in product.sorted_terms():
        v = ctx.in_base(c)
        if v is None:
            raise ValueError("product not Frobenius-fixed")
        fixed_terms[exps] = v
    f_base = HomogPoly(ctx.base, nvars, d, fixed_terms)

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
    descended = _rows_to_forms(ctx.base, R)
    steps.append(TraceStep(
        "subspace-descent",
        "descended basis agrees with the direct fixed-point solver",
        None,
        check={"basis": [str(h) for h in descended]},
    ))

    radical = R.nullspace()
    ext_basis = extend_to_basis(ctx.base, radical, nvars)
    cols = ext_basis.columns()
    W = Matrix.from_columns(ctx.base, cols[len(radical):] + cols[:len(radical)])
    g = f_base.linear_substitute(W)
    for i in range(r, nvars):
        if g.uses_variable(i):
            raise DefectError("rotation left the product outside the span")
    gz = g.remap_variables({i: i for i in range(r)}, r)

    atom = VarietyAtom(ctx.base, r - 1, [gz], name="Z", resolved=False)
    expr = projective_space_class(n - r) + ClassExpr.from_atom(atom, n - r + 1)
    ident = Identity(
        [CountTerm(1, 0, CountQuery(ctx.base, n, [f_base]))],
        _staircase(n - r)
        + [CountTerm(1, n - r + 1, CountQuery(ctx.base, r - 1, [gz]))],
    )
    steps.append(TraceStep(
        "cone-fibration",
        "descended span has rank %d: the union is a cone with vertex P^%d "
        "over Z in P^%d; the vertex is a rational point of the union"
        % (r, n - r, r - 1),
        ident,
    ))

    residue = expr.residue_mod_L()
    if residue != 1:
        raise DefectError("descended arrangement residue is not 1")
    hyps = [
        ("product_frobenius_fixed", True),
        ("span_frobenius_stable", True),
        ("d_le_n", True),
        ("rational_point_certified", n - r >= 0),
    ]
    return StratResult(expr, steps, residue, hyps)
