import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (Ref, assert_trace_verifies, brute_count, lit,
                      ref_rows, ref_terms, scaled)
from motivic.descent import (
    Cocycle,
    GaloisContext,
    _descend_core,
    _span_cocycle,
    class_of_descended_arrangement,
    h90_trivialize,
)
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import Counts
from motivic.linalg import Matrix, _kernel
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import _row_forms, class_of_arrangement

F3 = prime_field(3)
F5 = prime_field(5)
F9 = extension_field(3, 2)
F27 = extension_field(3, 3)


def _ctx(p=3, m=2):
    return GaloisContext(prime_field(p), extension_field(p, m))


def _from_refs(spec, rows):
    """The Matrix of rows of reference elements."""
    return Matrix(spec, [[x.value for x in row] for row in rows])


def _conjugate_pair(spec, nvars=2):
    t = Ref(spec, spec.p)
    x0 = HomogPoly.variable(spec, nvars, 0)
    x1 = HomogPoly.variable(spec, nvars, 1)
    return [x0 + scaled(x1, t), x0 - scaled(x1, t)], (lit(spec, 1), t)


def _cocycle(forms):
    """The cocycle of the Frobenius over F_p on span(forms), or None when
    the span is not stable."""
    spec = forms[0].spec
    return _span_cocycle(GaloisContext(prime_field(spec.p), spec), forms)[1]


def _descend(ctx, forms, seed=0):
    """The descended basis of span(forms), as linear forms over the base."""
    return _row_forms(ctx.base, _descend_core(ctx, forms, seed)[3].rows)


def test_context_validation():
    with pytest.raises(ValueError, match="prime field"):
        GaloisContext(F9, extension_field(3, 2))
    with pytest.raises(ValueError, match="characteristic"):
        GaloisContext(F3, extension_field(5, 2))
    with pytest.raises(ValueError, match="finite"):
        GaloisContext(rationals(), F9)
    ctx = _ctx()
    assert ctx.m == 2


def test_frobenius_action():
    ctx = _ctx()
    t = Ref(F9, F9.p)
    row = Matrix(F9, [[t.value, 1, 2]])
    # t^2 = -1, so t^3 = -t; the base field is fixed
    assert ctx.frobenius_matrix(row) == Matrix(F9, [[(-t).value, 1, 2]])
    assert ctx.frobenius_matrix(row, power=2) == row
    ctx3 = _ctx(m=3)
    u = Matrix(F27, [[F27.p]])
    orbit = {ctx3.frobenius_matrix(u, k).rows[0][0] for k in range(3)}
    assert len(orbit) == 3
    assert ctx3.frobenius_matrix(u, 3) == u


def test_in_base_and_lift():
    # the base field is the Frobenius-fixed elements, the indices below p
    ctx = _ctx()
    every = Matrix._from_rows(F9, [list(range(F9.order))])
    image = ctx.frobenius_matrix(every).rows[0]
    assert [i for i in range(F9.order) if image[i] == i] == [0, 1, 2]
    assert [lit(F9, v).value for v in range(3)] == [
        lit(F3, v).value for v in range(3)]


def test_stability_conjugate_pair():
    forms, _ = _conjugate_pair(F9)
    cocycle = _cocycle(forms)
    assert cocycle is not None
    assert cocycle.size == 2
    assert not cocycle.is_trivial()
    assert cocycle.condition_holds(_ctx())


def test_stability_single_irrational_form_fails():
    forms, _ = _conjugate_pair(F9)
    assert _cocycle(forms[:1]) is None


def test_stability_rational_forms_trivial():
    forms = [parse_poly("x0", F9, 2), parse_poly("x1", F9, 2)]
    cocycle = _cocycle(forms)
    assert cocycle is not None and cocycle.is_trivial()


def test_cocycle_condition_rejects_norm_violation():
    # diag(t+1, 1): the norm (t+1)*(t+1)^3 = (t+1)(1-t) = 2 != 1, so the
    # wrap-around condition fails even though each matrix is invertible
    ctx = _ctx()
    t = Ref(F9, F9.p)
    bad = Cocycle([
        Matrix.identity(F9, 2),
        Matrix(F9, [[(t + lit(F9, 1)).value, 0], [0, 1]]),
    ])
    assert not bad.condition_holds(ctx)
    with pytest.raises(ValueError, match="not a cocycle"):
        h90_trivialize(ctx, bad)


def test_cocycle_condition_accepts_norm_one_diagonal():
    # norm(t) = t * t^3 = t^4 = 1, so diag(t, 1) closes the cycle
    ctx = _ctx()
    good = Cocycle([
        Matrix.identity(F9, 2),
        Matrix(F9, [[F9.p, 0], [0, 1]]),
    ])
    assert good.condition_holds(ctx)
    B = h90_trivialize(ctx, good)
    assert good.images[1] * ctx.frobenius_matrix(B) == B


def test_h90_trivial_cocycle_gives_identity():
    ctx = _ctx()
    c = Cocycle([Matrix.identity(F9, 2), Matrix.identity(F9, 2)])
    assert h90_trivialize(ctx, c) == Matrix.identity(F9, 2)


def test_h90_on_swap_cocycle():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    cocycle = _cocycle(forms)
    B = h90_trivialize(ctx, cocycle)
    assert B.rank() == 2
    assert cocycle.images[1] * ctx.frobenius_matrix(B) == B


def test_descend_conjugate_pair():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    basis = _descend(ctx, forms)
    assert [str(h) for h in basis] == ["x0", "x1"]
    assert all(h.spec == F3 for h in basis)


def test_descend_rational_input_unchanged():
    ctx = _ctx()
    forms = [parse_poly("x0", F9, 3), parse_poly("x2", F9, 3)]
    basis = _descend(ctx, forms)
    assert [str(h) for h in basis] == ["x0", "x2"]


def test_descend_unstable_raises():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    with pytest.raises(ValueError, match="unstable"):
        _descend_core(ctx, forms[:1], 0)


def test_descend_preserves_span():
    ctx = _ctx(3, 3)
    spec = F27
    u = Ref(spec, spec.p)
    x0 = HomogPoly.variable(spec, 4, 0)
    x1 = HomogPoly.variable(spec, 4, 1)
    x3 = HomogPoly.variable(spec, 4, 3)
    h = x0 + scaled(x1, u) + scaled(x3, u * u)
    orbit = [h]
    for _ in range(2):
        prev = orbit[-1]
        terms = {e: (c**3).value for e, c in ref_terms(prev).items()}
        orbit.append(HomogPoly(spec, 4, 1, terms))
    basis = _descend(ctx, orbit)
    # mutual membership: lift the descended rows and rref both span matrices
    from motivic.strat import _coeff_rows

    # _coeff_rows gives values, and the base values are the extension's
    # values below p
    lifted = Matrix._from_rows(spec, _coeff_rows(basis))
    original = Matrix._from_rows(spec, _coeff_rows(orbit))
    assert lifted.rref()[0] == original.rref()[0]


def test_class_conjugate_lines_in_p2():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    r = class_of_descended_arrangement(ctx, forms, ambient=2)
    assert r.class_expr.coeffs == {0: 1}
    assert len(r.class_expr.residuals) == 1
    shift, coeff, atom = r.class_expr.residuals[0]
    assert (shift, coeff) == (1, 1)
    assert atom.label == "Z: V(x0^2 + x1^2) in P^1"
    assert r.residue == 1
    assert r.class_expr.count_measure(Counts(F3)) == 1
    f_base = parse_poly("x0^2 + x1^2", F3, 3)
    assert brute_count(F3, 2, [f_base]) == 1
    assert_trace_verifies(r, F3)


def test_class_conjugate_planes_in_p3():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    r = class_of_descended_arrangement(ctx, forms, ambient=3)
    assert r.class_expr.coeffs == {0: 1, 1: 1}
    shift, coeff, atom = r.class_expr.residuals[0]
    assert (shift, coeff) == (2, 1)
    assert r.class_expr.count_measure(Counts(F3)) == 4
    assert brute_count(F3, 3, [parse_poly("x0^2 + x1^2", F3, 4)]) == 4
    assert_trace_verifies(r, F3)


def test_class_rational_forms_matches_arrangement():
    ctx = _ctx()
    forms = [parse_poly("x0", F9, 3), parse_poly("x1", F9, 3)]
    r = class_of_descended_arrangement(ctx, forms, ambient=2)
    base_forms = [parse_poly("x0", F3, 3), parse_poly("x1", F3, 3)]
    direct = class_of_arrangement(base_forms)
    assert (r.class_expr.count_measure(Counts(F3))
            == direct.class_expr.count_measure(Counts(F3)))
    assert r.residue == direct.residue == 1
    assert_trace_verifies(r, F3)


def test_class_trace_rules():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    r = class_of_descended_arrangement(ctx, forms, ambient=2)
    assert [s.rule for s in r.trace] == [
        "scalar-normalize",
        "frobenius-stability",
        "hilbert90-twist",
        "subspace-descent",
        "cone-fibration",
    ]
    hyps = dict(r.hypotheses)
    assert hyps["product_frobenius_fixed"]
    assert hyps["span_frobenius_stable"]
    assert hyps["rational_point_certified"]


def test_class_error_paths():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    with pytest.raises(ValueError, match="d <= n"):
        class_of_descended_arrangement(ctx, forms, ambient=1)
    t = Ref(F9, F9.p)
    x0 = HomogPoly.variable(F9, 3, 0)
    x1 = HomogPoly.variable(F9, 3, 1)
    x2 = HomogPoly.variable(F9, 3, 2)
    # product (x0 + t*x1)(x0 + t*x2) has unfixed coefficients
    with pytest.raises(ValueError, match="not Frobenius-fixed"):
        class_of_descended_arrangement(
            ctx, [x0 + scaled(x1, t), x0 + scaled(x2, t)], ambient=2
        )


def _random_rational_arrangement(rng, base, n, d):
    nvars = n + 1
    forms = []
    while len(forms) < d:
        coeffs = [rng.randrange(base.p) for _ in range(nvars)]
        if not any(coeffs):
            continue
        terms = {
            tuple(1 if j == i else 0 for j in range(nvars)): c
            for i, c in enumerate(coeffs)
            if c
        }
        forms.append(HomogPoly(base, nvars, 1, terms))
    return forms


def test_randomized_scalar_scrambles():
    """Scaling each rational form by an extension unit keeps the variety and
    the descended class; the atom route result must match the unscrambled
    atom route result exactly."""
    rng = random.Random(5)
    for trial in range(8):
        p, m = ((3, 2), (5, 2), (3, 3), (5, 3))[trial % 4]
        ctx = _ctx(p, m)
        n = rng.randrange(2, 4)
        d = rng.randrange(1, n + 1)
        rational = _random_rational_arrangement(rng, ctx.base, n, d)
        # the base values are the extension's values below p
        lifted = [HomogPoly(ctx.ext, h.nvars, 1, h.coeffs) for h in rational]
        scrambled = []
        for h in lifted:
            while True:
                lam = Ref(ctx.ext, rng.randrange(ctx.ext.order))
                if not lam.is_zero():
                    break
            scrambled.append(scaled(h, lam))
        a = class_of_descended_arrangement(ctx, lifted, n, seed=trial)
        b = class_of_descended_arrangement(ctx, scrambled, n, seed=trial)
        assert a.class_expr == b.class_expr
        assert (b.class_expr.count_measure(Counts(ctx.base))
                == a.class_expr.count_measure(Counts(ctx.base)))
        assert_trace_verifies(b, ctx.base)


def test_randomized_matrix_scrambles():
    """Mixing the forms by an invertible extension matrix preserves the span,
    so the descent must recover the same base-field rref."""
    rng = random.Random(6)
    for trial in range(8):
        p, m = ((3, 2), (5, 2), (3, 3), (5, 3))[trial % 4]
        ctx = _ctx(p, m)
        n = rng.randrange(2, 4)
        d = rng.randrange(1, n + 1)
        rational = _random_rational_arrangement(rng, ctx.base, n, d)
        from motivic.strat import _coeff_rows

        rows = Matrix(ctx.base, _coeff_rows(rational)).rref()[0]
        rows = Matrix(ctx.base, [r for r in rows.rows if any(r)])
        r_rank = rows.nrows
        while True:
            S = Matrix(
                ctx.ext,
                [[rng.randrange(ctx.ext.order)
                  for _ in range(r_rank)] for _ in range(r_rank)],
            )
            if S.rank() == r_rank:
                break
        # the base values are the extension's values below p
        mixed = (S * Matrix(ctx.ext, rows.rows)).rows
        forms = []
        for row in mixed:
            terms = {
                tuple(1 if j == i else 0 for j in range(n + 1)): row[i]
                for i in range(n + 1)
                if row[i]
            }
            forms.append(HomogPoly(ctx.ext, n + 1, 1, terms))
        basis = _descend(ctx, forms, seed=trial)
        got = Matrix(ctx.base, _coeff_rows(basis)).rref()[0]
        assert got == rows


# -- the value core against an element path on reference elements -----------


def _frobenius(ctx, a, power=1):
    """a -> a^(q^power), q the order of the base field."""
    return a ** (ctx.base.order ** power)


def _frobenius_matrix_on_elements(ctx, M, power=1):
    if power % ctx.m == 0:
        return M
    return _from_refs(ctx.ext, [[_frobenius(ctx, x, power) for x in row]
                                for row in ref_rows(M)])


def _solve_on_elements(spec, rows, b):
    """One solution x of rows . x = b by Gauss-Jordan on reference
    elements, the free unknowns 0, or None when there is none."""
    ncols = len(rows[0])
    m = [list(row) + [v] for row, v in zip(rows, b)]
    pivots = []
    for c in range(ncols + 1):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        if c == ncols:
            return None
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and not f.is_zero():
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    x = [lit(spec, 0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def _span_cocycle_on_elements(ctx, forms):
    """(T, cocycle images) as _span_cocycle computed them on elements: one
    solve per image, a**q per entry; (T, None) when unstable."""
    spec, nvars = ctx.ext, forms[0].nvars
    chosen = []
    for h in forms:
        terms = ref_terms(h)
        row = [terms.get(tuple(int(j == i) for j in range(nvars)),
                         lit(spec, 0)) for i in range(nvars)]
        if _from_refs(spec, chosen + [row]).rank() > len(chosen):
            chosen.append(row)
    T = _from_refs(spec, chosen)
    Tt = [list(col) for col in zip(*chosen)]
    n_rows = []
    for row in chosen:
        x = _solve_on_elements(spec, Tt, [_frobenius(ctx, c) for c in row])
        if x is None:
            return T, None
        n_rows.append(x)
    ident = Matrix.identity(spec, T.nrows)
    if ctx.m == 1:
        return T, [ident]
    alpha = _from_refs(spec, n_rows).inverse()
    images = [ident]
    for _ in range(1, ctx.m):
        images.append(alpha * _frobenius_matrix_on_elements(ctx, images[-1]))
    return T, images


def _h90_on_elements(ctx, images, seed):
    """The averaging of h90_trivialize, summed entry by entry."""
    r = images[0].nrows
    ident = Matrix.identity(ctx.ext, r)
    if all(M == ident for M in images):
        return ident

    def average(C):
        rows = [[lit(ctx.ext, 0)] * r for _ in range(r)]
        for i, alpha in enumerate(images):
            term = ref_rows(alpha * _frobenius_matrix_on_elements(ctx, C, i))
            for a in range(r):
                for b in range(r):
                    rows[a][b] = rows[a][b] + term[a][b]
        return _from_refs(ctx.ext, rows)

    rng = random.Random(seed)
    order = ctx.ext.order
    for attempt in range(64):
        C = ident if attempt == 0 else Matrix(
            ctx.ext,
            [[rng.randrange(order) for _ in range(r)] for _ in range(r)],
        )
        B = average(C)
        if B.rank() == r:
            return B
    raise AssertionError("no invertible average")


def _in_base(ctx, a):
    assert a.value < ctx.base.p, "coefficient off the base"
    return Ref(ctx.base, a.value)


def _fixed_point_subspace_on_elements(ctx, T, N):
    r, m, base, ext = T.nrows, ctx.m, ctx.base, ctx.ext
    N_rows, T_rows = ref_rows(N), ref_rows(T)
    cols = []
    for i in range(r):
        for k in range(m):
            tk = Ref(ext, ext.p**k)
            stk = _frobenius(ctx, tk)
            col = []
            for j in range(r):
                acc = stk * N_rows[i][j]
                if j == i:
                    acc = acc - tk
                col.extend(ext._digits(acc.value))
            cols.append(col)
    kernel = _kernel(base, [list(row) for row in zip(*cols)], r * m)
    assert len(kernel) == r
    rows = []
    for vec in kernel:
        c = []
        for i in range(r):
            chunk = vec[i * m:(i + 1) * m]
            c.append(Ref(ext, sum(d * ext.p**k for k, d in enumerate(chunk))))
        row = []
        for j in range(T.ncols):
            acc = lit(ext, 0)
            for i in range(r):
                acc = acc + c[i] * T_rows[i][j]
            row.append(_in_base(ctx, acc))
        rows.append(row)
    return _from_refs(base, rows).rref()[0]


def _orbit_arrangement(rng, ctx, nvars, orbits):
    """Frobenius orbits of random linear forms over the extension, with a
    rational form now and then: a union defined over the base field."""
    forms = []
    for _ in range(orbits):
        coeffs = [Ref(ctx.ext, rng.randrange(ctx.ext.order))
                  if rng.random() < 0.7 else lit(ctx.ext, 0)
                  for _ in range(nvars)]
        if all(c.is_zero() for c in coeffs):
            continue
        for k in range(ctx.m):
            forms.append(HomogPoly(ctx.ext, nvars, 1, {
                tuple(1 if j == i else 0 for j in range(nvars)):
                    _frobenius(ctx, c, k).value
                for i, c in enumerate(coeffs)}))
    if not forms or rng.random() < 0.3:
        forms.append(HomogPoly.variable(ctx.ext, nvars, rng.randrange(nvars)))
    return forms


_DESCENT_FIELDS = [(3, 2), (5, 2), (3, 3), (5, 3), (37, 2), (7, 1), (3, 1)]


@pytest.mark.parametrize("p, m", _DESCENT_FIELDS, ids=str)
def test_value_core_matches_element_path(p, m):
    """T, the cocycle images, B (and its text), the descended rref R and
    the fixed-point oracle of the value core equal those of the element
    path, on random orbit arrangements and seeds."""
    from motivic.descent import _fixed_point_subspace

    ext = extension_field(p, m) if m > 1 else prime_field(p)
    ctx = GaloisContext(prime_field(p), ext)
    rng = random.Random(1000 * p + m)
    nontrivial = 0
    for trial in range(12 if ext.order < 1000 else 4):
        nvars = rng.randrange(2, 6)
        forms = _orbit_arrangement(rng, ctx, nvars, rng.randrange(1, 3))
        seed = rng.randrange(4)
        T_ref, images_ref = _span_cocycle_on_elements(ctx, forms)
        assert images_ref is not None
        B_ref = _h90_on_elements(ctx, images_ref, seed)
        R_ref = _from_refs(ctx.base, [
            [_in_base(ctx, x) for x in row]
            for row in ref_rows(B_ref.inverse() * T_ref)]).rref()[0]
        N = images_ref[1].inverse() if m > 1 else images_ref[0]
        oracle_ref = _fixed_point_subspace_on_elements(ctx, T_ref, N)

        T, cocycle, B, R = _descend_core(ctx, forms, seed)
        assert T == T_ref
        assert list(cocycle.images) == images_ref
        assert B == B_ref and repr(B) == repr(B_ref)
        assert R == R_ref == oracle_ref
        assert _fixed_point_subspace(ctx, T, N) == oracle_ref
        nontrivial += not cocycle.is_trivial()
    assert nontrivial or m == 1


def test_unstable_span_matches_element_path():
    ctx = _ctx(5, 3)
    rng = random.Random(8)
    for _ in range(10):
        forms = _orbit_arrangement(rng, ctx, 4, 1)[:2]
        T, cocycle = _span_cocycle(ctx, forms)
        T_ref, images_ref = _span_cocycle_on_elements(ctx, forms)
        assert T == T_ref
        assert (cocycle is None) == (images_ref is None)


# -- the rotation of the descent factors --------------------------------------


@st.composite
def _descent_case(draw):
    p, m = draw(st.sampled_from([(7, 1), (3, 2), (37, 2)]))
    ext = extension_field(p, m) if m > 1 else prime_field(p)
    ctx = GaloisContext(prime_field(p), ext)
    n = draw(st.integers(m + 1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    forms = _orbit_arrangement(rng, ctx, n + 1, 1)
    return ctx, forms, n, draw(st.integers(0, 3))


@given(_descent_case())
@settings(max_examples=40, deadline=None)
def test_rotated_factors_multiply_to_the_rotated_product(case):
    """Z, the product of the factors rotated one by one, is the product
    rotated as a whole by the same W, remapped to its r variables."""
    from motivic.linalg import _rotation
    from motivic.strat import _normalize_forms

    ctx, forms, n, seed = case
    nvars = n + 1
    normalized = _normalize_forms(forms)
    if len(normalized) > n:
        return
    result = class_of_descended_arrangement(ctx, forms, n, seed=seed)
    (_, _, atom), = result.class_expr.residuals
    gz, = atom.generators

    _, _, _, R = _descend_core(ctx, normalized, seed)
    r = R.nrows
    W = Matrix._from_rows(ctx.base, _rotation(
        ctx.base, _kernel(ctx.base, list(R.rows), nvars), nvars))
    product = HomogPoly.product(normalized).monic()
    f_base = HomogPoly(ctx.base, nvars, product.degree, product.coeffs)
    g = f_base.linear_substitute(W)
    assert not any(g.uses_variable(i) for i in range(r, nvars))
    assert gz == g.remap_variables({i: i for i in range(r)}, r)


def test_engines_build_no_elements_in_linalg_or_descent(monkeypatch):
    """On the pinned F27 P^5 descent and F7 P^7 arrangement, from the
    parse on, no FieldElem is built at all, in motivic.linalg and
    motivic.descent or anywhere else."""
    import sys

    from motivic.fields import FieldElem

    callers = []
    init = FieldElem.__init__

    def counted(self, spec, value):
        callers.append(sys._getframe(1).f_code.co_filename)
        init(self, spec, value)

    monkeypatch.setattr(FieldElem, "__init__", counted)
    f27 = [parse_poly(text, F27, 6) for text in (
        "x0 + (2*t)*x1 + (2+2*t^2)*x2 + (2+t+2*t^2)*x3 + (1+t+2*t^2)*x4 "
        "+ (2+t^2)*x5",
        "x0 + (1+2*t)*x1 + (1+2*t+2*t^2)*x2 + (2*t^2)*x3 + (2+2*t^2)*x4 "
        "+ (t+t^2)*x5",
        "x0 + (2+2*t)*x1 + (1+t+2*t^2)*x2 + (2+2*t+2*t^2)*x3 "
        "+ (1+2*t+2*t^2)*x4 + (2*t+t^2)*x5")]
    f7 = [parse_poly(text, prime_field(7), 8) for text in (
        "3*x0 + 3*x1 + 5*x2 + 5*x4 + 2*x5 + 6*x7",
        "3*x1 + 4*x2 + 6*x3 + 3*x4 + 5*x6",
        "2*x0 + x1 + 5*x2 + 3*x4 + 5*x5 + 4*x6 + x7",
        "4*x0 + 6*x1 + x2 + 4*x3 + 4*x5 + 3*x7",
        "5*x0 + x1 + x2 + 6*x3 + 4*x4 + 3*x5 + 5*x6 + 4*x7",
        "3*x0 + 2*x1 + 4*x2 + 2*x3 + 6*x4 + 3*x5 + x6 + x7")]
    ctx = GaloisContext(F3, F27)
    descended = class_of_descended_arrangement(ctx, f27, 5)
    arrangement = class_of_arrangement(f7)
    monkeypatch.undo()
    assert descended.residue == arrangement.residue == 1
    assert callers == []
