import random

import pytest

from conftest import assert_trace_verifies, brute_count
from motivic.descent import (
    Cocycle,
    GaloisContext,
    class_of_descended_arrangement,
    descend_subspace,
    frobenius_stability_check,
    h90_trivialize,
)
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import ClassExpr, projective_space_class
from motivic.linalg import Matrix
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import class_of_arrangement

F3 = prime_field(3)
F5 = prime_field(5)
F9 = extension_field(3, 2)
F27 = extension_field(3, 3)


def _ctx(p=3, m=2):
    return GaloisContext(prime_field(p), extension_field(p, m))


def _conjugate_pair(spec, nvars=2):
    t = spec.gen()
    x0 = HomogPoly.variable(spec, nvars, 0)
    x1 = HomogPoly.variable(spec, nvars, 1)
    one = spec.one
    return [x0 + x1.scale(t), x0 - x1.scale(t)], (one, t)


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
    t = F9.gen()
    # t^2 = -1, so t^3 = -t
    assert ctx.frobenius(t) == -t
    assert ctx.frobenius(t, power=2) == t
    for v in range(3):
        assert ctx.frobenius(F9.elem(v)) == F9.elem(v)
    ctx3 = _ctx(m=3)
    u = F27.gen()
    orbit = {u, ctx3.frobenius(u), ctx3.frobenius(u, 2)}
    assert len(orbit) == 3
    assert ctx3.frobenius(u, 3) == u


def test_in_base_and_lift():
    ctx = _ctx()
    t = F9.gen()
    assert ctx.in_base(t) is None
    assert ctx.in_base(F9.elem(2)) == F3.elem(2)
    assert ctx.ext.elem(F3.elem(2).value) == F9.elem(2)


def test_stability_conjugate_pair():
    forms, _ = _conjugate_pair(F9)
    cocycle = frobenius_stability_check(forms)
    assert cocycle is not None
    assert cocycle.size == 2
    assert not cocycle.is_trivial()
    assert cocycle.condition_holds(_ctx())


def test_stability_single_irrational_form_fails():
    forms, _ = _conjugate_pair(F9)
    assert frobenius_stability_check(forms[:1]) is None


def test_stability_rational_forms_trivial():
    forms = [parse_poly("x0", F9, 2), parse_poly("x1", F9, 2)]
    cocycle = frobenius_stability_check(forms)
    assert cocycle is not None and cocycle.is_trivial()


def test_cocycle_condition_rejects_norm_violation():
    # diag(t+1, 1): the norm (t+1)*(t+1)^3 = (t+1)(1-t) = 2 != 1, so the
    # wrap-around condition fails even though each matrix is invertible
    ctx = _ctx()
    t = F9.gen()
    bad = Cocycle([
        Matrix.identity(F9, 2),
        Matrix(F9, [[t + F9.one, F9.zero], [F9.zero, F9.one]]),
    ])
    assert not bad.condition_holds(ctx)
    with pytest.raises(ValueError, match="not a cocycle"):
        h90_trivialize(ctx, bad)


def test_cocycle_condition_accepts_norm_one_diagonal():
    # norm(t) = t * t^3 = t^4 = 1, so diag(t, 1) closes the cycle
    ctx = _ctx()
    t = F9.gen()
    good = Cocycle([
        Matrix.identity(F9, 2),
        Matrix(F9, [[t, F9.zero], [F9.zero, F9.one]]),
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
    cocycle = frobenius_stability_check(forms)
    B = h90_trivialize(ctx, cocycle)
    assert B.rank() == 2
    assert cocycle.images[1] * ctx.frobenius_matrix(B) == B


def test_descend_conjugate_pair():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    basis = descend_subspace(ctx, forms)
    assert [str(h) for h in basis] == ["x0", "x1"]
    assert all(h.spec == F3 for h in basis)


def test_descend_rational_input_unchanged():
    ctx = _ctx()
    forms = [parse_poly("x0", F9, 3), parse_poly("x2", F9, 3)]
    basis = descend_subspace(ctx, forms)
    assert [str(h) for h in basis] == ["x0", "x2"]


def test_descend_unstable_raises():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    with pytest.raises(ValueError, match="unstable"):
        descend_subspace(ctx, forms[:1])


def test_descend_preserves_span():
    ctx = _ctx(3, 3)
    spec = F27
    u = spec.gen()
    x0 = HomogPoly.variable(spec, 4, 0)
    x1 = HomogPoly.variable(spec, 4, 1)
    x3 = HomogPoly.variable(spec, 4, 3)
    h = x0 + x1.scale(u) + x3.scale(u * u)
    orbit = [h]
    for _ in range(2):
        prev = orbit[-1]
        terms = {e: ctx.frobenius(c) for e, c in prev.terms.items()}
        orbit.append(HomogPoly(spec, 4, 1, terms))
    basis = descend_subspace(ctx, orbit)
    # mutual membership: lift the descended rows and rref both span matrices
    from motivic.strat import _coeff_rows

    lifted = Matrix(
        spec, [[ctx.ext.elem(c.value) for c in row] for row in _coeff_rows(basis)]
    )
    original = Matrix(spec, _coeff_rows(orbit))
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
    assert r.class_expr.count_measure(3) == 1
    f_base = parse_poly("x0^2 + x1^2", F3, 3)
    assert brute_count(F3, 2, [f_base]) == 1
    assert_trace_verifies(r)


def test_class_conjugate_planes_in_p3():
    ctx = _ctx()
    forms, _ = _conjugate_pair(F9)
    r = class_of_descended_arrangement(ctx, forms, ambient=3)
    assert r.class_expr.coeffs == {0: 1, 1: 1}
    shift, coeff, atom = r.class_expr.residuals[0]
    assert (shift, coeff) == (2, 1)
    assert r.class_expr.count_measure(3) == 4
    assert brute_count(F3, 3, [parse_poly("x0^2 + x1^2", F3, 4)]) == 4
    assert_trace_verifies(r)


def test_class_rational_forms_matches_arrangement():
    ctx = _ctx()
    forms = [parse_poly("x0", F9, 3), parse_poly("x1", F9, 3)]
    r = class_of_descended_arrangement(ctx, forms, ambient=2)
    base_forms = [parse_poly("x0", F3, 3), parse_poly("x1", F3, 3)]
    direct = class_of_arrangement(base_forms)
    assert r.class_expr.count_measure(3) == direct.class_expr.count_measure(3)
    assert r.residue == direct.residue == 1
    assert_trace_verifies(r)


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
    t = F9.gen()
    x0 = HomogPoly.variable(F9, 3, 0)
    x1 = HomogPoly.variable(F9, 3, 1)
    x2 = HomogPoly.variable(F9, 3, 2)
    # product (x0 + t*x1)(x0 + t*x2) has unfixed coefficients
    with pytest.raises(ValueError, match="not Frobenius-fixed"):
        class_of_descended_arrangement(
            ctx, [x0 + x1.scale(t), x0 + x2.scale(t)], ambient=2
        )


def _random_rational_arrangement(rng, base, n, d):
    nvars = n + 1
    forms = []
    while len(forms) < d:
        coeffs = [rng.randrange(base.p) for _ in range(nvars)]
        if not any(coeffs):
            continue
        terms = {
            tuple(1 if j == i else 0 for j in range(nvars)): base.elem(c)
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
        lifted = [
            HomogPoly(
                ctx.ext,
                h.nvars,
                1,
                {e: ctx.ext.elem(c.value) for e, c in h.terms.items()},
            )
            for h in rational
        ]
        scrambled = []
        for h in lifted:
            while True:
                lam = ctx.ext.from_index(rng.randrange(ctx.ext.order))
                if not lam.is_zero():
                    break
            scrambled.append(h.scale(lam))
        a = class_of_descended_arrangement(ctx, lifted, n, seed=trial)
        b = class_of_descended_arrangement(ctx, scrambled, n, seed=trial)
        assert a.class_expr == b.class_expr
        assert b.class_expr.count_measure(p) == a.class_expr.count_measure(p)
        assert_trace_verifies(b)


def test_randomized_matrix_scrambles():
    """Mixing the forms by an invertible extension matrix preserves the span,
    so descend_subspace must recover the same base-field rref."""
    rng = random.Random(6)
    for trial in range(8):
        p, m = ((3, 2), (5, 2), (3, 3), (5, 3))[trial % 4]
        ctx = _ctx(p, m)
        n = rng.randrange(2, 4)
        d = rng.randrange(1, n + 1)
        rational = _random_rational_arrangement(rng, ctx.base, n, d)
        from motivic.strat import _coeff_rows

        rows = Matrix(ctx.base, _coeff_rows(rational)).rref()[0]
        rows = Matrix(ctx.base, [r for r in rows.rows if any(
            not c.is_zero() for c in r
        )])
        r_rank = rows.nrows
        while True:
            S = Matrix(
                ctx.ext,
                [[ctx.ext.from_index(rng.randrange(ctx.ext.order))
                  for _ in range(r_rank)] for _ in range(r_rank)],
            )
            if S.rank() == r_rank:
                break
        lifted = Matrix(
            ctx.ext, [[ctx.ext.elem(c.value) for c in row] for row in rows.rows]
        )
        mixed = S * lifted
        forms = []
        for row in mixed.rows:
            terms = {
                tuple(1 if j == i else 0 for j in range(n + 1)): c
                for i, c in enumerate(row)
                if not c.is_zero()
            }
            forms.append(HomogPoly(ctx.ext, n + 1, 1, terms))
        basis = descend_subspace(ctx, forms, seed=trial)
        got = Matrix(ctx.base, _coeff_rows(basis)).rref()[0]
        assert got == rows
