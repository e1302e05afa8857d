"""Stratification engines: class computations for the supported families.

Each engine takes defining polynomials, produces a ClassExpr, and logs a
Trace whose steps carry point-count identities.  An engine states the same
identities over every field; over Q, TraceStep records none of them, since
nothing over Q is counted.  Over a finite field every identity is checkable
by brute force, and the master invariant holds: the class's count_measure
equals count_points of the input variety.

Families covered:
  * quadrics in any ambient dimension (full recursion, degenerate included),
  * unions of hyperplanes, with an independent inclusion-exclusion oracle,
  * cones over an arbitrary base,
  * cubics with a rational singular point (ambient >= 3),
  * unions of two quadrics with smooth Q1 (ambient >= 4, finite fields).

Engines raise ValueError on precondition violations and DefectError when an
internal cross-check fails (which would indicate a bug, never bad input).
"""

from __future__ import annotations

from functools import lru_cache

from .count import CountQuery, count_points, enumerate_points
from .kclass import (
    ClassExpr,
    CountTerm,
    EtaleAtom,
    Identity,
    StratResult,
    TraceStep,
    VarietyAtom,
    projective_space_class,
)
from .linalg import Matrix, _Echelon, _kernel, _product, _rotation
from .poly import HomogPoly
from .points import _DEFAULT_HEIGHT, first_point
from .quadform import (
    QuadForm,
    diagonalize,
    find_projective_point,
    hyperbolic_normalize,
)


class DefectError(RuntimeError):
    """An internal consistency check failed."""


@lru_cache(maxsize=128)
def _constant_run(coeff, length):
    """The shared CountTerms coeff * q^j for j < length."""
    return tuple(CountTerm(coeff, j) for j in range(length))


def _staircase(k):
    """CountTerms summing to #P^k = 1 + q + ... + q^k (empty when k < 0)."""
    return list(_constant_run(1, k + 1))


def _point_str(spec, pt):
    return "(" + ":".join(map(spec._str, pt)) + ")"


# ---------------------------------------------------------------------------
# quadrics


def class_of_quadric(f: HomogPoly, height=_DEFAULT_HEIGHT,
                     budget=None) -> StratResult:
    """Class of the degree-2 hypersurface V(f) in P^(nvars-1).

    Recursion: split off the radical of a degenerate form (cone structure),
    then repeatedly split hyperbolic planes at rational isotropic points.
    Base cases: one variable (empty), nondegenerate binary (two points or a
    conjugate pair).  Over a finite field the result is fully resolved; over
    Q a pointless nondegenerate form of rank >= 3 within the search height
    stays an unresolved atom.  Over a finite field each search for an
    isotropic point is charged against budget for the candidates it walks
    (quadform.find_projective_point), so an early point passes any budget.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree != 2:
        raise ValueError("expected a quadratic form, got degree %d" % f.degree)
    return _quadric_class(QuadForm.from_poly(f), height, budget)


def _quadric_class(qf: QuadForm, height, budget) -> StratResult:
    """class_of_quadric of a form already built, which keeps its rank and
    polynomial for the recursion."""
    steps = []
    hyps = [("nondegenerate", qf.rank() == qf.nvars)]
    expr = _quadric_expr(qf, height, budget, steps, hyps)
    return StratResult(expr, steps, hyps)


def _quadric_query(qf: QuadForm) -> CountQuery:
    return CountQuery(qf.spec, qf.nvars - 1, [qf.poly()])


def _quadric_expr(qf: QuadForm, height, budget, steps, hyps) -> ClassExpr:
    spec = qf.spec
    text = spec._str
    nvars = qf.nvars
    n = nvars - 1
    rank = qf.rank()

    if rank < nvars:
        # degenerate: V(q) is a cone over the nondegenerate part with vertex
        # the projectivized radical P^(n-rank)
        M, diag = diagonalize(qf)
        order = [i for i, d in enumerate(diag) if d]
        order += [i for i, d in enumerate(diag) if not d]
        entries = [diag[i] for i in order[:rank]]
        sub = QuadForm.diagonal(spec, entries)
        vertex_dim = n - rank
        shift = n - rank + 1
        steps.append(TraceStep(
            "radical-split",
            "rank %d form in %d variables: cone with vertex P^%d over the "
            "diagonalized nondegenerate part in P^%d" % (rank, nvars, vertex_dim, rank - 1),
            Identity([CountTerm(1, 0, _quadric_query(qf))],
                     _staircase(vertex_dim)
                     + [CountTerm(1, shift, _quadric_query(sub))]),
            check={"diagonal": [text(d) for d in entries],
                   "substitution": [[text(row[i]) for row in M.rows]
                                    for i in order]},
        ))
        child = _quadric_expr(sub, height, budget, steps, hyps)
        return projective_space_class(vertex_dim) + child.lshift(shift)

    # nondegenerate from here on
    if nvars == 1:
        steps.append(TraceStep(
            "empty-in-one-variable",
            "a nonzero form in one variable has no projective zeros",
            Identity([CountTerm(1, 0, _quadric_query(qf))], []),
        ))
        return ClassExpr()

    if nvars == 2:
        (a, b), (c, d) = qf.gram.rows
        neg_det = spec._add(spec._mul(b, c), spec._neg(spec._mul(a, d)))
        split = spec._is_square(neg_det)
        if split:
            steps.append(TraceStep(
                "binary-split",
                "nondegenerate binary form with square -det: two rational zeros",
                Identity([CountTerm(1, 0, _quadric_query(qf))], [CountTerm(2)]),
                check={"neg_det": text(neg_det), "square": True},
            ))
            return ClassExpr.from_int(2)
        steps.append(TraceStep(
            "binary-conjugate-pair",
            "nondegenerate binary form with nonsquare -det: a conjugate point "
            "pair over the quadratic extension",
            Identity([CountTerm(1, 0, _quadric_query(qf))], []),
            check={"neg_det": text(neg_det), "square": False},
        ))
        return ClassExpr.from_atom(EtaleAtom((2,)))

    pt = find_projective_point(qf, height, budget=budget)
    if pt is None:
        if spec.is_finite:
            raise DefectError(
                "no isotropic point on a nondegenerate form over a finite field"
            )
        hyps.append(("rational_point_found", False))
        steps.append(TraceStep(
            "unresolved-pointless-form",
            "no rational zero up to height %d; the form stays an unresolved "
            "atom" % height,
            None,
        ))
        atom = VarietyAtom(spec, n, [qf.poly()], resolved=False)
        return ClassExpr.from_atom(atom)

    M, sub = hyperbolic_normalize(qf, pt)
    steps.append(TraceStep(
        "hyperbolic-split",
        "isotropic point %s: coordinates with x0*x1 + q'(x2..x%d); the x1-"
        "chart is an affine cell A^%d, its complement a cone over V(q')"
        % (_point_str(spec, pt), n, n - 1),
        Identity([CountTerm(1, 0, _quadric_query(qf))],
                 [CountTerm(1), CountTerm(1, 1, _quadric_query(sub)),
                  CountTerm(1, n - 1)]),
        check={"point": [text(c) for c in pt]},
    ))
    child = _quadric_expr(sub, height, budget, steps, hyps)
    return ClassExpr({0: 1, n - 1: 1}) + child.lshift(1)


# ---------------------------------------------------------------------------
# hyperplane arrangements


def _normalize_forms(forms, spec=None):
    """Check that the forms are nonzero linear forms of one space, over spec
    when it is given; make each monic, its first nonzero coefficient 1, and
    dedupe."""
    forms = list(forms)
    if not forms:
        raise ValueError("empty arrangement")
    if spec is None:
        spec = forms[0].spec
    nvars = forms[0].nvars
    if any(h.spec != spec or h.nvars != nvars for h in forms):
        raise ValueError("forms live in different spaces")
    seen = set()
    out = []
    for h in forms:
        if h.is_zero():
            raise ValueError("zero form")
        if h.degree != 1:
            raise ValueError("expected a linear form, got degree %d" % h.degree)
        g = h.monic()
        key = g.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def _coeff_rows(forms):
    """The coefficients of linear forms as value rows."""
    nvars = forms[0].nvars
    zero = forms[0].spec.zero
    units = [tuple(1 if j == i else 0 for j in range(nvars))
             for i in range(nvars)]
    return [[h.coeffs.get(e, zero) for e in units] for h in forms]


def _row_forms(spec, rows):
    """The linear forms whose coefficients are the value rows."""
    out = []
    for row in rows:
        nvars = len(row)
        coeffs = {tuple(1 if j == i else 0 for j in range(nvars)): c
                  for i, c in enumerate(row) if c}
        out.append(HomogPoly._from_terms(spec, nvars, 1, coeffs))
    return out


def _onto_span(spec, forms, radical):
    """The coefficient rows of the forms rotated by _rotation(spec, radical,
    nvars), each cut to the first r = nvars - len(radical) columns, where
    the span of the forms lies after the rotation."""
    nvars = forms[0].nvars
    r = nvars - len(radical)
    rows = []
    for row in _product(spec, _coeff_rows(forms),
                        _rotation(spec, radical, nvars)):
        if any(row[r:]):
            raise DefectError("rotation left a coefficient outside the span")
        rows.append(row[:r])
    return rows


def _subset_ranks(spec, rows):
    """ranks[mask] = rank of the rows whose bits are set in mask.

    When the rows are independent, so is every subset, whose rank is its
    size.  Otherwise a depth-first walk over the subsets carries the
    echelon basis of the current subset, so each subset's rank costs one
    row reduction.  Each frame of its stack is [mask, next row to add,
    whether the basis kept the row that made mask].
    """
    d = len(rows)
    span = _Echelon(spec)
    if all(span.add(row) for row in rows):
        ranks = [0]
        for _ in range(d):
            ranks += [r + 1 for r in ranks]
        return ranks
    ranks = [0] * (1 << d)
    span = _Echelon(spec)
    stack = [[0, 0, False]]
    while stack:
        frame = stack[-1]
        mask, j, kept = frame
        if j == d:
            stack.pop()
            if kept:
                span.pop()
            continue
        frame[1] = j + 1
        child = mask | 1 << j
        added = span.add(rows[j])
        ranks[child] = len(span.rows)
        stack.append([child, j + 1, added])
    return ranks


def _inclusion_exclusion(spec, rows, n):
    """The sum of arrangement_inclusion_exclusion for the hyperplanes with
    coefficient rows in P^n, as a class and as CountTerms at L = q, from
    one walk over the subsets.  A subset S adds the shared run of terms
    (-1)^(|S|+1) q^j for j <= n - rank S."""
    d = len(rows)
    if d > 16:
        raise ValueError("too many hyperplanes for subset enumeration")
    ranks = _subset_ranks(spec, rows)
    runs = {}  # (sign, run length) -> number of subsets
    terms = []
    for mask in range(1, 1 << d):
        key = (1 if mask.bit_count() & 1 else -1, n - ranks[mask] + 1)
        runs[key] = runs.get(key, 0) + 1
        terms += _constant_run(*key)
    coeffs = {}
    for (sign, length), k in runs.items():
        for j in range(length):
            coeffs[j] = coeffs.get(j, 0) + sign * k
    return ClassExpr(coeffs), terms


def arrangement_inclusion_exclusion(forms) -> ClassExpr:
    """Scissor-relation oracle: alternating sum over subsets of hyperplanes.

    [union H_i] = sum over nonempty S of (-1)^(|S|+1) [P^(n - rank S)],
    with [P^m] = 0 for m < 0.  Exponential in the number of distinct forms.
    """
    forms = _normalize_forms(forms)
    expr, _ = _inclusion_exclusion(forms[0].spec, _coeff_rows(forms),
                                   forms[0].nvars - 1)
    return expr


def class_of_arrangement(forms) -> StratResult:
    """Class of a union of hyperplanes V(h_1 * ... * h_d) in P^n.

    The span of the forms is rotated onto the first r coordinates, exposing
    the union as a cone with vertex P^(n-r) over the essential arrangement
    Z in P^(r-1), which inclusion-exclusion then resolves completely.  The
    rotated forms h(M x) are the rows of A.M, A the coefficient rows.
    """
    forms = list(forms)
    given = len(forms)
    forms = _normalize_forms(forms)
    spec = forms[0].spec
    nvars = forms[0].nvars
    n = nvars - 1
    d = len(forms)

    radical = _kernel(spec, _coeff_rows(forms), nvars)
    r = nvars - len(radical)
    rows = _onto_span(spec, forms, radical)
    rotated = _row_forms(spec, rows)

    steps = [TraceStep(
        "scalar-normalize",
        "%d forms given, %d distinct hyperplanes after scaling each leading "
        "coefficient to 1" % (given, d),
        None,
        check={"forms": [str(h) for h in forms]},
    )]

    # one object in both identities, so its product is expanded once
    z_query = CountQuery.union(spec, r - 1, rotated)
    steps.append(TraceStep(
        "cone-fibration",
        "span has rank %d: the union is a cone with vertex P^%d over the "
        "essential arrangement Z in P^%d" % (r, n - r, r - 1),
        Identity([CountTerm(1, 0, CountQuery.union(spec, n, forms))],
                 _staircase(n - r) + [CountTerm(1, n - r + 1, z_query)]),
    ))

    z_expr, ie_terms = _inclusion_exclusion(spec, rows, r - 1)
    steps.append(TraceStep(
        "inclusion-exclusion",
        "Z resolved by the alternating sum over the %d nonempty subsets of "
        "the %d hyperplanes" % ((1 << d) - 1, d),
        Identity([CountTerm(1, 0, z_query)], ie_terms),
    ))

    expr = projective_space_class(n - r) + z_expr.lshift(n - r + 1)
    return StratResult(expr, steps, [("d_le_n", d <= n)])


# ---------------------------------------------------------------------------
# cones


def class_of_cone(generators) -> StratResult:
    """Class of the cone in P^n with apex [0:...:0:1] over Z in P^(n-1).

    The generators are given in the first n coordinates.  Lines through the
    apex give [X] = 1 + L*[Z], which needs the apex on X: a nonzero
    generator of degree 0 raises ValueError, zero generators are dropped.
    Z stays an atom except in the one decidable case: all generators
    linear of full rank, hence Z empty and [X] = 1.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list")
    spec = gens[0].spec
    nvars = gens[0].nvars  # Z lives in P^(nvars-1), the cone in P^nvars
    if any(g.spec != spec or g.nvars != nvars for g in gens):
        raise ValueError("generators live in different spaces")
    n = nvars

    live = [g for g in gens if not g.is_zero()]
    if any(g.degree == 0 for g in live):
        raise ValueError("a nonzero constant generator makes the cone "
                         "empty; every generator needs positive degree")
    embedded = [g.insert_variable(nvars) for g in live]
    base_empty = False
    if live and all(g.degree == 1 for g in live):
        if Matrix._from_rows(spec, _coeff_rows(live)).rank() == nvars:
            base_empty = True

    x_query = CountQuery(spec, n, embedded)
    if base_empty:
        steps = [TraceStep(
            "cone-over-empty",
            "the generators are linear of full rank, so the base is empty "
            "and the cone is the apex alone",
            Identity([CountTerm(1, 0, x_query)], [CountTerm(1)]),
        )]
        return StratResult(ClassExpr.from_int(1), steps,
                           [("base_detected_empty", True)])

    atom = VarietyAtom(spec, nvars - 1, live)
    steps = [TraceStep(
        "cone-split",
        "away from the apex, projection to P^%d is an A^1-fibration over Z"
        % (nvars - 1),
        Identity([CountTerm(1, 0, x_query)],
                 [CountTerm(1), CountTerm(1, 1, atom.query())]),
    )]
    expr = ClassExpr.from_int(1) + ClassExpr.from_atom(atom, shift=1)
    return StratResult(expr, steps, [("base_detected_empty", False)])


# ---------------------------------------------------------------------------
# singular cubics


def _gradient_at(f: HomogPoly, pt):
    """(f(pt), [df/dx_i (pt)]) from one pass over f's terms.  A term adds
    c * e_i * x_i^(e_i - 1) * (its other powers) to the i-th partial, so it
    adds nothing when two of its variables are zero at pt, or one is with
    exponent >= 2, and it adds to f only when none is."""
    spec = f.spec
    add, mul, power = spec._add, spec._mul, spec._pow
    value = spec.zero
    grad = [spec.zero] * f.nvars
    for exps, c in f.coeffs.items():
        factors = [(i, e) for i, e in enumerate(exps) if e]
        zeros = [i for i, _ in factors if not pt[i]]
        if len(zeros) > 1 or zeros and exps[zeros[0]] > 1:
            continue
        for i, e in factors:
            if zeros and zeros[0] != i:
                continue
            d = mul(c, spec._literal(e))
            for j, ej in factors:
                k = ej - 1 if j == i else ej
                if k:
                    d = mul(d, power(pt[j], k))
            grad[i] = add(grad[i], d)
        if not zeros:
            v = c
            for i, e in factors:
                v = mul(v, power(pt[i], e))
            value = add(value, v)
    return value, grad


def _is_singular_at(f: HomogPoly, pt) -> bool:
    value, grad = _gradient_at(f, pt)
    return not value and not any(grad)


def find_singular_rational_point(f: HomogPoly, height=_DEFAULT_HEIGHT,
                                 budget=None):
    """First point in canonical order where f and all partials vanish.

    The search is points.first_point on V(f, df/dx_0, ...): charged only
    for the candidates it walks over a finite field, height-bounded over Q.
    """
    partials = [f.partial_derivative(i) for i in range(f.nvars)]
    return first_point(f.spec, f.nvars - 1, [f] + partials, height, budget)


def class_of_singular_cubic(f: HomogPoly, x=None, height=_DEFAULT_HEIGHT,
                            budget=None) -> StratResult:
    """Class of a cubic hypersurface with a rational singular point, n >= 3.

    Coordinates move the singular point to [0:...:0:1]; there the cubic reads
    x_n*f2 + f3 with f2 quadratic and f3 cubic in the remaining variables.
    Lines through the point stratify X into the point, a section over the
    complement of V(f2), and an A^1-bundle over V(f2, f3).  When f2 = 0 the
    cubic is itself a cone and is delegated to class_of_cone.  A given x is
    a tuple of field values, checked by FieldSpec._point and scaled to its
    first nonzero coordinate 1, so that the class does not depend on the
    representative; without x, the singular point is searched for by
    points.first_point; that search and the isotropic-point search on V(f2)
    are charged against budget only for the candidates they walk.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree != 3:
        raise ValueError("expected a cubic, got degree %d" % f.degree)
    spec = f.spec
    nvars = f.nvars
    n = nvars - 1
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")

    if x is None:
        x = find_singular_rational_point(f, height, budget=budget)
        if x is None:
            raise ValueError(
                "no singular rational point found"
                + ("" if spec.is_finite else " up to height %d" % height)
            )
    else:
        x = spec._point(x, nvars)
        if not any(x):
            raise ValueError("zero vector is not a projective point")
        x = tuple(spec._scale(spec._inv(next(filter(None, x))), x))
        if not _is_singular_at(f, x):
            raise ValueError("point not singular")

    # x becomes e_n
    M = Matrix._from_rows(spec, _rotation(spec, [x], nvars))
    g = f.linear_substitute(M)
    split = g.split_by_variable(n)
    if not split[3].is_zero() or not split[2].is_zero():
        raise DefectError("singular normalization failed")
    f2 = split[1].drop_variable(n)
    f3 = split[0].drop_variable(n)

    steps = []
    hyps = [("singular_point_found", True), ("f1_forced_zero", True)]
    steps.append(TraceStep(
        "singular-point-normalization",
        "singular point %s moved to [0:...:0:1]; the cubic splits as "
        "x%d*f2 + f3" % (_point_str(spec, x), n),
        Identity([CountTerm(1, 0, CountQuery(spec, n, [f]))],
                 [CountTerm(1, 0, CountQuery(spec, n, [g]))]),
        check={"point": [spec._str(c) for c in x]},
    ))

    if f2.is_zero():
        hyps.append(("f2_zero_cone_route", True))
        inner = class_of_cone([f3])
        steps.append(TraceStep(
            "cubic-is-cone",
            "f2 = 0: the cubic is free of x%d, a cone over V(f3)" % n,
            None,
        ))
        steps.extend(inner.trace)
        hyps.extend(inner.hypotheses)
        return StratResult(inner.class_expr, steps, hyps)

    hyps.append(("f2_zero_cone_route", False))
    quad = class_of_quadric(f2, height=height, budget=budget)
    atom = VarietyAtom(spec, n - 1, [f2, f3])
    steps.append(TraceStep(
        "three-strata",
        "lines through the singular point: the point itself, one residual "
        "intersection over P^%d minus V(f2), and an A^1-bundle over "
        "V(f2, f3)" % (n - 1),
        Identity([CountTerm(1, 0, CountQuery(spec, n, [g]))],
                 [CountTerm(1)]
                 + _staircase(n - 1)
                 + [CountTerm(-1, 0, CountQuery(spec, n - 1, [f2])),
                    CountTerm(1, 1, atom.query())]),
    ))
    steps.extend(quad.trace)

    expr = (
        ClassExpr.from_int(1)
        + (projective_space_class(n - 1) - quad.class_expr)
        + ClassExpr.from_atom(atom, shift=1)
    )
    return StratResult(expr, steps, hyps)


# ---------------------------------------------------------------------------
# union of two quadrics


def class_of_two_quadric_union(f1: HomogPoly, f2: HomogPoly,
                               budget=None) -> StratResult:
    """Class of V(f1 * f2) for quadrics with V(f1) smooth, in P^n, n >= 4.

    Only finite fields: every derivation step is certified by counting, and
    the cubic hypersurface Y that appears stays an unresolved atom.  After
    hyperbolic coordinates for f1 at a point of the intersection, f1 = x0*x1
    - h and f2 = x1*L1 + x0*L0 + R; the intersection is traded chart by
    chart for loci in lower-dimensional projective spaces.  The point of
    the intersection and the inner quadrics' isotropic points come from
    points.first_point, charged only for the candidates walked; the check
    of step (F) enumerates all of S, which lies in y1 = 0 and is walked
    there as V(h, L1, R) in P^(n-2), and is charged that whole walk, the
    #P^(n-2)(F_q) candidates, against budget up front, as enumerate_points
    is.
    """
    spec = f1.spec
    if not spec.is_finite:
        raise ValueError("two-quadric unions need a finite field of odd "
                         "characteristic")
    if f1.is_zero() or f2.is_zero():
        raise ValueError("zero polynomial")
    if f1.degree != 2 or f2.degree != 2:
        raise ValueError("both inputs must be quadratic forms")
    if f2.spec != spec or f2.nvars != f1.nvars:
        raise ValueError("forms live in different spaces")
    nvars = f1.nvars
    n = nvars - 1
    if n < 4:
        raise ValueError("ambient dimension must be at least 4")
    q1 = QuadForm.from_poly(f1)
    if not q1.is_nondegenerate():
        raise ValueError("Q1 not smooth")
    q2 = QuadForm.from_poly(f2)

    if f1.monic() == f2.monic():
        inner = _quadric_class(q1, _DEFAULT_HEIGHT, budget)
        steps = [TraceStep(
            "identical-quadrics",
            "f2 is a scalar multiple of f1; the union is V(f1) itself",
            Identity([CountTerm(1, 0, CountQuery.union(spec, n, [f1, f2]))],
                     [CountTerm(1, 0, CountQuery(spec, n, [f1]))]),
        )]
        steps.extend(inner.trace)
        return StratResult(
            inner.class_expr, steps,
            [("q2_proportional_to_q1", True)] + inner.hypotheses,
        )

    x = first_point(spec, n, [f1, f2], budget=budget)
    if x is None:
        raise ValueError("no rational point on Q1 and Q2")

    M, _ = hyperbolic_normalize(q1, x)
    g1 = f1.linear_substitute(M)
    g2 = f2.linear_substitute(M)
    v0 = HomogPoly.variable(spec, nvars, 0)
    v1 = HomogPoly.variable(spec, nvars, 1)
    h = v0 * v1 - g1
    if h.uses_variable(0) or h.uses_variable(1):
        raise DefectError("hyperbolic normalization left x0/x1 in h")

    s = g2.split_by_variable(1)
    if not s[2].is_zero():
        raise DefectError("transformed f2 has an x1^2 term")
    L1 = s[1]
    w = s[0].split_by_variable(0)
    L0 = w[2] * v0 + w[1]
    R = w[0]
    if L1.is_zero():
        raise ValueError("unsupported configuration: L1 = 0")

    # P^(n-1) frame: z0 receives the x0 slot (it doubles as homogenizer of
    # the x0 != 0 chart), z(i-1) receives x_i for i >= 2; x1 is eliminated
    down = {0: 0}
    down.update({i: i - 1 for i in range(2, nvars)})
    hh = h.remap_variables(down, nvars - 1)
    LL1 = L1.remap_variables(down, nvars - 1)
    LL0 = L0.remap_variables(down, nvars - 1)
    RR = R.remap_variables(down, nvars - 1)
    z0 = HomogPoly.variable(spec, nvars - 1, 0)
    gbar = hh * LL1 + z0 * RR + z0 * z0 * LL0

    # P^(n-2) frame for the x0 = 0 chart: drop x0 and x1
    L1bar = L1.split_by_variable(0)[0]
    down2 = {i: i - 2 for i in range(2, nvars)}
    h2 = h.remap_variables(down2, nvars - 2)
    L1bar2 = L1bar.remap_variables(down2, nvars - 2)
    R2 = R.remap_variables(down2, nvars - 2)
    l1_survives = not L1bar2.is_zero()

    q_union = CountQuery.union(spec, n, [f1, f2])
    q_q1 = CountQuery(spec, n, [f1])
    q_q2 = CountQuery(spec, n, [f2])
    q_meet = CountQuery(spec, n, [f1, f2])
    q_nz = CountQuery(spec, n, [g1, g2], [(0, "nonzero")])
    q_z = CountQuery(spec, n, [g1, g2], [(0, "zero")])
    y_atom = VarietyAtom(spec, n - 1, [gbar], name="Y")
    fiber_atom = VarietyAtom(spec, n - 2, [h2, L1bar2, R2])
    q_y = y_atom.query()
    q_yy1 = CountQuery(spec, n - 1, [gbar, z0])
    q_hy1 = CountQuery(spec, n - 1, [hh, z0])
    q_l1y1 = CountQuery(spec, n - 1, [LL1, z0])
    q_hl1y1 = CountQuery(spec, n - 1, [hh, LL1, z0])
    q_h2 = CountQuery(spec, n - 2, [h2])
    q_hl2 = CountQuery(spec, n - 2, [h2, L1bar2])
    q_hlr2 = fiber_atom.query()

    steps = [TraceStep(
        "intersection-point-normalization",
        "point %s of Q1 and Q2 moved to [0:1:0:...:0]; f1 becomes x0*x1 - h "
        "and f2 splits as x1*L1 + x0*L0 + R" % _point_str(spec, x),
        None,
        check={"point": [spec._str(c) for c in x], "L1": str(L1),
               "L0": str(L0), "R": str(R), "h": str(h)},
    )]
    steps.append(TraceStep(
        "union-scissor",
        "(A) the union is counted by #Q1 + #Q2 - #(Q1 and Q2)",
        Identity([CountTerm(1, 0, q_union)],
                 [CountTerm(1, 0, q_q1), CountTerm(1, 0, q_q2),
                  CountTerm(-1, 0, q_meet)]),
    ))
    steps.append(TraceStep(
        "chart-split",
        "(B) the intersection splits over the charts x0 != 0 and x0 = 0 "
        "(in the new coordinates)",
        Identity([CountTerm(1, 0, q_meet)],
                 [CountTerm(1, 0, q_nz), CountTerm(1, 0, q_z)]),
    ))
    steps.append(TraceStep(
        "open-chart-cubic",
        "(C) on x0 != 0 the intersection is the affine part of the cubic "
        "Y = V(gbar) in P^%d, with y1 = z0 the hyperplane at infinity" % (n - 1),
        Identity([CountTerm(1, 0, q_nz)],
                 [CountTerm(1, 0, q_y), CountTerm(-1, 0, q_yy1)]),
    ))
    steps.append(TraceStep(
        "infinity-hyperplane",
        "(D) Y at infinity is V(h*L1), the union of a quadric and a "
        "hyperplane section",
        Identity([CountTerm(1, 0, q_yy1)],
                 [CountTerm(1, 0, q_hy1), CountTerm(1, 0, q_l1y1),
                  CountTerm(-1, 0, q_hl1y1)]),
    ))
    steps.append(TraceStep(
        "closed-chart-fibration",
        "(E) on x0 = 0: one section over V(h) minus V(L1), an A^1-bundle "
        "over V(h, L1, R), and the point [0:1:0:...:0], all in P^%d" % (n - 2),
        Identity([CountTerm(1, 0, q_z)],
                 [CountTerm(1, 0, q_h2), CountTerm(-1, 0, q_hl2),
                  CountTerm(1, 1, q_hlr2), CountTerm(1)]),
    ))

    # S = V(y1, h, L1, R) lies in y1 = z0 = 0, where it is V(h2, L1bar2, R2)
    sing_pts = 0
    for p in enumerate_points(q_hlr2, budget=budget):
        if not _is_singular_at(gbar, (0,) + p):
            raise DefectError("a point of S is not singular on Y")
        sing_pts += 1
    steps.append(TraceStep(
        "singular-containment",
        "(F) S = V(y1, h, L1, R) lies inside the singular locus of Y "
        "(%d points checked)" % sing_pts,
        None,
        check={"points": sing_pts, "all_singular": True},
    ))

    c1 = _quadric_class(q1, _DEFAULT_HEIGHT, budget)
    c2 = _quadric_class(q2, _DEFAULT_HEIGHT, budget)
    infty = projective_space_class(n - 3 if l1_survives else n - 2)
    meet_expr = (
        ClassExpr.from_atom(y_atom)
        - infty
        + ClassExpr.from_atom(fiber_atom, shift=1)
        + ClassExpr.from_int(1)
    )
    expr = c1.class_expr + c2.class_expr - meet_expr
    hyps = [
        ("q1_nondegenerate", True),
        ("q2_distinct", True),
        ("intersection_point_found", True),
        ("no_x1_square_term", True),
        ("L1_nonzero", True),
        ("L1_survives_x0_chart", l1_survives),
    ]
    steps.extend(c1.trace)
    steps.extend(c2.trace)
    return StratResult(expr, steps, hyps)
