import random
from itertools import product

import pytest

from conftest import assert_trace_verifies, brute_count
from motivic.fields import extension_field, prime_field, rationals
from motivic.kclass import (
    ClassExpr,
    EtaleAtom,
    VarietyAtom,
    projective_space_class,
)
from motivic.linalg import Matrix
from motivic.parse import parse_poly
from motivic.strat import class_of_quadric, class_of_two_quadric_union

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()


def test_smooth_conic_is_a_line():
    r = class_of_quadric(parse_poly("x0*x1 - x2^2", F5, 3))
    assert r.class_expr == projective_space_class(1)
    assert r.residue == 1
    assert r.class_expr.count_measure(5) == 6
    assert dict(r.hypotheses)["nondegenerate"]
    assert_trace_verifies(r)


def test_split_quadric_surface():
    f = parse_poly("x0*x1 + x2*x3", F3, 4)
    r = class_of_quadric(f)
    assert r.class_expr == ClassExpr({0: 1, 1: 2, 2: 1})
    assert str(r.class_expr) == "1 + 2*L + L^2"
    assert r.class_expr.count_measure(3) == 16 == brute_count(F3, 3, [f])
    assert_trace_verifies(r)


def test_odd_dimensional_quadric_in_p4():
    f = parse_poly("x0*x1 + x2*x3 + x4^2", F7, 5)
    r = class_of_quadric(f)
    assert r.class_expr == projective_space_class(3)
    assert r.class_expr.count_measure(7) == 400 == brute_count(F7, 4, [f])
    assert_trace_verifies(r)


def test_binary_split_two_points():
    r = class_of_quadric(parse_poly("x0^2 - x1^2", F5, 2))
    assert r.class_expr == ClassExpr.from_int(2)
    assert r.residue == 2
    assert_trace_verifies(r)


def test_binary_anisotropic_conjugate_pair():
    r = class_of_quadric(parse_poly("x0^2 + x1^2", F3, 2))
    assert r.class_expr == ClassExpr.from_atom(EtaleAtom((2,)))
    assert str(r.class_expr) == "[etale(2)]"
    assert r.residue == 0
    assert r.class_expr.count_measure(3) == 0 == brute_count(F3, 1, [
        parse_poly("x0^2 + x1^2", F3, 2)
    ])
    assert all(isinstance(a, EtaleAtom) for _, _, a in r.class_expr.residuals)
    assert_trace_verifies(r)


def test_rank_one_double_line():
    # V(x0^2) in P^2 is a line with multiplicity; as a set, P^1
    f = parse_poly("x0^2", F3, 3)
    r = class_of_quadric(f)
    assert r.class_expr == projective_space_class(1)
    assert r.class_expr.count_measure(3) == 4 == brute_count(F3, 2, [f])
    rules = [s.rule for s in r.trace]
    assert rules[0] == "radical-split"
    assert not dict(r.hypotheses)["nondegenerate"]
    assert_trace_verifies(r)


def test_rank_two_cone_in_p3():
    f = parse_poly("x0*x1", F3, 4)
    r = class_of_quadric(f)
    # two planes through a common line
    assert r.class_expr == ClassExpr({0: 1, 1: 1, 2: 2})
    assert r.class_expr.count_measure(3) == 22 == brute_count(F3, 3, [f])
    assert_trace_verifies(r)


def test_anisotropic_cone():
    # radical splits off, then the binary anisotropic part stays etale
    f = parse_poly("x0^2 + x1^2", F3, 3)
    r = class_of_quadric(f)
    assert r.class_expr == ClassExpr(
        {0: 1}, [(1, 1, EtaleAtom((2,)))]
    )
    assert r.residue == 1
    assert r.class_expr.count_measure(3) == 1 == brute_count(F3, 2, [f])
    assert_trace_verifies(r)


def test_extension_field_conic():
    F9 = extension_field(3, 2)
    f = parse_poly("x0*x1 - x2^2", F9, 3)
    r = class_of_quadric(f)
    assert r.class_expr == projective_space_class(1)
    assert r.class_expr.count_measure(9) == 10 == brute_count(F9, 2, [f])
    assert_trace_verifies(r)


def test_rational_isotropic_conic():
    r = class_of_quadric(parse_poly("x0^2 - x1^2 - x2^2", Q, 3))
    assert r.class_expr == projective_space_class(1)
    assert r.residue == 1
    # no counting identities over Q, but the trace still narrates
    assert all(s.identity is None for s in r.trace)


def test_rational_pointless_form_stays_atom():
    r = class_of_quadric(parse_poly("x0^2 + x1^2 + x2^2", Q, 3))
    assert any(isinstance(a, VarietyAtom) for _, _, a in r.class_expr.residuals)
    assert r.residue is None
    assert not dict(r.hypotheses)["rational_point_found"]
    assert [s.rule for s in r.trace] == ["unresolved-pointless-form"]


def test_input_validation():
    with pytest.raises(ValueError, match="degree"):
        class_of_quadric(parse_poly("x0^3", F3, 2))
    with pytest.raises(ValueError, match="zero"):
        from motivic.poly import HomogPoly

        class_of_quadric(HomogPoly.zero(F3, 3, 2))


def test_class_invariant_under_coordinate_change():
    """The resolved class of a quadric cannot see the coordinates."""
    rng = random.Random(7)
    f = parse_poly("x0*x1 + x2^2 + x3^2", F5, 4)
    base = class_of_quadric(f).class_expr
    n = 4
    found = 0
    while found < 5:
        M = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        if M.rank() != n:
            continue
        found += 1
        g = f.linear_substitute(M)
        assert class_of_quadric(g).class_expr == base


def test_measure_matches_count_on_random_forms():
    rng = random.Random(11)
    from motivic.poly import HomogPoly

    for q, spec in ((3, F3), (5, F5)):
        for _ in range(12):
            nvars = rng.randrange(2, 5)
            terms = {}
            for i in range(nvars):
                for j in range(i, nvars):
                    c = rng.randrange(q)
                    if c:
                        e = [0] * nvars
                        e[i] += 1
                        e[j] += 1
                        terms[tuple(e)] = c
            if not terms:
                continue
            f = HomogPoly(spec, nvars, 2, terms)
            r = class_of_quadric(f)
            assert r.class_expr.count_measure(q) == brute_count(
                spec, nvars - 1, [f]
            )
            assert_trace_verifies(r)


def test_every_quadric_in_the_plane_over_f3():
    """All 728 nonzero quadrics in P^2 over F3, degenerate ones included:
    each identity and the oracle pass, the residue is 1, and the count is
    1 mod 3, as Chevalley-Warning and Ax's theorem give for a degree below
    the number of variables."""
    from motivic.poly import HomogPoly

    monomials = [e for e in product(range(3), repeat=3) if sum(e) == 2]
    swept = 0
    for coeffs in product(range(3), repeat=len(monomials)):
        if not any(coeffs):
            continue
        f = HomogPoly(F3, 3, 2, dict(zip(monomials, coeffs)))
        r = class_of_quadric(f)
        assert_trace_verifies(r)
        count = brute_count(F3, 2, [f])
        assert r.class_expr.count_measure(3) == count, str(f)
        assert r.residue == 1, str(f)
        assert count % 3 == 1, str(f)
        swept += 1
    assert swept == 3**6 - 1


@pytest.mark.parametrize("texts, spec, nvars, forms", [
    # 5 -> 3 -> 1 variables
    (["x0*x1 + x2*x3 + x4^2"], F5, 5, 3),
    # the radical split 4 -> 3, then 3 -> 1
    (["x0*x1 + x2^2"], F7, 4, 3),
    # 4 -> 2, a binary form
    (["x0^2 + x1^2 - x2^2 - x3^2"], Q, 4, 2),
    # Q1 and its complement at the common point, then Q1's recursion 3 -> 1
    # and Q2's 5 -> 3 -> 1
    (["x0*x1 + x2*x3 + x4^2", "x0*x2 + x1*x4 + x3^2"], F5, 5, 7),
], ids=["F5", "F7-degenerate", "Q", "F5-two-quadrics"])
def test_quadric_recursion_eliminates_each_form_once(monkeypatch, texts, spec,
                                                     nvars, forms):
    """The caller, the split's entry check and its check of the complement
    share one elimination per form; the two-quadric engine passes its forms
    into the quadric recursion, so Q1 and Q2 are ranked once each."""
    ranked = []
    rank = Matrix.rank

    def recording(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", recording)
    polys = [parse_poly(text, spec, nvars) for text in texts]
    if len(polys) == 1:
        class_of_quadric(*polys)
    else:
        class_of_two_quadric_union(*polys)
    assert len(ranked) == len({id(m) for m in ranked}) == forms
