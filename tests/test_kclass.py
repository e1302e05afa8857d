import json

import pytest
from hypothesis import given, settings, strategies as st

import motivic.kclass
from motivic.count import BudgetError, CountQuery
from motivic.fields import prime_field, rationals
from motivic.kclass import (
    ClassExpr,
    CountTerm,
    Counts,
    EtaleAtom,
    Identity,
    StratResult,
    TraceStep,
    VarietyAtom,
    projective_space_class,
)
from motivic.parse import parse_poly

F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def test_classexpr_canonicalization():
    e = ClassExpr({0: 1, 1: 0, 2: 3})
    assert e.coeffs == {0: 1, 2: 3}
    with pytest.raises(ValueError, match="negative power"):
        ClassExpr({-1: 1})
    with pytest.raises(ValueError, match="negative shift"):
        ClassExpr({}, [(-1, 1, EtaleAtom([1]))])


def test_residuals_merge_and_cancel():
    a = EtaleAtom([1, 2])
    e = ClassExpr({}, [(0, 1, a), (0, 2, a)])
    assert e.residuals == ((0, 3, a),)
    z = ClassExpr.from_atom(a) - ClassExpr.from_atom(a)
    assert z == ClassExpr()
    assert not z.residuals


def test_extension_atoms_sort_by_coefficient_tuples():
    """Atoms over F_{p^m} order as their coefficient tuples (lowest degree
    first) compare, whatever integer encodes an element."""
    from motivic.fields import extension_field

    F9 = extension_field(3, 2)
    atoms = [VarietyAtom(F9, 1, [parse_poly(s, F9, 2)])
             for s in ("x0 + 2*x1", "x0 + (1+t)*x1", "x0 + t*x1")]
    e = sum((ClassExpr.from_atom(a) for a in atoms), ClassExpr())
    assert str(e) == ("[V(x0 + (t)*x1) in P^1] + [V(x0 + (1+t)*x1) in P^1]"
                      " + [V(x0 + 2*x1) in P^1]")


def _fresh_sort_key(atom):
    """VarietyAtom.sort_key as computed anew on every call, from the
    canonical keys of the generators."""
    spec = atom.query().spec
    terms = tuple(g.canonical_key()[3] for g in atom.generators)
    if spec.kind == "Fpm":
        terms = tuple(tuple((e, spec._digits(c)) for e, c in g)
                      for g in terms)
    return (1, atom.query().n, terms)


def test_kept_sort_key_equals_a_fresh_one():
    from motivic.fields import extension_field

    F9 = extension_field(3, 2)
    for spec, texts, nvars in [
            (F9, ["x0 + (1+t)*x1", "x0*x1 + t*x2^2"], 3),
            (F5, ["x0^2 + 3*x1*x2", "0", "x2"], 3),
            (Q, ["1/2*x0 - x1"], 2)]:
        gens = [parse_poly(t, spec, nvars) for t in texts]
        atom = VarietyAtom(spec, nvars - 1, gens)
        first = atom.sort_key()
        assert first == _fresh_sort_key(atom)
        assert atom.sort_key() is first
        assert VarietyAtom(spec, nvars - 1, gens).sort_key() == first


def test_residuals_sorted_by_shift_then_atom():
    a = EtaleAtom([2])
    b = EtaleAtom([1, 1])
    e = ClassExpr({}, [(1, 1, a), (0, 1, a), (0, 1, b)])
    shifts = [s for s, _, _ in e.residuals]
    assert shifts == sorted(shifts)
    # at equal shift, etale atoms order by their degree multisets
    assert e.residuals[0][2] == b


def test_arithmetic_and_lshift():
    p2 = projective_space_class(2)
    assert p2 == ClassExpr({0: 1, 1: 1, 2: 1})
    assert p2 - 1 == ClassExpr({1: 1, 2: 1})
    assert (1 + ClassExpr({1: 1})).lshift(2) == ClassExpr({2: 1, 3: 1})
    with pytest.raises(ValueError, match="negative"):
        p2.lshift(-1)
    assert projective_space_class(-1) == ClassExpr()
    with pytest.raises(ValueError):
        projective_space_class(-2)


def test_str_rendering():
    assert str(ClassExpr()) == "0"
    assert str(projective_space_class(3)) == "1 + L + L^2 + L^3"
    assert str(ClassExpr({0: -1, 1: 2})) == "-1 + 2*L"
    assert str(ClassExpr({1: -1})) == "-L"
    e = ClassExpr({0: 1}, [(1, 1, EtaleAtom([1, 2]))])
    assert str(e) == "1 + L*[etale(1,2)]"
    e2 = ClassExpr({}, [(2, -3, EtaleAtom([1]))])
    assert str(e2) == "-3*L^2*[etale(1)]"


def test_residue_mod_l():
    assert projective_space_class(4).residue_mod_L() == 1
    e = ClassExpr({0: 2}, [(0, 1, EtaleAtom([1, 1, 3]))])
    assert e.residue_mod_L() == 4  # 2 + two degree-1 points
    # shifted atoms are invisible mod L
    v = VarietyAtom(F3, 1, [parse_poly("x0*x1", F3, 2)])
    assert ClassExpr({0: 5}, [(1, 1, v)]).residue_mod_L() == 5
    # a variety atom sitting at shift 0 blocks the residue
    assert ClassExpr({}, [(0, 1, v)]).residue_mod_L() is None


def test_count_measure():
    assert projective_space_class(2).count_measure(Counts(F5)) == 31
    v = VarietyAtom(F3, 1, [parse_poly("x0*x1", F3, 2)])
    e = ClassExpr({1: 1}, [(1, 2, v)])
    # q + 2*q*#V where #V(x0*x1 in P^1) = 2
    assert e.count_measure(Counts(F3)) == 3 + 2 * 3 * 2
    with pytest.raises(ValueError,
                       match="query lives over F3, counting is over F5"):
        e.count_measure(Counts(F5))


def test_uncountable_rational_atom():
    v = VarietyAtom(Q, 1, [parse_poly("x0*x1", Q, 2)])
    with pytest.raises(ValueError,
                       match="query lives over Q, counting is over F3"):
        ClassExpr.from_atom(v).count_measure(Counts(F3))


def test_counts_needs_a_finite_field():
    with pytest.raises(ValueError, match="counting needs a finite field, got Q"):
        Counts(Q)
    counts = Counts(F3, 7)
    assert (counts.spec, counts.q, counts.budget) == (F3, 3, 7)


def test_etale_atom():
    a = EtaleAtom([2, 1, 1])
    assert a.degrees == (1, 1, 2)
    assert a.count(Counts(F5)) == 2
    assert a.residue_contribution() == 2
    assert a.label == "etale(1,1,2)"
    with pytest.raises(ValueError):
        EtaleAtom([])
    with pytest.raises(ValueError):
        EtaleAtom([0])


def test_variety_atom_validation_and_label():
    f = parse_poly("x0^2 + x1*x2", F3, 3)
    v = VarietyAtom(F3, 2, [f], name="Z")
    assert v.label == "Z: V(x0^2 + x1*x2) in P^2"
    assert VarietyAtom(F3, 2, [f]).label == "V(x0^2 + x1*x2) in P^2"
    with pytest.raises(ValueError, match="does not live"):
        VarietyAtom(F3, 1, [f])
    with pytest.raises(ValueError, match="does not live"):
        VarietyAtom(F5, 2, [f])
    with pytest.raises(ValueError, match="homogeneous"):
        VarietyAtom(F3, 2, ["x0"])


def test_variety_atom_structural_equality():
    f = parse_poly("x0*x1", F3, 2)
    g = parse_poly("x0*x1", F3, 2)
    assert VarietyAtom(F3, 1, [f]) == VarietyAtom(F3, 1, [g])
    assert hash(VarietyAtom(F3, 1, [f])) == hash(VarietyAtom(F3, 1, [g]))
    # name and resolved flag do not affect identity
    assert VarietyAtom(F3, 1, [f], name="X") == VarietyAtom(F3, 1, [g])
    h = parse_poly("x0^2", F3, 2)
    assert VarietyAtom(F3, 1, [f]) != VarietyAtom(F3, 1, [h])


def test_count_term_and_identity():
    f = parse_poly("x0*x1", F3, 2)
    qv = CountQuery(F3, 1, [f])
    # #P^1 = #V(x0*x1) + 2 (the two affine complement cells)
    ident = Identity(
        [CountTerm(1, 0, CountQuery(F3, 1, []))],
        [CountTerm(1, 0, qv), CountTerm(2)],
    )
    lv, rv = ident.sides(Counts(F3))
    assert lv == 4 and rv == 4
    bad = Identity([CountTerm(1, 0, qv)], [CountTerm(3)])
    assert bad.sides(Counts(F3)) == (2, 3)


def test_identity_error_paths():
    # an identity with no query is refused when it is built
    with pytest.raises(ValueError, match="no counting content"):
        Identity([CountTerm(1)], [CountTerm(1)])
    q3 = CountQuery(F3, 1, [])
    q5 = CountQuery(F5, 1, [])
    mixed = Identity([CountTerm(1, 0, q3)], [CountTerm(1, 0, q5)])
    with pytest.raises(ValueError,
                       match="query lives over F5, counting is over F3"):
        mixed.sides(Counts(F3))


def test_describe_payloads_are_json():
    f = parse_poly("x0*x1", F3, 2)
    ident = Identity(
        [CountTerm(1, 0, CountQuery(F3, 1, []))],
        [CountTerm(1, 0, CountQuery(F3, 1, [f])), CountTerm(2)],
    )
    step = TraceStep("cell-split", "split off the torus", identity=ident)
    expr = ClassExpr({0: 1}, [(1, 1, VarietyAtom(F3, 1, [f], name="Z"))])
    result = StratResult(expr, [step], [("smooth", True)])
    assert result.residue == expr.residue_mod_L() == 1
    payload = result.describe()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["class_str"] == str(expr)
    assert back["residue"] == 1
    assert back["hypotheses"] == [["smooth", True]]
    assert back["trace"][0]["rule"] == "cell-split"
    assert "identity" in back["trace"][0]


@given(st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5),
       st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5))
@settings(max_examples=60, deadline=None)
def test_count_measure_is_additive(c1, c2):
    a, b = ClassExpr(c1), ClassExpr(c2)
    counts = Counts(F5)
    assert (a + b).count_measure(counts) == (
        a.count_measure(counts) + b.count_measure(counts))
    assert (a - b).count_measure(counts) == (
        a.count_measure(counts) - b.count_measure(counts))


@given(st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5),
       st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_lshift_matches_multiplication_by_q(c, k):
    e = ClassExpr(c)
    counts = Counts(F3)
    assert e.lshift(k).count_measure(counts) == e.count_measure(counts) * 3**k


def test_count_memo_skips_repeats_and_keeps_no_failure(monkeypatch):
    counted = []
    real = motivic.kclass.count_points

    def spy(query, budget=None):
        counted.append(query)
        return real(query, budget=budget)

    monkeypatch.setattr(motivic.kclass, "count_points", spy)
    line = CountQuery(F3, 1, [parse_poly("x0", F3, 2)])
    space = CountQuery(F3, 4)
    ident = Identity([CountTerm(1, 0, line), CountTerm(1, 0, line)],
                     [CountTerm(1, 0, space)])
    counts = Counts(F3, 120)
    # the 121 candidates of P^4(F3) are over the budget: the error reaches
    # the caller and only the count that finished is kept
    with pytest.raises(BudgetError, match="needs 121 candidates"):
        ident.sides(counts)
    assert counts == {line: 1} and counted == [line, space]
    counts.budget = None
    assert ident.sides(counts) == (2, 121)
    assert counts == {line: 1, space: 121}
    assert counted == [line, space, space]
    # a hit is returned as stored, through the atoms of count_measure too
    atom = VarietyAtom(F3, 1, [parse_poly("x0", F3, 2)])
    expr = ClassExpr.from_atom(atom, shift=1)
    stored = Counts(F3)
    stored[atom.query()] = 5
    assert expr.count_measure(stored) == 15
    stored = Counts(F3)
    stored[CountQuery(F3, 1, line.generators)] = 7
    assert stored[line] == 7
    assert Counts(F3)[line] == 1 and len(counted) == 4
