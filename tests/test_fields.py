import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from conftest import Ref, lit
from motivic.fields import (
    FieldElem,
    build_extension,
    extension_field,
    field_from_text,
    prime_field,
    rationals,
)
from motivic.linalg import Matrix
from motivic.poly import HomogPoly


def test_prime_field_rejects_char_two_and_composites():
    with pytest.raises(ValueError):
        prime_field(2)
    with pytest.raises(ValueError):
        prime_field(9)
    with pytest.raises(ValueError):
        prime_field(1)


def test_rationals_exact():
    Q = rationals()
    a, b = Fraction(1, 3), Fraction(1, 6)
    assert Q._add(a, b) == Fraction(1, 2)
    assert Q._mul(a, Q._inv(b)) == 2
    assert not Q.is_finite


def test_f9_modulus_is_smallest_by_encoding():
    """The monic irreducibles of degree 2 over F_3, scanned in integer
    encoding order, start at t^2 + 1."""
    assert build_extension(3, 2) == (1, 0, 1)
    F9 = extension_field(3, 2)
    t = F9.p
    assert F9._mul(t, t) == lit(F9, -1).value


def test_extension_arithmetic_f9():
    F9 = extension_field(3, 2)
    t = F9.p
    a = F9._add(F9.one, t)
    assert F9._mul(a, a) == F9._mul(2, t)  # (1+t)^2 = 1 + 2t + t^2 = 2t
    assert F9._pow(a, 8) == F9.one  # multiplicative order divides 8
    assert F9._pow(a, 4) == lit(F9, -1).value  # 1+t generates F9*


def test_index_round_trip():
    """from_index(i) is the element of value i, for i in [0, q) only."""
    for spec in (prime_field(5), extension_field(3, 2), extension_field(5, 3)):
        assert [spec.from_index(i).value for i in range(spec.order)] == list(
            range(spec.order))
        for i in (-1, spec.order):
            with pytest.raises(ValueError):
                spec.from_index(i)
    with pytest.raises(ValueError):
        rationals().from_index(0)


def test_field_from_text():
    assert field_from_text("Q").kind == "Q"
    assert field_from_text("7") == prime_field(7)
    assert field_from_text("3,2") == extension_field(3, 2)
    with pytest.raises(ValueError):
        field_from_text("x")
    with pytest.raises(ValueError):
        field_from_text("3,2,1")


def test_fraction_coercion_into_fp():
    """A literal is read into the prime field: over F_{p^m} too, where the
    literal 3 is 0 and 1/2 is 2, never an index."""
    F5 = prime_field(5)
    assert F5._literal(Fraction(1, 2)) == F5._literal(3) == 3  # 2 * 3 = 1
    with pytest.raises(ValueError):
        F5._literal(Fraction(1, 5))
    F9 = extension_field(3, 2)
    assert (F9._literal(3), F9._literal(Fraction(1, 2)), F9._literal(-1)) == (
        0, 2, 2)
    assert rationals()._literal(2) == Fraction(2)


_F9 = extension_field(3, 2)
_OTHER_F9 = extension_field(3, 2, (2, 1, 1))  # t^2 + t + 2, another F9


def test_cross_field_mixing_rejected():
    """An element of a field is a value of that field only, not of another
    field of the same order; the constructors' test takes the other kinds
    of field."""
    assert _OTHER_F9 != _F9
    assert _F9._checked(_F9.from_index(_F9.p)) == _F9.p
    with pytest.raises(ValueError):
        _F9._checked(_OTHER_F9.from_index(_OTHER_F9.p))


@pytest.mark.parametrize("spec, bad", [
    (prime_field(5), True),  # a bool is no value
    (prime_field(5), 1.0),
    (rationals(), 0.5),
    (prime_field(5), 5),  # out of range
    (prime_field(5), -1),
    (_F9, 9),
    (_F9, (0, 1)),  # a digit tuple
    (prime_field(5), Fraction(1, 2)),  # a Fraction over F_p
    (_F9, Fraction(1, 2)),
    (_F9, _OTHER_F9.from_index(3)),  # an element of another field
    (_F9, prime_field(3).from_index(1)),
    (prime_field(3), _F9.from_index(1)),
    (rationals(), prime_field(5).from_index(1)),
    (prime_field(5), "1"),
], ids=repr)
@pytest.mark.parametrize("build", ["HomogPoly", "Matrix", "_point"])
def test_public_constructors_reject_what_is_not_a_value(spec, bad, build):
    """HomogPoly, Matrix and the point consumers' check read a value with
    one rule, FieldSpec._checked, and raise ValueError on anything else."""
    with pytest.raises(ValueError):
        if build == "HomogPoly":
            HomogPoly(spec, 2, 1, {(1, 0): 1, (0, 1): bad})
        elif build == "Matrix":
            Matrix(spec, [[1, bad]])
        else:
            spec._point((1, bad), 2)


def test_a_value_read_out_can_be_passed_back_in():
    """Over F_{p^m} a constructor reads an int as an index: over F9 the
    value 3 is t, for a Matrix, a form and a point alike, and a form
    rebuilt from its own values is the form."""
    assert Matrix(_F9, [[3]]).rows == [[3]]
    f = HomogPoly(_F9, 1, 1, {(1,): 3})
    assert str(f) == "(t)*x0" and f.coeffs == {(1,): 3}
    assert _F9._point((0, 3), 2) == (0, 3)
    g = HomogPoly(_F9, 2, 2, {(2, 0): 5, (1, 1): 8, (0, 2): 1})
    assert HomogPoly(_F9, 2, 2, g.coeffs) == g
    Q = rationals()
    assert Matrix(Q, [[2, Fraction(1, 2)]]).rows == [[Fraction(2),
                                                      Fraction(1, 2)]]
    assert all(type(v) is Fraction for v in Q._point((1, 2), 2))


@st.composite
def _field_and_elems(draw, count):
    """A field, F_{31^3} past the table limit and Q among them, and count
    of its elements: over Q fractions with small numerator and
    denominator."""
    spec = draw(st.sampled_from(
        [prime_field(3), prime_field(7), extension_field(3, 2),
         extension_field(5, 2), extension_field(31, 3), rationals()]))
    if spec.is_finite:
        xs = [draw(st.integers(0, spec.order - 1)) for _ in range(count)]
    else:
        xs = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
              for _ in range(count)]
    return (spec,) + tuple(xs)


@given(_field_and_elems(3))
def test_field_axioms(data):
    """The spec's value arithmetic is a field's, and agrees with the
    reference element's."""
    spec, a, b, c = data
    add, mul = spec._add, spec._mul
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, spec.zero) == a
    assert mul(a, spec.one) == a
    assert add(a, spec._neg(a)) == spec.zero
    ra, rb = Ref(spec, a), Ref(spec, b)
    assert Ref(spec, add(a, b)) == ra + rb
    assert Ref(spec, mul(a, b)) == ra * rb
    assert Ref(spec, spec._neg(a)) == -ra


@given(_field_and_elems(1))
def test_inverse_and_pow(data):
    spec, a = data
    assume(a)
    inv = spec._inv(a)
    assert spec._mul(a, inv) == spec.one
    assert Ref(spec, inv) == Ref(spec, a).inverse()
    if spec.is_finite:
        assert spec._pow(a, spec.order - 1) == spec.one  # Lagrange
    assert spec._pow(a, 0) == spec.one
    assert spec._pow(inv, 2) == spec._mul(inv, inv)


@pytest.mark.parametrize("spec", [prime_field(5), extension_field(3, 2),
                                  extension_field(31, 3), rationals()],
                         ids=str)
def test_inverse_of_zero_raises(spec):
    """0 has no inverse in any field: prime, tabulated F_{p^m}, F_{p^m}
    past the table limit, or Q."""
    with pytest.raises(ZeroDivisionError):
        spec._inv(spec.zero)


@given(_field_and_elems(2))
def test_frobenius_is_additive(data):
    """x -> x^p distributes over sums in characteristic p, and
    FieldElem.frobenius is that map."""
    spec, a, b = data
    assume(spec.is_finite)
    p = spec.char
    assert spec._pow(spec._add(a, b), p) == spec._add(spec._pow(a, p),
                                                      spec._pow(b, p))
    assert FieldElem(spec, a).frobenius().value == spec._pow(a, p)


def test_equal_specs_that_are_distinct_objects_mix():
    """extension_field(3, 2) and extension_field(3, 2, (1, 0, 1)) are one
    field, asked for with two argument tuples; they return one spec, so
    their elements mix freely."""
    from motivic.count import CountQuery
    from motivic.parse import parse_poly

    A = extension_field(3, 2)
    B = extension_field(3, 2, (1, 0, 1))
    assert A is B
    assert A._add(A.p, B.p) == B._add(B.p, A.p) == A._encode((0, 2))
    assert A._mul(A.p, B.p) == lit(B, -1).value
    assert A._checked(B.from_index(B.p)) == A.p
    f = parse_poly("x0 + t*x1", A, 2) * parse_poly("x0 - t*x1", A, 2)
    g = parse_poly("x0 + t*x1", B, 2) * parse_poly("x0 - t*x1", B, 2)
    assert f == g and str(f) == "x0^2 + x1^2"
    assert f.canonical_key() == g.canonical_key()
    assert CountQuery(A, 1, [f]) == CountQuery(B, 1, [g])
    assert hash(CountQuery(A, 1, [f])) == hash(CountQuery(B, 1, [g]))


@given(st.data())
def test_value_operations_match_plain_arithmetic(data):
    """_add, _mul and _pow of F_p and Q are the arithmetic of residues mod p
    and of Fractions, as written here."""
    draw = data.draw
    p = draw(st.sampled_from([3, 7, 1031]))
    F = prime_field(p)
    a, b = (draw(st.integers(0, p - 1)) for _ in range(2))
    e = draw(st.integers(0, 2 * p))
    assert F._add(a, b) == (a + b) % p
    assert F._mul(a, b) == a * b % p
    assert F._pow(a, e) == pow(a, e, p)
    Q = rationals()
    x, y = (Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 20)))
            for _ in range(2))
    k = draw(st.integers(0, 5))
    assert Q._add(x, y) == x + y and type(Q._add(x, y)) is Fraction
    assert Q._mul(x, y) == x * y and type(Q._mul(x, y)) is Fraction
    assert Q._pow(x, k) == x**k and type(Q._pow(x, k)) is Fraction


def test_zero_and_one_are_shared_constants():
    """A spec's zero and one are the values 0 and 1, Fractions over Q."""
    for spec in (rationals(), prime_field(5), extension_field(5, 2)):
        assert spec.zero is spec.zero and spec.one is spec.one
        assert (spec.zero, spec.one) == (0, 1)
        kind = int if spec.is_finite else Fraction
        assert type(spec.zero) is kind and type(spec.one) is kind


# -- table arithmetic over F_{p^m}, against a schoolbook reference


def _tup(spec, i):
    """The coefficient tuple (c_0, ..., c_{m-1}) of the element of index i."""
    return tuple(i // spec.p**k % spec.p for k in range(spec.m))


def _ref_add(spec, a, b):
    """Sum of coefficient tuples, digit by digit mod p."""
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def _ref_neg(spec, a):
    return tuple(-x % spec.p for x in a)


def _ref_mul(spec, a, b):
    """Product of coefficient tuples: convolve, then reduce by the modulus."""
    p, m, mod = spec.p, spec.m, spec.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        prod[k] = 0
        for i in range(m):  # t^k = -(mod_0 + ... + mod_{m-1} t^{m-1}) t^(k-m)
            prod[k - m + i] = (prod[k - m + i] - c * mod[i]) % p
    return tuple(prod[:m])


def _ref_pow(spec, a, e):
    acc = _tup(spec, 1)
    for _ in range(e):
        acc = _ref_mul(spec, acc, a)
    return acc


def _ref_inverse(spec, a):
    # a^(q-2), by square and multiply on the reference product
    acc, e = _tup(spec, 1), spec.order - 2
    while e:
        if e & 1:
            acc = _ref_mul(spec, acc, a)
        a = _ref_mul(spec, a, a)
        e >>= 1
    return acc


_LOGGED = [extension_field(3, 2), extension_field(5, 2), extension_field(3, 3),
           extension_field(5, 3)]
_ABOVE_LIMIT = extension_field(31, 3)


@given(st.sampled_from(_LOGGED + [_ABOVE_LIMIT]), st.data())
@settings(max_examples=200, deadline=None)
def test_extension_ops_match_schoolbook(spec, data):
    """The spec's value arithmetic, and the reference element's, against
    the schoolbook written out here."""
    index = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    a = data.draw(index)
    b = data.draw(index)
    e = data.draw(st.integers(0, 40))
    ta, tb = _tup(spec, a), _tup(spec, b)
    ra, rb = Ref(spec, a), Ref(spec, b)
    assert _tup(spec, spec._mul(a, b)) == _ref_mul(spec, ta, tb)
    assert _tup(spec, (ra * rb).value) == _ref_mul(spec, ta, tb)
    assert _tup(spec, spec._pow(a, e)) == _ref_pow(spec, ta, e)
    assert _tup(spec, (ra ** e).value) == _ref_pow(spec, ta, e)
    assert _tup(spec, spec._add(a, b)) == _ref_add(spec, ta, tb)
    assert _tup(spec, (ra + rb).value) == _ref_add(spec, ta, tb)
    assert _tup(spec, spec._add(a, spec._neg(b))) == _ref_add(
        spec, ta, _ref_neg(spec, tb))
    assert _tup(spec, spec._neg(a)) == _ref_neg(spec, ta)
    if b:
        inv = _ref_inverse(spec, tb)
        assert _tup(spec, spec._inv(b)) == inv
        assert _tup(spec, rb.inverse().value) == inv
        assert _tup(spec, spec._mul(a, spec._inv(b))) == _ref_mul(
            spec, ta, inv)
        assert _tup(spec, spec._pow(spec._inv(b), e)) == _ref_pow(
            spec, inv, e)


@pytest.mark.parametrize("spec", _LOGGED[:3] + [extension_field(7, 2)],
                         ids=str)
def test_extension_sums_match_digitwise_on_every_pair(spec):
    """Every sum and difference, a + (-a) among them, where the Zech
    logarithm of -1 is undefined."""
    add, neg = spec._add, spec._neg
    for a in range(spec.order):
        ta = _tup(spec, a)
        assert _tup(spec, neg(a)) == _ref_neg(spec, ta)
        for b in range(spec.order):
            tb = _tup(spec, b)
            assert _tup(spec, add(a, b)) == _ref_add(spec, ta, tb)
            assert _tup(spec, add(a, neg(b))) == _ref_add(
                spec, ta, _ref_neg(spec, tb))


def test_log_pair_is_lazy_and_uses_first_primitive_element():
    from motivic.fields import _TABLE_LIMIT, FieldSpec

    assert extension_field(31, 3).order > _TABLE_LIMIT
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2)):
        spec = FieldSpec("Fpm", p=p, m=m, modulus=build_extension(p, m))
        assert spec._tables is None  # nothing built with the spec
        t = spec.p
        tt = _tup(spec, t)
        assert _tup(spec, spec._mul(t, t)) == _ref_mul(spec, tt, tt)
        log, antilog = spec._tables[:2]
        q = spec.order
        # the base is the first element in index order of order q - 1
        for i in range(2, q):
            x = _tup(spec, i)
            powers = {_ref_pow(spec, x, k) for k in range(1, q)}
            if len(powers) == q - 1:
                assert _tup(spec, antilog[1]) == x
                break
        assert len(antilog) == 2 * (q - 1)
        assert log[spec.zero] is None
        assert sorted(v for v in log if v is not None) == list(range(q - 1))
        # every table is O(q), none q x q
        assert all(len(table) <= 2 * q for table in spec._tables)
    big = FieldSpec("Fpm", p=31, m=3, modulus=build_extension(31, 3))
    big._mul(big.p, big.p)
    big._add(big.p, big.one)
    assert big._tables is None


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3), (5, 3), (31, 3)],
                         ids=lambda v: str(v))
def test_index_encoding_round_trip(p, m):
    """_encode of the digits, from_index, str and parse_poly of t-literals
    agree on each element; the base field is the indices below p, the
    elements whose coefficients but the constant are all zero."""
    import random

    from motivic.parse import parse_poly

    spec = extension_field(p, m)
    t = Ref(spec, spec._encode((0, 1)))
    assert t.value == p == spec.from_index(p).value
    q = spec.order
    if q <= 125:
        indices = range(q)
    else:
        indices = [0, 1, p - 1, p, q - 1] + random.Random(0).sample(
            range(q), 200)
    for i in indices:
        coeffs = _tup(spec, i)
        a = Ref(spec, i)
        assert spec._encode(coeffs) == i
        assert sum((lit(spec, c) * t**k for k, c in enumerate(coeffs)),
                   lit(spec, 0)) == a
        text = spec._str(i)
        assert text == str(spec.from_index(i))
        assert (text == str(i)) == (i < p)
        f = parse_poly("%s*x0" % text, spec, 1)
        assert f.coeffs.get((1,), spec.zero) == i
        fixed = spec._pow(i, p) == i
        assert fixed == (i < p) == all(c == 0 for c in coeffs[1:])
