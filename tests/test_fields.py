import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from motivic.fields import (
    build_extension,
    extension_field,
    field_from_text,
    prime_field,
    rationals,
)


def test_prime_field_rejects_char_two_and_composites():
    with pytest.raises(ValueError):
        prime_field(2)
    with pytest.raises(ValueError):
        prime_field(9)
    with pytest.raises(ValueError):
        prime_field(1)


def test_rationals_exact():
    Q = rationals()
    a = Q.elem(Fraction(1, 3))
    b = Q.elem(Fraction(1, 6))
    assert (a + b).value == Fraction(1, 2)
    assert (a / b).value == 2
    assert not Q.is_finite


def test_f9_modulus_is_smallest_by_encoding():
    """The monic irreducibles of degree 2 over F_3, scanned in integer
    encoding order, start at t^2 + 1."""
    assert build_extension(3, 2) == (1, 0, 1)
    F9 = extension_field(3, 2)
    t = F9.from_index(F9.p)
    assert t * t == F9.elem(-1)


def test_extension_arithmetic_f9():
    F9 = extension_field(3, 2)
    t = F9.from_index(F9.p)
    a = F9.one + t
    assert a * a == F9.elem(2) * t  # (1+t)^2 = 1 + 2t + t^2 = 2t
    assert (a ** 8) == F9.one  # multiplicative order divides 8
    assert a ** 4 == F9.elem(-1)  # 1+t generates F9*


def test_index_round_trip():
    for spec in (prime_field(5), extension_field(3, 2), extension_field(5, 3)):
        seen = set()
        for i in range(spec.order):
            a = spec.from_index(i)
            seen.add(a)
        assert len(seen) == spec.order


def test_field_from_text():
    assert field_from_text("Q").kind == "Q"
    assert field_from_text("7") == prime_field(7)
    assert field_from_text("3,2") == extension_field(3, 2)
    with pytest.raises(ValueError):
        field_from_text("x")
    with pytest.raises(ValueError):
        field_from_text("3,2,1")


def test_fraction_coercion_into_fp():
    F5 = prime_field(5)
    assert F5.elem(Fraction(1, 2)) == F5.elem(3)  # 2 * 3 = 6 = 1
    with pytest.raises(ValueError):
        F5.elem(Fraction(1, 5))


def test_cross_field_mixing_rejected():
    with pytest.raises(ValueError):
        prime_field(3).elem(1) + prime_field(5).elem(1)
    F9 = extension_field(3, 2)
    other = extension_field(3, 2, (2, 1, 1))  # t^2 + t + 2, another F9
    assert other != F9
    t, u = F9.from_index(F9.p), other.from_index(other.p)
    for x, y in ((t, u), (t, prime_field(3).one)):
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ValueError):
                u + v
            with pytest.raises(ValueError):
                u * v
            with pytest.raises(ValueError):
                u.spec.elem(v)


@st.composite
def _field_and_elems(draw, count):
    """A field, F_{31^3} past the table limit and Q among them, and count
    of its elements: over Q fractions with small numerator and
    denominator."""
    spec = draw(st.sampled_from(
        [prime_field(3), prime_field(7), extension_field(3, 2),
         extension_field(5, 2), extension_field(31, 3), rationals()]))
    if spec.is_finite:
        xs = [spec.from_index(draw(st.integers(0, spec.order - 1)))
              for _ in range(count)]
    else:
        xs = [spec.elem(Fraction(draw(st.integers(-9, 9)),
                                 draw(st.integers(1, 9))))
              for _ in range(count)]
    return (spec,) + tuple(xs)


@given(_field_and_elems(3))
def test_field_axioms(data):
    spec, a, b, c = data
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + spec.zero == a
    assert a * spec.one == a
    assert a + (-a) == spec.zero


@given(_field_and_elems(1))
def test_inverse_and_pow(data):
    spec, a = data
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == spec.one
    if spec.is_finite:
        assert a ** (spec.order - 1) == spec.one  # Lagrange
    assert a ** 0 == spec.one
    assert a ** -2 == a.inverse() * a.inverse()


@given(_field_and_elems(2))
def test_frobenius_is_additive(data):
    """x -> x^p distributes over sums in characteristic p."""
    spec, a, b = data
    assume(spec.is_finite)
    p = spec.char
    assert (a + b) ** p == a ** p + b ** p


def test_equal_specs_that_are_distinct_objects_mix():
    """extension_field(3, 2) and extension_field(3, 2, (1, 0, 1)) are one
    field, asked for with two argument tuples; they return one spec, so
    their elements mix freely."""
    from motivic.count import CountQuery
    from motivic.parse import parse_poly

    A = extension_field(3, 2)
    B = extension_field(3, 2, (1, 0, 1))
    assert A is B
    a, b = A.from_index(A.p), B.from_index(B.p)
    assert a + b == A.elem((0, 2)) and b + a == B.elem((0, 2))
    assert a * b == A.elem(-1) and b * a == B.elem(-1)
    assert a - b == A.zero and hash(a) == hash(b)
    assert A.elem(b) is b
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
    for spec in (rationals(), prime_field(5), extension_field(5, 2)):
        assert spec.zero is spec.zero and spec.one is spec.one
        assert spec.zero.is_zero() and spec.one.value == 1
        assert spec.zero == spec.elem(0) and spec.one == spec.elem(1)


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
    acc = _tup(spec, spec.one.value)
    for _ in range(e):
        acc = _ref_mul(spec, acc, a)
    return acc


def _ref_inverse(spec, a):
    # a^(q-2), by square and multiply on the reference product
    acc, e = _tup(spec, spec.one.value), spec.order - 2
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
    index = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    a = spec.from_index(data.draw(index))
    b = spec.from_index(data.draw(index))
    e = data.draw(st.integers(0, 40))
    ta, tb = _tup(spec, a.value), _tup(spec, b.value)
    assert _tup(spec, (a * b).value) == _ref_mul(spec, ta, tb)
    assert _tup(spec, (a ** e).value) == _ref_pow(spec, ta, e)
    assert _tup(spec, (a + b).value) == _ref_add(spec, ta, tb)
    assert _tup(spec, (a - b).value) == _ref_add(spec, ta, _ref_neg(spec, tb))
    assert _tup(spec, (-a).value) == _ref_neg(spec, ta)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        inv = _ref_inverse(spec, tb)
        assert _tup(spec, b.inverse().value) == inv
        assert _tup(spec, (a / b).value) == _ref_mul(spec, ta, inv)
        assert _tup(spec, (b ** -e).value) == _ref_pow(spec, inv, e)


@pytest.mark.parametrize("spec", _LOGGED[:3] + [extension_field(7, 2)],
                         ids=str)
def test_extension_sums_match_digitwise_on_every_pair(spec):
    """Every sum and difference, a + (-a) among them, where the Zech
    logarithm of -1 is undefined."""
    for i in range(spec.order):
        a, ta = spec.from_index(i), _tup(spec, i)
        assert _tup(spec, (-a).value) == _ref_neg(spec, ta)
        for j in range(spec.order):
            b, tb = spec.from_index(j), _tup(spec, j)
            assert _tup(spec, (a + b).value) == _ref_add(spec, ta, tb)
            assert _tup(spec, (a - b).value) == _ref_add(
                spec, ta, _ref_neg(spec, tb))


def test_log_pair_is_lazy_and_uses_first_primitive_element():
    from motivic.fields import _TABLE_LIMIT, FieldSpec

    assert extension_field(31, 3).order > _TABLE_LIMIT
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2)):
        spec = FieldSpec("Fpm", p=p, m=m, modulus=build_extension(p, m))
        assert spec._tables is None  # nothing built with the spec
        t = spec.from_index(spec.p)
        tt = _tup(spec, t.value)
        assert _tup(spec, (t * t).value) == _ref_mul(spec, tt, tt)
        log, antilog = spec._tables[:2]
        q = spec.order
        # the base is the first element in index order of order q - 1
        for i in range(2, q):
            x = _tup(spec, spec.from_index(i).value)
            powers = {_ref_pow(spec, x, k) for k in range(1, q)}
            if len(powers) == q - 1:
                assert _tup(spec, antilog[1]) == x
                break
        assert len(antilog) == 2 * (q - 1)
        assert log[spec.zero.value] is None
        assert sorted(v for v in log if v is not None) == list(range(q - 1))
        # every table is O(q), none q x q
        assert all(len(table) <= 2 * q for table in spec._tables)
    big = FieldSpec("Fpm", p=31, m=3, modulus=build_extension(31, 3))
    t = big.from_index(big.p)
    t * t
    t + big.one
    assert big._tables is None


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3), (5, 3), (31, 3)],
                         ids=lambda v: str(v))
def test_index_encoding_round_trip(p, m):
    """elem(tuple), from_index, str and parse_poly of t-literals agree
    on each element; the base field is the indices below p, the elements
    whose coefficients but the constant are all zero."""
    import random

    from motivic.parse import parse_poly

    spec = extension_field(p, m)
    t = spec.elem((0, 1))
    assert t.value == p and spec.from_index(p) == t
    q = spec.order
    if q <= 125:
        indices = range(q)
    else:
        indices = [0, 1, p - 1, p, q - 1] + random.Random(0).sample(
            range(q), 200)
    for i in indices:
        coeffs = _tup(spec, i)
        a = spec.from_index(i)
        assert a.value == i and spec.elem(coeffs) == a
        assert sum((c * t**k for k, c in enumerate(coeffs)), spec.zero) == a
        text = str(a)
        assert (text == str(i)) == (i < p)
        f = parse_poly("%s*x0" % text, spec, 1)
        assert f.terms.get((1,), spec.zero) == a
        fixed = a**p == a
        assert fixed == (i < p) == all(c == 0 for c in coeffs[1:])
