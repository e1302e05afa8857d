import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

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
    t = F9.gen()
    assert t * t == F9.elem(-1)


def test_extension_arithmetic_f9():
    F9 = extension_field(3, 2)
    t = F9.gen()
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
    for x, y in ((F9.gen(), other.gen()), (F9.gen(), prime_field(3).one)):
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ValueError):
                u + v
            with pytest.raises(ValueError):
                u * v
            with pytest.raises(ValueError):
                u.spec.elem(v)


@st.composite
def _field_and_elems(draw, count):
    spec = draw(st.sampled_from(
        [prime_field(3), prime_field(7), extension_field(3, 2),
         extension_field(5, 2)]))
    xs = [spec.from_index(draw(st.integers(0, spec.order - 1)))
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
    assert a ** (spec.order - 1) == spec.one  # Lagrange
    assert a ** 0 == spec.one


@given(_field_and_elems(2))
def test_frobenius_is_additive(data):
    """x -> x^p distributes over sums in characteristic p."""
    spec, a, b = data
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
    a, b = A.gen(), B.gen()
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


def test_zero_and_one_are_shared_constants():
    for spec in (rationals(), prime_field(5), extension_field(5, 2)):
        assert spec.zero is spec.zero and spec.one is spec.one
        assert spec.zero.is_zero() and spec.one.is_one()
        assert spec.zero == spec.elem(0) and spec.one == spec.elem(1)


# -- log/antilog arithmetic over F_{p^m}, against a schoolbook reference


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
    acc = spec.one.value
    for _ in range(e):
        acc = _ref_mul(spec, acc, a)
    return acc


def _ref_inverse(spec, a):
    # a^(q-2), by square and multiply on the reference product
    acc, e = spec.one.value, spec.order - 2
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
    assert (a * b).value == _ref_mul(spec, a.value, b.value)
    assert (a ** e).value == _ref_pow(spec, a.value, e)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        inv = _ref_inverse(spec, b.value)
        assert b.inverse().value == inv
        assert (a / b).value == _ref_mul(spec, a.value, inv)
        assert (b ** -e).value == _ref_pow(spec, inv, e)


def test_log_pair_is_lazy_and_uses_first_primitive_element():
    from motivic.fields import _TABLE_LIMIT, FieldSpec

    assert extension_field(31, 3).order > _TABLE_LIMIT
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2)):
        spec = FieldSpec("Fpm", p=p, m=m, modulus=build_extension(p, m))
        assert spec._logs is None  # nothing built with the spec
        t = spec.gen()
        assert (t * t).value == _ref_mul(spec, t.value, t.value)
        log, antilog = spec._logs
        q = spec.order
        # the base is the first element in index order of order q - 1
        for i in range(2, q):
            x = spec.from_index(i).value
            powers = {_ref_pow(spec, x, k) for k in range(1, q)}
            if len(powers) == q - 1:
                assert antilog[1] == x
                break
        assert len(antilog) == 2 * (q - 1)
        assert log[spec.zero.value] is None
        assert sorted(v for v in log.values() if v is not None) == list(
            range(q - 1))
    big = FieldSpec("Fpm", p=31, m=3, modulus=build_extension(31, 3))
    big.gen() * big.gen()
    assert big._logs is None
