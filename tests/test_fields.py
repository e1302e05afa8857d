import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from motivic.fields import (
    FieldElem,
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
            assert spec.index(a) == i
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
    field, cached under two keys; their elements must mix freely."""
    from motivic.count import CountQuery
    from motivic.parse import parse_poly

    A = extension_field(3, 2)
    B = extension_field(3, 2, (1, 0, 1))
    assert A is not B and A == B and hash(A) == hash(B)
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
