from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Ref, lit, ref_terms
from motivic.fields import extension_field, prime_field, rationals
from motivic.parse import ParseError, parse_point, parse_poly
from motivic.poly import HomogPoly

F5 = prime_field(5)
F9 = extension_field(3, 2)


def test_basic_quadric():
    f = parse_poly("x0*x1 - x2^2", F5, 3)
    assert f.degree == 2
    assert str(f) == "x0*x1 + 4*x2^2"


def test_not_homogeneous():
    with pytest.raises(ParseError, match="not homogeneous"):
        parse_poly("x0 + x1^2", F5, 2)


def test_unknown_variable_index():
    with pytest.raises(ParseError):
        parse_poly("x3", F5, 3)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError, match=r"position|character"):
        parse_poly("x0 + + * x1", F5, 2)


def test_extension_coefficients():
    f = parse_poly("(1+2*t)*x0 + t*x1", F9, 2)
    t = Ref(F9, F9.p)
    terms = ref_terms(f)
    assert terms[(1, 0)] == lit(F9, 1) + t + t
    assert terms[(0, 1)] == t


def test_rational_coefficients():
    Q = rationals()
    f = parse_poly("1/2*x0^2 - 3*x1^2", Q, 2)
    from fractions import Fraction
    assert f.coeffs[(2, 0)] == Fraction(1, 2)


def test_integer_powers_and_implicit_degree():
    f = parse_poly("x0^3 + 2*x0*x1*x2 + x2^3", F5, 3)
    assert f.degree == 3
    assert len(f.coeffs) == 3


def test_round_trip_on_canonical_strings():
    for src in ("x0*x1 + 4*x2^2", "x0^3 + 2*x1^3", "2*x0*x1", "x0"):
        f = parse_poly(src, F5, 3)
        assert str(f) == src
        assert parse_poly(str(f), F5, 3) == f


def test_round_trip_extension():
    f = parse_poly("x0^2 + (1+t)*x0*x1 + 2*x1^2", F9, 2)
    assert parse_poly(str(f), F9, 2) == f


def test_parse_scalar():
    # a scalar literal is a point with one coordinate
    assert parse_point("-3", F5, 1) == (lit(F5, -3).value,)
    t = Ref(F9, F9.p)
    assert parse_point("2*t", F9, 1) == ((t + t).value,)
    with pytest.raises(ParseError):
        parse_point("2 junk", F5, 1)


def test_parse_point():
    pt = parse_point("0,0,1", F5, 3)
    assert len(pt) == 3 and pt[2] == F5.one
    pt = parse_point("t, 1", F9, 2)
    assert pt[0] == F9.p
    with pytest.raises(ParseError):
        parse_point("1,2", F5, 3)
    # coordinates are values: over F_{p^m} an index, over Q a Fraction
    assert parse_point("(1+t), -1, 1/2", F9, 3) == (
        (lit(F9, 1) + Ref(F9, F9.p)).value, lit(F9, -1).value,
        lit(F9, Fraction(1, 2)).value)
    assert parse_point("-3/4, 2", rationals(), 2) == (Fraction(-3, 4), 2)
    assert all(type(c) is Fraction
               for c in parse_point("-3/4, 2", rationals(), 2))


@pytest.mark.parametrize("text, nvars, message", [
    ("1,", 2, "unexpected end of input in '1,'"),
    (",1", 2, "expected coefficient, got ',' at position 0 in ',1'"),
    ("0, 0,*t", 3, "expected coefficient, got '*' at position 5 in '0, 0,*t'"),
    ("1 2", 1, "expected , after coordinate, got '2' at position 2 in '1 2'"),
    ("1,2", 3, "point has 2 coordinates, expected 3"),
])
def test_bad_point_text_raises_its_message(text, nvars, message):
    # errors quote the whole point text, with positions in it
    with pytest.raises(ParseError) as exc:
        parse_point(text, F9, nvars)
    assert str(exc.value) == message


def test_zero_polynomial_requires_degree_context():
    f = parse_poly("x0 - x0", F5, 2)
    assert f.is_zero()


F3, F7, F25 = prime_field(3), prime_field(7), extension_field(5, 2)
_SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


def _spaced(draw, tokens):
    """The tokens joined with random whitespace around each."""
    return "".join(draw(_SPACES) + tok for tok in tokens) + draw(_SPACES)


def _integer(draw, spec, value):
    """An integer literal of the prime field element `value`, often not
    reduced mod p."""
    return [str(value + spec.p * draw(st.integers(0, 3)))]


def _t_literal(draw, spec, value):
    """A parenthesized t-literal of `value` over F_{p^m}: its digits plus a
    random multiple of the modulus, of degree m or more unless that
    multiple is zero, each coefficient written either way round its
    sign."""
    p, m = spec.p, spec.m
    coeffs = list(spec._digits(value)) + [0] * (m + 1)
    for k, c in enumerate(draw(st.lists(st.integers(0, p - 1), max_size=2))):
        for j, mod in enumerate(spec.modulus):
            coeffs[k + j] += c * mod
    tokens = ["("]
    for k, c in enumerate(coeffs):
        c %= p
        if not c and draw(st.booleans()):
            continue
        if draw(st.booleans()):
            sign, c = "-", (-c) % p
        else:
            sign = "+" if len(tokens) > 1 or draw(st.booleans()) else ""
        if sign:
            tokens.append(sign)
        mono = ([] if k == 0 else ["t"] if k == 1 else ["t", "^", str(k)])
        if mono and c == 1 and draw(st.booleans()):
            tokens += mono
        else:
            tokens += [str(c)] + (["*"] + mono if mono else [])
    if len(tokens) == 1:
        tokens.append("0")
    return tokens + [")"]


def _scalar_factors(draw, spec, value):
    """Coefficient factors whose product is `value`, a nonnegative rational
    over Q: integers over F_p, integers and t-literals over F_{p^m},
    fractions over Q."""
    if spec.kind == "Q":
        num, den = value.numerator, value.denominator
        k = draw(st.integers(1, 3))
        if den == 1 and draw(st.booleans()):
            return [[str(num)]]
        return [[str(num * k), "/", str(den * k)]]
    unit = lit(spec, draw(st.integers(1, spec.p - 1)))
    rest = (Ref(spec, value) / unit).value
    factors = [_integer(draw, spec, unit.value)]
    if spec.kind == "Fpm" and rest >= spec.p:
        factors.append(_t_literal(draw, spec, rest))
    elif rest != 1 or draw(st.booleans()):
        factors.append(_integer(draw, spec, rest))
    return factors


def _variable_factors(draw, exps):
    """x_i^e written as repeated factors, with x_i^1 and x_i^0 mixed in."""
    out = []
    for i, e in enumerate(exps):
        while e:
            k = draw(st.integers(1, e))
            e -= k
            if k == 1 and draw(st.booleans()):
                out.append(["x%d" % i])
            else:
                out.append(["x%d" % i, "^", str(k)])
        if draw(st.integers(0, 5)) == 0:
            out.append(["x%d" % i, "^", "0"])
    return out


def _term(draw, spec, exps, value):
    """Sign tokens and the factor tokens of value * x^exps, with every
    factor, coefficient ones included, in random order."""
    negative = draw(st.booleans()) if spec.is_finite else value < 0
    if spec.kind == "Q":
        literal = abs(value)
    else:
        literal = (-Ref(spec, value) if negative else Ref(spec, value)).value
    signs = [draw(st.sampled_from(["-", "+ -", "- - -"]))] if negative else \
        [draw(st.sampled_from(["+", "- -", "+ +"]))]
    factors = _variable_factors(draw, exps)
    if literal != 1 or not factors or draw(st.booleans()):
        factors += _scalar_factors(draw, spec, literal)
    body = []
    for factor in draw(st.permutations(factors)):
        body += (["*"] if body else []) + factor
    return signs, body


def _split(draw, spec, value):
    """Values summing to `value`: itself, or two or three parts."""
    if spec.kind == "Q":
        parts = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 2)))]
        return parts + [value - sum(parts)]
    parts = [Ref(spec, draw(st.integers(0, spec.order - 1)))
             for _ in range(draw(st.integers(0, 2)))]
    last = Ref(spec, value)
    for part in parts:
        last = last - part
    return [part.value for part in parts] + [last.value]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_non_canonical_text_parses_to_the_same_form(data):
    """A form written any way the grammar allows reads back as the form
    built directly from its terms: whitespace anywhere, scalar factors
    anywhere in a term, repeated and zeroth powers of a variable, split,
    duplicated and cancelling terms, leading and repeated signs, unreduced
    fractions over Q and t-literals of degree m or more over F_{p^m}."""
    draw = data.draw
    spec = draw(st.sampled_from([F3, F7, F9, F25, rationals()]))
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    pool = _exponents(nvars, degree)
    if spec.kind == "Q":
        values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        values = st.integers(0, spec.order - 1)
    terms = draw(st.dictionaries(st.sampled_from(pool), values,
                                 min_size=1, max_size=5))
    pieces = []
    for exps, value in terms.items():
        for part in _split(draw, spec, value):
            if part:
                pieces.append((exps, part))
    if not pieces:
        exps = draw(st.sampled_from(pool))
        one = 1 if spec.is_finite else Fraction(1)
        pieces = [(exps, one), (exps, spec._neg(one))]
    pieces = draw(st.permutations(pieces))
    tokens = []
    for exps, value in pieces:
        signs, body = _term(draw, spec, exps, value)
        if tokens or signs != ["+"] or draw(st.booleans()):
            tokens += signs
        tokens += body
    text = _spaced(draw, tokens)
    expect = HomogPoly(spec, nvars, degree, terms)
    got = parse_poly(text, spec, nvars)
    assert got.coeffs == expect.coeffs, text
    if not expect.is_zero():
        assert got.degree == degree


def _exponents(nvars, degree):
    if nvars == 0:
        return [()] if degree == 0 else []
    return [(d,) + rest for d in range(degree + 1)
            for rest in _exponents(nvars - 1, degree - d)]


@pytest.mark.parametrize("text, spec, message", [
    ("", F5, "empty polynomial text"),
    ("  - + ", F5, "empty polynomial text"),
    ("x0 +", F5, "unexpected end of input in 'x0 +'"),
    ("x0 x1", F5, "expected + or - before 'x1' at position 3 in 'x0 x1'"),
    ("2 3*x0", F5, "expected + or - before '3' at position 2 in '2 3*x0'"),
    ("x9", F5, "variable x9 out of range (nvars=3) in 'x9'"),
    ("x0^", F5, "unexpected end of input in 'x0^'"),
    ("x0^x1", F5, "expected number, got 'x1' at position 3 in 'x0^x1'"),
    ("x0*", F5, "unexpected end of input in 'x0*'"),
    ("x0 + + * x1", F5,
     "expected coefficient, got '*' at position 7 in 'x0 + + * x1'"),
    ("1/0*x0", F5, "zero denominator in '1/0*x0'"),
    ("t*x0", F5, "t-literals need an extension field, not F5"),
    ("(1+t)*x0", F5, "t-literals need an extension field, not F5"),
    ("x0 + x1^2", F5, "polynomial is not homogeneous: 'x0 + x1^2'"),
    ("x0*@", F5, "bad character '@' at position 3 in 'x0*@'"),
    # the whitespace before a bad character is skipped, and a bad
    # character anywhere is reported before any other error
    ("x0 @ x1", F5, "bad character '@' at position 3 in 'x0 @ x1'"),
    ("x0 x1 ? ", F5, "bad character '?' at position 6 in 'x0 x1 ? '"),
    ("()*x0", F9, "dangling sign in t-literal in '()*x0'"),
    ("(1+)*x0", F9, "dangling sign in t-literal in '(1+)*x0'"),
    ("(2*x0)", F9, "expected t after * in t-literal in '(2*x0)'"),
    ("(1+t*x0", F9, "empty term in t-literal in '(1+t*x0'"),
    ("(*t)*x0", F9, "empty term in t-literal in '(*t)*x0'"),
    ("(1+t", F9, "unexpected end of input in '(1+t'"),
    # juxtaposed terms need a sign inside a t-literal as outside
    ("(1 2)*x0", F9,
     "expected + or - before '2' at position 3 in '(1 2)*x0'"),
    # a coefficient of t needs its *
    ("(2t)*x0", F9, "expected + or - before 't' at position 2 in '(2t)*x0'"),
    ("(2 t)*x0", F9,
     "expected + or - before 't' at position 3 in '(2 t)*x0'"),
    # a factor missing at the end of the text
    ("3*", F5, "unexpected end of input in '3*'"),
])
def test_bad_polynomial_text_raises_its_message(text, spec, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, spec, 3)
    assert str(exc.value) == message


def test_fraction_over_an_extension_field_is_a_prime_field_element():
    assert parse_point("1/2", F9, 1) == (lit(F9, Fraction(1, 2)).value,)
    assert parse_poly("1/2*x0", F9, 2) == parse_poly("2*x0", F9, 2)
    with pytest.raises(ValueError, match="denominator divisible by 3"):
        parse_poly("1/3*x0", F9, 2)
