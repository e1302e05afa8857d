"""Text grammar for polynomials and points.

Polynomials are sums of terms like ``3*x0^2*x1`` joined by ``+`` and ``-``;
whitespace never matters.  Coefficient literals are integers, fractions
``a/b``, or (over an extension field) t-polynomials such as ``t``, ``t^2``,
or the parenthesized form ``(1+2*t)``.  Inside a t-literal a coefficient
of t needs its ``*``: ``(2*t)``, never ``(2t)`` or ``(2 t)``.  A sign must
be followed by a term, and a term after the first must follow a sign,
inside a t-literal as outside.  The printed form of every polynomial in
this package parses back to itself.

One compiled pattern splits a text into its tokens in a single pass, and a
_Reader walks the token list by index.  Coefficients are read as plain
values of the field (see motivic.fields): ints over F_p, reduced once per
monomial, ints and Fractions over Q, indices over F_{p^m}, where the digits
of a parenthesized t-literal are summed and encoded straight to an index by
FieldSpec._encode.  Repeated monomials are summed on values, and the
polynomial keeps the values of the surviving terms as they are:
parse_poly builds no FieldElem.  parse_point reads a whole --point text
with one _Reader, its coordinates separated by ',' tokens, and returns a
tuple of values, as the point searches do.  Token positions are only
needed by error messages, which find them again.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache

from .fields import FieldSpec
from .poly import HomogPoly

_TOKEN_RE = re.compile(r"\s*([t^*+\-/(),]|x\d+|\d+)")
# stands for the end of the text after the last token
_END = ""


class ParseError(ValueError):
    pass


class _Reader:
    """The tokens of one text, ended by _END, and the value arithmetic of
    its field: add, mul and neg combine values, finish maps a value to the
    element's own (reduced mod p over F_p, a Fraction over Q, the index
    itself over F_{p^m})."""

    __slots__ = ("src", "toks", "spec", "add", "mul", "neg", "finish")

    def __init__(self, src: str, spec: FieldSpec):
        toks = _TOKEN_RE.findall(src)
        # findall skips what no token matches: a character that is neither
        # whitespace nor part of a token
        if "".join(toks) != "".join(src.split()):
            _raise_bad_character(src)
        toks.append(_END)
        self.src = src
        self.toks = toks
        self.spec = spec
        if spec.kind == "Fpm":
            self.add, self.mul, self.neg = spec._add, spec._mul, spec._neg
            self.finish = int
        else:
            self.add, self.mul = operator.add, operator.mul
            self.neg = operator.neg
            # over F_p, v -> v % p
            self.finish = Fraction if spec.kind == "Q" else spec.p.__rmod__

    def where(self, i: int) -> int:
        """Character offset of token i (end of input for _END)."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.src)]
        return starts[i] if i < len(starts) else len(self.src)

    def end_of_input(self):
        return ParseError("unexpected end of input in %r" % self.src)

    def number(self, i: int):
        """(int, next index) of the number at token i."""
        tok = self.toks[i]
        if not tok.isdigit():
            if tok is _END:
                raise self.end_of_input()
            raise ParseError("expected number, got %r at position %d in %r"
                             % (tok, self.where(i), self.src))
        return int(tok), i + 1

    def exponent(self, i: int):
        """(k, next index) of an optional ``^k`` at token i, k = 1 without."""
        if self.toks[i] == "^":
            return self.number(i + 1)
        return 1, i

    def factor(self, i: int):
        """(value, next index) of the coefficient factor at token i: an
        integer, a fraction, t, t^k or a parenthesized t-literal."""
        tok = self.toks[i]
        spec = self.spec
        if tok.isdigit():
            num = int(tok)
            if self.toks[i + 1] != "/":
                return (num % spec.p if spec.kind == "Fpm" else num), i + 1
            den, i = self.number(i + 2)
            if den == 0:
                raise ParseError("zero denominator in %r" % self.src)
            return spec._value(Fraction(num, den)), i
        if tok == "(" or tok == "t":
            if spec.kind != "Fpm":
                raise ParseError(
                    "t-literals need an extension field, not %s" % spec)
            if tok == "(":
                return self.tpoly(i + 1)
            power, i = self.exponent(i + 1)
            return spec._pow(spec.p, power), i
        if tok is _END:
            raise self.end_of_input()
        raise ParseError("expected coefficient, got %r at position %d in %r"
                         % (tok, self.where(i), self.src))

    def tpoly(self, i: int):
        """(index, next index) of the sum of integer and t terms from token
        i up to the matching ')'.  Terms of degree below m sum as digits;
        the rest, reduced by the modulus, as values."""
        spec, toks = self.spec, self.toks
        p, m = spec.p, spec.m
        digits = [0] * m
        high = 0
        negative = False
        expect_term = True
        while True:
            tok = toks[i]
            if tok == ")":
                if expect_term:
                    raise ParseError(
                        "dangling sign in t-literal in %r" % self.src)
                return spec._add(spec._encode(digits), high), i + 1
            if tok == "+" or tok == "-":
                negative ^= tok == "-"
                expect_term = True
                i += 1
                continue
            if not expect_term and (tok == "t" or tok.isdigit()):
                raise ParseError(
                    "expected + or - before %r at position %d in %r"
                    % (tok, self.where(i), self.src))
            coeff = 1
            power = 0
            if tok.isdigit():
                # a t after the digits without a * starts a new term, which
                # the next pass rejects for its missing sign
                coeff = int(tok)
                i += 1
                if toks[i] == "*":
                    if toks[i + 1] != "t":
                        raise ParseError(
                            "expected t after * in t-literal in %r" % self.src)
                    power, i = self.exponent(i + 2)
            elif tok is _END:
                raise self.end_of_input()
            elif tok != "t":
                raise ParseError("empty term in t-literal in %r" % self.src)
            else:
                power, i = self.exponent(i + 1)
            if negative:
                coeff = -coeff
            if power < m:
                digits[power] += coeff
            else:
                high = spec._add(high, spec._mul(coeff % p,
                                                 spec._pow(p, power)))
            negative = False
            expect_term = False


def _raise_bad_character(src: str):
    """Raise the error for the first character no token starts at, walking
    the tokens from the start; the caller knows there is one.  The walk
    stops at the whitespace in front of it, which is skipped."""
    pos = 0
    while True:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            while src[pos].isspace():
                pos += 1
            raise ParseError(
                "bad character %r at position %d in %r" % (src[pos], pos, src))
        pos = m.end()


@lru_cache(maxsize=16)
def _variables(nvars: int) -> dict:
    """{"x0": 0, "x1": 1, ...}: the index of each variable's usual token."""
    return {"x%d" % j: j for j in range(nvars)}


def parse_poly(src: str, spec: FieldSpec, nvars: int) -> HomogPoly:
    """Parse a homogeneous polynomial; degree is inferred from the terms.

    The terms are checked as they are read, so the result is built without
    the constructor's second pass over them.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    r = _Reader(src, spec)
    toks = r.toks
    add, mul, neg, factor, exponent = r.add, r.mul, r.neg, r.factor, r.exponent
    variables = _variables(nvars)
    sums = {}
    get = sums.get
    i = 0
    negative = False
    first = True
    while True:
        tok = toks[i]
        if tok == "+" or tok == "-":
            negative ^= tok == "-"
            i += 1
            continue
        if tok is _END:
            raise (ParseError("empty polynomial text") if first
                   else r.end_of_input())
        # one term: factors joined by '*'
        coeff = 1
        exps = [0] * nvars
        while True:
            idx = variables.get(tok)
            if idx is None and tok[:1] == "x":
                idx = int(tok[1:])
                if idx >= nvars:
                    raise ParseError(
                        "variable %s out of range (nvars=%d) in %r"
                        % (tok, nvars, src))
            if idx is not None:
                power, i = exponent(i + 1)
                exps[idx] += power
            else:
                value, i = factor(i)
                coeff = mul(coeff, value)
            if toks[i] != "*":
                break
            i += 1
            tok = toks[i]
        exps = tuple(exps)
        sums[exps] = add(get(exps, 0), neg(coeff) if negative else coeff)
        negative = False
        first = False
        tok = toks[i]
        if tok is _END:
            break
        if tok != "+" and tok != "-":
            raise ParseError("expected + or - before %r at position %d in %r"
                             % (tok, r.where(i), src))
    terms = {e: v for e, v in zip(sums, map(r.finish, sums.values())) if v}
    if not terms:
        return HomogPoly.zero(spec, nvars, 0)
    degrees = set(map(sum, terms))
    if len(degrees) != 1:
        raise ParseError("polynomial is not homogeneous: %r" % (src,))
    return HomogPoly._from_terms(spec, nvars, degrees.pop(), terms)


def parse_point(src: str, spec: FieldSpec, nvars: int):
    """Comma-separated coordinate literals -> tuple of field values.

    Each coordinate is a signed product of coefficient factors, read with
    the polynomial grammar's factor; the whole text is one token list, so
    every error quotes the whole text and a position in it.
    """
    r = _Reader(src, spec)
    toks = r.toks
    count = toks.count(",") + 1
    if count != nvars:
        raise ParseError(
            "point has %d coordinates, expected %d" % (count, nvars))
    point = []
    i = 0
    while True:
        negative = False
        while toks[i] == "+" or toks[i] == "-":
            negative ^= toks[i] == "-"
            i += 1
        value, i = r.factor(i)
        while toks[i] == "*":
            more, i = r.factor(i + 1)
            value = r.mul(value, more)
        point.append(r.finish(r.neg(value) if negative else value))
        tok = toks[i]
        if tok is _END:
            return tuple(point)
        if tok != ",":
            raise ParseError("expected , after coordinate, got %r at "
                             "position %d in %r" % (tok, r.where(i), src))
        i += 1
