"""Text grammar for polynomials, scalars, and points.

Polynomials are sums of terms like ``3*x0^2*x1`` joined by ``+`` and ``-``;
whitespace never matters.  Coefficient literals are integers, fractions
``a/b``, or (over an extension field) t-polynomials such as ``t``, ``t^2``,
or the parenthesized form ``(1+2*t)``.  The printed form of every polynomial
in this package parses back to itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import FieldSpec
from .poly import HomogPoly

_TOKEN_RE = re.compile(r"\s*(x\d+|\d+|t|\^|\*|\+|-|/|\(|\)|,)")


class ParseError(ValueError):
    pass


def _tokenize(src: str):
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise ParseError(
                "bad character %r at position %d in %r" % (src[pos], pos, src)
            )
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


class _Stream:
    def __init__(self, toks, src):
        self.toks = toks
        self.i = 0
        self.src = src

    def where(self) -> int:
        """Character offset of the current token (end of input otherwise)."""
        if self.i < len(self.toks):
            return self.toks[self.i][1]
        return len(self.src)

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input in %r" % self.src)
        self.i += 1
        return t


def _parse_int(s: _Stream) -> int:
    pos = s.where()
    t = s.next()
    if not t.isdigit():
        raise ParseError(
            "expected number, got %r at position %d in %r" % (t, pos, s.src)
        )
    return int(t)


def _parse_tpoly(s: _Stream, spec: FieldSpec):
    """Sum of integer/t terms up to the matching ')' (already consumed '(')."""
    acc = spec.zero
    sign = 1
    expect_term = True
    while True:
        t = s.peek()
        if t == ")":
            s.next()
            if expect_term:
                raise ParseError("dangling sign in t-literal in %r" % s.src)
            return acc
        if t in ("+", "-"):
            s.next()
            if t == "-":
                sign = -sign
            continue
        coeff = 1
        power = 0
        if t is not None and t.isdigit():
            coeff = _parse_int(s)
            if s.peek() == "*":
                s.next()
                if s.peek() != "t":
                    raise ParseError("expected t after * in t-literal in %r" % s.src)
        if s.peek() == "t":
            s.next()
            power = 1
            if s.peek() == "^":
                s.next()
                power = _parse_int(s)
        elif power == 0 and not str(coeff).isdigit():
            raise ParseError("empty term in t-literal in %r" % s.src)
        term = spec.elem(coeff) * (spec.gen() ** power if power else spec.one)
        acc = acc + (term if sign > 0 else -term)
        sign = 1
        expect_term = False


def _parse_scalar_factor(s: _Stream, spec: FieldSpec):
    """One coefficient factor: integer, fraction, t, t^k, or (t-poly)."""
    t = s.peek()
    if t == "(":
        if spec.kind != "Fpm":
            raise ParseError("t-literals need an extension field, not %s" % spec)
        s.next()
        return _parse_tpoly(s, spec)
    if t == "t":
        if spec.kind != "Fpm":
            raise ParseError("t-literals need an extension field, not %s" % spec)
        s.next()
        power = 1
        if s.peek() == "^":
            s.next()
            power = _parse_int(s)
        return spec.gen() ** power
    if t is not None and t.isdigit():
        num = _parse_int(s)
        if s.peek() == "/":
            s.next()
            den = _parse_int(s)
            if den == 0:
                raise ParseError("zero denominator in %r" % s.src)
            return spec.elem(Fraction(num, den))
        return spec.elem(num)
    raise ParseError(
        "expected coefficient, got %r at position %d in %r" % (t, s.where(), s.src)
    )


def _parse_term(s: _Stream, spec: FieldSpec, nvars: int):
    """Product of factors; returns (coefficient, exponent tuple)."""
    coeff = spec.one
    exps = [0] * nvars
    while True:
        t = s.peek()
        if t is not None and t.startswith("x"):
            s.next()
            idx = int(t[1:])
            if idx >= nvars:
                raise ParseError(
                    "variable %s out of range (nvars=%d) in %r" % (t, nvars, s.src)
                )
            power = 1
            if s.peek() == "^":
                s.next()
                power = _parse_int(s)
            exps[idx] += power
        else:
            coeff = coeff * _parse_scalar_factor(s, spec)
        if s.peek() == "*":
            s.next()
            continue
        return coeff, tuple(exps)


def parse_poly(src: str, spec: FieldSpec, nvars: int) -> HomogPoly:
    """Parse a homogeneous polynomial; degree is inferred from the terms.

    The terms are checked as they are read, so the result is built without
    the constructor's second pass over them.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    s = _Stream(_tokenize(src), src)
    if s.peek() is None:
        raise ParseError("empty polynomial text")
    acc = {}
    zero = spec.zero
    sign = 1
    first = True
    while True:
        t = s.peek()
        if t is None:
            if first:
                raise ParseError("empty polynomial text")
            break
        if t in ("+", "-"):
            s.next()
            if t == "-":
                sign = -sign
            continue
        coeff, exps = _parse_term(s, spec, nvars)
        term = coeff if sign > 0 else -coeff
        cur = acc.get(exps, zero) + term
        if cur.is_zero():
            acc.pop(exps, None)
        else:
            acc[exps] = cur
        sign = 1
        first = False
        nxt = s.peek()
        if nxt is None:
            break
        if nxt not in ("+", "-"):
            raise ParseError(
                "expected + or - before %r at position %d in %r"
                % (nxt, s.where(), src)
            )
    if not acc:
        return HomogPoly.zero(spec, nvars, 0)
    degrees = {sum(e) for e in acc}
    if len(degrees) != 1:
        raise ParseError("polynomial is not homogeneous: %r" % (src,))
    return HomogPoly._from_terms(spec, nvars, degrees.pop(), acc)


def parse_scalar(src: str, spec: FieldSpec):
    """Parse one field element literal (optionally signed)."""
    s = _Stream(_tokenize(src), src)
    sign = 1
    while s.peek() in ("+", "-"):
        if s.next() == "-":
            sign = -sign
    val = _parse_scalar_factor(s, spec)
    while s.peek() == "*":
        s.next()
        val = val * _parse_scalar_factor(s, spec)
    if s.peek() is not None:
        raise ParseError("trailing junk in scalar %r" % (src,))
    return val if sign > 0 else -val


def parse_point(src: str, spec: FieldSpec, nvars: int):
    """Comma-separated scalar literals -> coordinate tuple."""
    parts = []
    depth = 0
    cur = []
    for ch in src:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if len(parts) != nvars:
        raise ParseError(
            "point has %d coordinates, expected %d" % (len(parts), nvars)
        )
    return tuple(parse_scalar(p, spec) for p in parts)
