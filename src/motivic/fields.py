"""Exact coefficient arithmetic over Q, F_p, and F_{p^m} with p an odd prime.

Three kinds of base field share one element interface:

  * rationals()            -- Q, elements carried as reduced Fractions
  * prime_field(p)         -- F_p, elements carried as residues 0..p-1
  * extension_field(p, m)  -- F_{p^m} = F_p[t]/(modulus), elements carried as
                              indices 0..q-1: c_0 + c_1 t + ... with each
                              c_k reduced mod p has index sum(c_k * p^k)

So over every finite field an element's value is one int in [0, q): 0 is
zero, 1 is one, p is t, and the elements of F_p inside F_{p^m} are exactly
the values below p.  from_index(i) is the element of value i; elem encodes
a coefficient tuple and str decodes the digits to print them.

Characteristic 2 is rejected everywhere: the quadratic-form machinery built on
top divides by 2.  The extension modulus is monic, irreducible, and chosen
deterministically (smallest candidate by integer encoding sum(c_i * p^i)), so
two processes always agree on what F_{p^m} means.  Finite-field elements are
enumerable in a fixed order (by index), which downstream point searches
rely on for determinism.

Specs are interned: there is one FieldSpec object per field, so equality of
specs is identity.  extension_field(3, 2) and extension_field(3, 2, (1, 0, 1))
return the same object; elements of different fields never mix.  Each spec
builds its zero and one once, as plain attributes.

Over F_{p^m} with q <= _TABLE_LIMIT every operation is a lookup in one set
of O(q) index tables per spec, built on the first operation that needs
them, never at import: log and exp to the base g of the first primitive
element in index order (Lidl-Niederreiter, Finite Fields, ch. 2), the Zech
logarithms zech[d] = log(1 + g^d), so that g^a + g^b = g^(a + zech[b - a])
(Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 36, 1990), and
neg.  The lane kernel of motivic.count builds the matrices of its
constants from the same log and exp.  Larger extension fields keep the
same indices: they add and negate digit by digit, and multiply and invert
with the schoolbook product on the decoded digits.

A spec's value operations (_add, _mul, _pow, _neg, _inv, _is_square, the
row operations _scale and _axpy, _value, the value of anything elem accepts,
_encode, the index of a list of digits, and _str, the text of a value) act
on values rather than elements, and each serves every field.  They are the
one place that knows how the values of each field combine and print:
FieldElem's operators, motivic.linalg, the forms of motivic.poly, the
parser and the counting kernel run one path on plain values for every
field and build elements only at their edges.

A fraction a/b is an element of the prime field, over F_{p^m} as over F_p,
and one whose reduced denominator p divides is an error.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

# Extension fields up to this order get index tables; motivic.count
# tabulates fields up to the same order.
_TABLE_LIMIT = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomials mod p: coefficient lists, lowest degree first, with no trailing
# zeros, so [] is the zero polynomial


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mulmod(a, b, p):
    """a * b; as p is prime, no leading coefficient of a product vanishes."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def _remmod(a, b, p):
    """a mod b for nonzero b."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(a[:db])


def _irreducible(coeffs, p):
    """Trial division: no monic factor of degree 1..deg//2 divides coeffs."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            cand = [0] * (d + 1)
            cand[d] = 1
            c = code
            for i in range(d):
                cand[i] = c % p
                c //= p
            if not _remmod(coeffs, cand, p):
                return False
    return True


def _schoolbook_mul(spec, a, b):
    """Product of two F_{p^m} digit tuples, reduced by the modulus."""
    m, p = spec.m, spec.p
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    out = prod[:m]
    for k in range(m, 2 * m - 1):
        c = prod[k]
        if c:
            red = spec._tpowers[k - m]
            for i in range(m):
                out[i] = (out[i] + c * red[i]) % p
    return tuple(out)


def _schoolbook_pow(spec, a, e):
    acc = (1,) + (0,) * (spec.m - 1)
    while e:
        if e & 1:
            acc = _schoolbook_mul(spec, acc, a)
        a = _schoolbook_mul(spec, a, a)
        e >>= 1
    return acc


def _encode(digits, p) -> int:
    """The index sum(c_k * p^k) of the digits c_0, c_1, ..."""
    i = 0
    for c in reversed(digits):
        i = i * p + c
    return i


def _add_digitwise(p, a, b) -> int:
    """Index of the sum of two elements given by index: digits add mod p."""
    out, w = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + y) % p * w
        w *= p
    return out


def _neg_digitwise(p, a) -> int:
    out, w = 0, 1
    while a:
        a, x = divmod(a, p)
        out += (-x) % p * w
        w *= p
    return out


def build_extension(p: int, m: int):
    """Smallest monic irreducible of degree m over F_p, by integer encoding.

    Returns the modulus coefficient tuple (c_0, ..., c_{m-1}, 1).
    """
    if not _is_prime(p) or p == 2:
        raise ValueError("base characteristic must be an odd prime, got %r" % (p,))
    if m < 2:
        raise ValueError("extension degree must be at least 2, got %r" % (m,))
    for code in range(p**m):
        coeffs = [0] * (m + 1)
        coeffs[m] = 1
        c = code
        for i in range(m):
            coeffs[i] = c % p
            c //= p
        if coeffs[0] != 0 and _irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found (unreachable)")


class FieldSpec:
    """Identity of a coefficient field; also the factory for its elements.

    Do not call the constructor directly: use rationals(), prime_field(p), or
    extension_field(p, m), which validate and cache.
    """

    __slots__ = ("kind", "p", "m", "modulus", "order", "_tpowers",
                 "zero", "one", "_tables", "_add", "_mul", "_pow")

    def __init__(self, kind, p=0, m=1, modulus=None):
        self.kind = kind  # "Q" | "Fp" | "Fpm"
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m if kind != "Q" else 0
        # for Fpm: t^k for k in m..2m-2, reduced, as digit tuples
        self._tpowers = None
        if kind == "Fpm":
            red = []
            # t^m = -(c_0 + ... + c_{m-1} t^{m-1})
            base = [(-modulus[i]) % p for i in range(m)]
            cur = list(base)
            red.append(tuple(cur))
            for _ in range(m - 2):
                cur = [0] + cur  # multiply by t
                if len(cur) > m:
                    lead = cur.pop()
                    cur = [(cur[i] + lead * base[i]) % p for i in range(m)]
                red.append(tuple(cur))
            self._tpowers = tuple(red)
        # FieldElem is immutable, so every caller can share these two
        if kind == "Q":
            zero, one = Fraction(0), Fraction(1)
        else:
            zero, one = 0, 1
        self.zero = FieldElem(self, zero)
        self.one = FieldElem(self, one)
        self._tables = None
        # _add, _mul and _pow on values, a^e for e >= 0 with 0^0 = 1, bound
        # once for the field's kind
        if kind == "Fp":
            self._add = lambda a, b: (a + b) % p
            self._mul = lambda a, b: a * b % p
            self._pow = lambda a, e: pow(a, e, p)
        elif kind == "Q":
            self._add, self._mul, self._pow = operator.add, operator.mul, pow
        else:
            self._add, self._mul, self._pow = (
                self._ext_add, self._ext_mul, self._ext_pow)

    def _index_tables(self):
        """(log, exp, zech, neg) of F_{p^m}, built once, for q <= _TABLE_LIMIT.

        g is the first element in index order whose order is q - 1, found
        by testing g^((q-1)/r) != 1 for each prime r dividing q - 1.  With
        n = q - 1: exp[k] is the index of g^k for 0 <= k < 2n, so a sum of
        two logs indexes it without a reduction; log[i] is the exponent
        below n of the element of index i, None for i = 0; zech[d] is
        log(1 + g^d), None where 1 + g^d = 0, so that zech[log b - log a]
        serves a + b for any two nonzero a, b, a negative difference
        wrapping round as Python indexing does; neg[i] is the index of
        the negative.  Every table has O(q) entries.
        """
        if self._tables is None:
            q, p = self.order, self.p
            n = q - 1
            one = (1,) + (0,) * (self.m - 1)
            primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
            for i in range(2, q):
                g = self._digits(i)
                if all(_schoolbook_pow(self, g, n // r) != one for r in primes):
                    break
            else:
                raise AssertionError("no primitive element (unreachable)")
            exp = [1]
            x = one
            for _ in range(n - 1):
                x = _schoolbook_mul(self, x, g)
                exp.append(_encode(x, p))
            log = [None] * q
            for k, v in enumerate(exp):
                log[v] = k
            # 1 + x differs from x in its lowest digit only
            zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
            exp += exp
            # -1 is g^(n/2)
            neg = [0] + [exp[log[v] + n // 2] for v in range(1, q)]
            self._tables = (log, exp, zech, neg)
        return self._tables

    def _digits(self, i):
        """The m base-p digits of the index i, lowest first."""
        p = self.p
        out = []
        for _ in range(self.m):
            i, c = divmod(i, p)
            out.append(c)
        return tuple(out)

    # -- arithmetic on values ----------------------------------------------
    # A value is the residue or index of a finite-field element, the
    # Fraction of a rational.  Every operation below, and _add, _mul and
    # _pow (bound in __init__), serves every field.

    def _ext_add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        if self.order > _TABLE_LIMIT:
            return _add_digitwise(self.p, a, b)
        log, exp, zech, _ = self._tables or self._index_tables()
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def _neg(self, a):
        kind = self.kind
        if kind == "Fp":
            return -a % self.p
        if kind == "Q":
            return -a
        if self.order > _TABLE_LIMIT:
            return _neg_digitwise(self.p, a)
        return (self._tables or self._index_tables())[3][a]

    def _ext_mul(self, a, b):
        if not a or not b:
            return 0
        if self.order > _TABLE_LIMIT:
            return _encode(_schoolbook_mul(self, self._digits(a),
                                           self._digits(b)), self.p)
        log, exp = (self._tables or self._index_tables())[:2]
        return exp[log[a] + log[b]]

    def _ext_pow(self, a, e):
        if not e:
            return 1
        if not a:
            return 0
        if self.order > _TABLE_LIMIT:
            return _encode(_schoolbook_pow(self, self._digits(a), e), self.p)
        log, exp = (self._tables or self._index_tables())[:2]
        return exp[log[a] * e % (self.order - 1)]

    def _inv(self, a):
        """The inverse of a nonzero value."""
        kind = self.kind
        if kind == "Fp":
            return pow(a, self.p - 2, self.p)
        if kind == "Q":
            # exact for an int too, which a caller may pass for a rational
            return 1 / Fraction(a)
        if self.order > _TABLE_LIMIT:
            return self._pow(a, self.order - 2)
        log, exp = (self._tables or self._index_tables())[:2]
        return exp[self.order - 1 - log[a]]

    def _is_square(self, a) -> bool:
        """Whether the value a is a square: over Q a Fraction of square
        numerator and denominator, over F_q zero or a^((q-1)/2) = 1."""
        if self.kind == "Q":
            num, den = a.numerator, a.denominator
            return (num >= 0 and math.isqrt(num) ** 2 == num
                    and math.isqrt(den) ** 2 == den)
        return not a or self._pow(a, (self.order - 1) // 2) == 1

    def _scale(self, c, ys):
        """[c * y for y in ys] on values."""
        kind = self.kind
        if kind == "Fp":
            p = self.p
            return [c * y % p for y in ys]
        if kind == "Q":
            return [c * y for y in ys]
        if self.order > _TABLE_LIMIT:
            return [self._mul(c, y) for y in ys]
        log, exp = (self._tables or self._index_tables())[:2]
        lc = log[c]
        return [exp[lc + log[y]] if y else 0 for y in ys]

    def _axpy(self, xs, c, ys):
        """[x + c * y for x, y in zip(xs, ys)] on values, c nonzero."""
        kind = self.kind
        if kind == "Fp":
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        if kind == "Q":
            return [x + c * y for x, y in zip(xs, ys)]
        if self.order > _TABLE_LIMIT:
            return [self._add(x, self._mul(c, y)) for x, y in zip(xs, ys)]
        log, exp, zech, _ = self._tables or self._index_tables()
        n = self.order - 1
        lc = log[c]
        out = []
        for x, y in zip(xs, ys):
            if y:
                k = lc + log[y]  # c * y is g^k
                if x:
                    lx = log[x]
                    z = zech[(k - lx) % n]
                    x = 0 if z is None else exp[lx + z]
                else:
                    x = exp[k]
            out.append(x)
        return out

    def _encode(self, digits):
        """The index of c_0 + c_1 t + ... for at most m integer digits c_k,
        each reduced mod p."""
        p = self.p
        return _encode([c % p for c in digits], p)

    def _str(self, a) -> str:
        """The text of the element of value a: over F_{p^m} an element
        outside F_p prints as its t-polynomial in parentheses."""
        if self.kind == "Fpm" and a >= self.p:
            return "(" + _tpoly_str(self._digits(a)) + ")"
        return str(a)

    # -- identity ----------------------------------------------------------

    def __repr__(self):
        return "FieldSpec(%s)" % (self,)

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        return "F%d" % self.order

    @property
    def char(self) -> int:
        return self.p if self.kind != "Q" else 0

    @property
    def is_finite(self) -> bool:
        return self.kind != "Q"

    def describe(self):
        """JSON-friendly identity, including the modulus for extensions."""
        if self.kind == "Q":
            return {"kind": "rationals"}
        if self.kind == "Fp":
            return {"kind": "finite", "p": self.p, "m": 1}
        return {
            "kind": "finite",
            "p": self.p,
            "m": self.m,
            "modulus": _tpoly_str(self.modulus),
        }

    # -- element construction ----------------------------------------------

    def elem(self, x) -> "FieldElem":
        if type(x) is FieldElem and x.spec is self:
            return x
        return FieldElem(self, self._value(x))

    def _value(self, x):
        """The value of what elem accepts: an element of this field, an int,
        a Fraction, or over F_{p^m} a tuple of at most m integer digits."""
        if isinstance(x, FieldElem):
            if x.spec is not self:
                raise ValueError("element of %s used where %s expected" % (x.spec, self))
            return x.value
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError("denominator divisible by %d" % self.p)
            p = self.p
            return x.numerator * pow(x.denominator, p - 2, p) % p
        if self.kind == "Fp" or isinstance(x, int):
            return int(x) % self.p
        coeffs = [int(c) for c in x]
        if len(coeffs) > self.m:
            raise ValueError("coefficient tuple longer than extension degree")
        return self._encode(coeffs)

    def _point(self, x, nvars):
        """The point x as a tuple of nvars values, checked: over F_q each an
        int in [0, q) (an index over F_{p^m}), over Q a Fraction or an int,
        which becomes its Fraction.  Anything else is a ValueError."""
        try:
            x = tuple(x)
        except TypeError:
            raise ValueError("a point is a sequence of values, got %r"
                             % (x,)) from None
        if len(x) != nvars:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(x), nvars))
        for v in x:
            if self.kind == "Q":
                ok = type(v) is Fraction or type(v) is int
            else:
                ok = type(v) is int and 0 <= v < self.order
            if not ok:
                raise ValueError("%r is not a value of %s" % (v, self))
        if self.kind == "Q":
            return tuple(v if type(v) is Fraction else Fraction(v) for v in x)
        return x

    # -- finite enumeration (fixed order: ascending index) -------------------

    def from_index(self, i: int) -> "FieldElem":
        if not self.is_finite:
            raise ValueError("index enumeration needs a finite field")
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        return FieldElem(self, i)


@functools.lru_cache(maxsize=None)
def rationals() -> FieldSpec:
    return FieldSpec("Q")


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> FieldSpec:
    if not _is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    if p == 2:
        raise ValueError("characteristic 2 is not supported (division by 2 everywhere)")
    return FieldSpec("Fp", p=p)


@functools.lru_cache(maxsize=None)
def extension_field(p: int, m: int, modulus=None) -> FieldSpec:
    if modulus is None:
        modulus = build_extension(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_prime(p) or p == 2:
            raise ValueError("base characteristic must be an odd prime")
        if not _irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
    return _extension_spec(p, m, modulus)


@functools.lru_cache(maxsize=None)
def _extension_spec(p, m, modulus):
    """The one spec of F_p[t]/(modulus), however the modulus was given."""
    return FieldSpec("Fpm", p=p, m=m, modulus=modulus)


def field_from_text(text: str) -> FieldSpec:
    """Parse a field designator: 'Q', 'q', '5', or '3,2' for F_{3^2}."""
    text = text.strip()
    if text in ("Q", "q"):
        return rationals()
    parts = [s.strip() for s in text.split(",")]
    try:
        nums = [int(s) for s in parts]
    except ValueError:
        raise ValueError("bad field designator %r" % (text,)) from None
    if len(nums) == 1:
        return prime_field(nums[0])
    if len(nums) == 2:
        return extension_field(nums[0], nums[1])
    raise ValueError("bad field designator %r" % (text,))


def _tpoly_str(coeffs) -> str:
    """Compact t-polynomial like 1+2*t (no spaces), for any int sequence."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("t" if c == 1 else "%d*t" % c)
        else:
            parts.append("t^%d" % k if c == 1 else "%d*t^%d" % (c, k))
    return "+".join(parts) if parts else "0"


class FieldElem:
    """One field element; immutable, hashable, canonically represented."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.spec is not self.spec:
                raise ValueError(
                    "mixed fields: %s vs %s" % (self.spec, other.spec)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.elem(other)
        return NotImplemented

    # The ring operations take two elements of one spec object, the bulk of
    # all calls, without coercion, and combine their values through the
    # spec's value arithmetic.

    def __add__(self, other):
        s = self.spec
        if type(other) is not FieldElem or other.spec is not s:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return FieldElem(s, s._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        s = self.spec
        return FieldElem(s, s._neg(self.value))

    def __sub__(self, other):
        s = self.spec
        if type(other) is not FieldElem or other.spec is not s:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return FieldElem(s, s._add(self.value, s._neg(other.value)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        s = self.spec
        if type(other) is not FieldElem or other.spec is not s:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return FieldElem(s, s._mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self):
        s = self.spec
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %s" % s)
        return FieldElem(s, s._inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        s = self.spec
        return FieldElem(s, s._pow(self.value, e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.value == other.value and self.spec is other.spec

    def __hash__(self):
        return hash((self.spec, self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def frobenius(self) -> "FieldElem":
        """x -> x^p, the arithmetic Frobenius (finite fields only)."""
        s = self.spec
        if not s.is_finite:
            raise ValueError("Frobenius needs a finite field")
        if s.kind == "Fp":
            return self
        return self**s.p

    def __str__(self):
        return self.spec._str(self.value)

    def __repr__(self):
        return "%s:%s" % (self.spec, self)

