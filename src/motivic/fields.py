"""Exact coefficient arithmetic over Q, F_p, and F_{p^m} with p an odd prime.

Three kinds of base field share one element interface:

  * rationals()            -- Q, elements carried as reduced Fractions
  * prime_field(p)         -- F_p, elements carried as canonical residues 0..p-1
  * extension_field(p, m)  -- F_{p^m} = F_p[t]/(modulus), elements carried as
                              coefficient tuples (c_0, ..., c_{m-1}), low degree
                              first, each reduced mod p

Characteristic 2 is rejected everywhere: the quadratic-form machinery built on
top divides by 2.  The extension modulus is monic, irreducible, and chosen
deterministically (smallest candidate by integer encoding sum(c_i * p^i)), so
two processes always agree on what F_{p^m} means.  Finite-field elements are
enumerable in a fixed order (by the same integer encoding), which downstream
point searches rely on for determinism.

Specs are interned: there is one FieldSpec object per field, so equality of
specs is identity.  extension_field(3, 2) and extension_field(3, 2, (1, 0, 1))
return the same object; elements of different fields never mix.  Each spec
builds its zero and one once, as plain attributes, and element arithmetic
between two F_p elements works on the residues directly.

Over F_{p^m} with q <= _TABLE_LIMIT, products, inverses and powers go
through one log/antilog pair per spec, to the base of the first primitive
element in index order (Lidl-Niederreiter, Finite Fields, ch. 2).  The pair
is built on the first product, inverse or power that needs it, never at
import, and the point-count tables of motivic.count read the same pair.
Larger extension fields keep the schoolbook product on coefficient tuples
and invert as a^(q-2) with it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

# Extension fields up to this order get a log/antilog pair; motivic.count
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
    """Product of two F_{p^m} coefficient tuples, reduced by the modulus."""
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
    acc = spec.one.value
    while e:
        if e & 1:
            acc = _schoolbook_mul(spec, acc, a)
        a = _schoolbook_mul(spec, a, a)
        e >>= 1
    return acc


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
                 "zero", "one", "_logs")

    def __init__(self, kind, p=0, m=1, modulus=None):
        self.kind = kind  # "Q" | "Fp" | "Fpm"
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m if kind != "Q" else 0
        # for Fpm: t^k for k in m..2m-2, reduced, as coefficient tuples
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
        elif kind == "Fp":
            zero, one = 0, 1
        else:
            zero, one = (0,) * m, (1,) + (0,) * (m - 1)
        self.zero = FieldElem(self, zero)
        self.one = FieldElem(self, one)
        self._logs = None

    def _log_pair(self):
        """(log, antilog) of F_{p^m}, built once, for q <= _TABLE_LIMIT.

        g is the first element in index order whose order is q - 1, found
        by testing g^((q-1)/r) != 1 for each prime r dividing q - 1.
        antilog[k] is the tuple of g^k for 0 <= k < 2(q - 1), so a sum of
        two logs indexes it without a reduction; log maps every nonzero
        tuple to its exponent below q - 1 and the zero tuple to None.
        """
        if self._logs is None:
            n = self.order - 1
            one = self.one.value
            primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
            for i in range(2, self.order):
                g = self.from_index(i).value
                if all(_schoolbook_pow(self, g, n // r) != one for r in primes):
                    break
            else:
                raise AssertionError("no primitive element (unreachable)")
            antilog = [one]
            for _ in range(n - 1):
                antilog.append(_schoolbook_mul(self, antilog[-1], g))
            log = {v: k for k, v in enumerate(antilog)}
            log[self.zero.value] = None
            self._logs = (log, antilog + antilog)
        return self._logs

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
        if isinstance(x, FieldElem):
            if x.spec is not self:
                raise ValueError("element of %s used where %s expected" % (x.spec, self))
            return x
        if self.kind == "Q":
            return FieldElem(self, Fraction(x))
        if self.kind == "Fp":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ValueError("denominator divisible by %d" % self.p)
                v = x.numerator * pow(x.denominator, self.p - 2, self.p)
                return FieldElem(self, v % self.p)
            return FieldElem(self, int(x) % self.p)
        if isinstance(x, int):
            return FieldElem(self, (x % self.p,) + (0,) * (self.m - 1))
        coeffs = tuple(int(c) % self.p for c in x)
        if len(coeffs) > self.m:
            raise ValueError("coefficient tuple longer than extension degree")
        return FieldElem(self, coeffs + (0,) * (self.m - len(coeffs)))

    def gen(self) -> "FieldElem":
        """The residue class of t (extensions only)."""
        if self.kind != "Fpm":
            raise ValueError("no generator symbol over %s" % self)
        return self.elem((0, 1))

    # -- finite enumeration (fixed order: ascending integer encoding) -------

    def from_index(self, i: int) -> "FieldElem":
        if not self.is_finite:
            raise ValueError("index enumeration needs a finite field")
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        if self.kind == "Fp":
            return FieldElem(self, i)
        coeffs = []
        for _ in range(self.m):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElem(self, tuple(coeffs))

    def elements(self):
        for i in range(self.order):
            yield self.from_index(i)


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

    # The four ring operations first try two F_p elements of one spec
    # object, the bulk of all calls, on the residues alone.

    def __add__(self, other):
        s = self.spec
        if s.kind == "Fp" and type(other) is FieldElem and other.spec is s:
            return FieldElem(s, (self.value + other.value) % s.p)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if s.kind == "Q":
            return FieldElem(s, self.value + other.value)
        if s.kind == "Fp":
            return FieldElem(s, (self.value + other.value) % s.p)
        return FieldElem(
            s, tuple((a + b) % s.p for a, b in zip(self.value, other.value))
        )

    __radd__ = __add__

    def __neg__(self):
        s = self.spec
        if s.kind == "Fp":
            return FieldElem(s, (-self.value) % s.p)
        if s.kind == "Q":
            return FieldElem(s, -self.value)
        return FieldElem(s, tuple((-a) % s.p for a in self.value))

    def __sub__(self, other):
        s = self.spec
        if s.kind == "Fp" and type(other) is FieldElem and other.spec is s:
            return FieldElem(s, (self.value - other.value) % s.p)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        s = self.spec
        if type(other) is not FieldElem or other.spec is not s:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if s.kind == "Fp":
            return FieldElem(s, (self.value * other.value) % s.p)
        if s.kind == "Q":
            return FieldElem(s, self.value * other.value)
        if s.order > _TABLE_LIMIT:
            return FieldElem(s, _schoolbook_mul(s, self.value, other.value))
        log, antilog = s._logs or s._log_pair()
        a, b = log[self.value], log[other.value]
        if a is None or b is None:
            return s.zero
        return FieldElem(s, antilog[a + b])

    __rmul__ = __mul__

    def inverse(self):
        s = self.spec
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %s" % s)
        if s.kind == "Q":
            return FieldElem(s, 1 / self.value)
        if s.kind == "Fp":
            return FieldElem(s, pow(self.value, s.p - 2, s.p))
        if s.order > _TABLE_LIMIT:
            return FieldElem(s, _schoolbook_pow(s, self.value, s.order - 2))
        log, antilog = s._logs or s._log_pair()
        return FieldElem(s, antilog[s.order - 1 - log[self.value]])

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
        if s.kind == "Fp":
            return FieldElem(s, pow(self.value, e, s.p))
        if s.kind == "Fpm" and s.order <= _TABLE_LIMIT:
            if e == 0:
                return s.one
            log, antilog = s._logs or s._log_pair()
            a = log[self.value]
            if a is None:
                return s.zero
            return FieldElem(s, antilog[a * e % (s.order - 1)])
        acc = s.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.value == other.value and self.spec is other.spec

    def __hash__(self):
        return hash((self.spec, self.value))

    def is_zero(self) -> bool:
        return self.value == self.spec.zero.value

    def is_one(self) -> bool:
        return self.value == self.spec.one.value

    def __bool__(self):
        return not self.is_zero()

    def frobenius(self) -> "FieldElem":
        """x -> x^p, the arithmetic Frobenius (finite fields only)."""
        s = self.spec
        if not s.is_finite:
            raise ValueError("Frobenius needs a finite field")
        if s.kind == "Fp":
            return self
        return self**s.p

    def is_square(self) -> bool:
        s = self.spec
        if s.kind == "Q":
            v = self.value
            if v < 0:
                return False
            num, den = v.numerator, v.denominator
            rn, rd = _isqrt_exact(num), _isqrt_exact(den)
            return rn is not None and rd is not None
        if self.is_zero():
            return True
        return (self ** ((s.order - 1) // 2)).is_one()

    def __str__(self):
        if self.spec.kind == "Fpm":
            nonzero = [k for k, c in enumerate(self.value) if c]
            if not nonzero:
                return "0"
            if nonzero == [0]:
                return str(self.value[0])
            return "(" + _tpoly_str(self.value) + ")"
        return str(self.value)

    def __repr__(self):
        return "%s:%s" % (self.spec, self)


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None
