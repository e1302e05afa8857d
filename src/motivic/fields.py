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
"""

from __future__ import annotations

import functools
from fractions import Fraction


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
# dense F_p[t] helpers on plain int lists (low degree first, no trailing zeros)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    # b must be nonzero; returns (quotient, remainder)
    a = list(a)
    _poly_trim(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lb) % p
        q[shift] = factor
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - factor * b[i]) % p
        _poly_trim(a)
    return q, a


def _poly_invert(a, modulus, p):
    # extended Euclid in F_p[t]; a must be nonzero mod modulus
    r0, r1 = list(modulus), _poly_trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1, p)
        new_s = [0] * max(len(s0), len(qs))
        for i, v in enumerate(s0):
            new_s[i] = v
        for i, v in enumerate(qs):
            new_s[i] = (new_s[i] - v) % p
        s0, s1 = s1, _poly_trim(new_s)
    # r0 is now gcd = nonzero constant
    c_inv = pow(r0[0], p - 2, p)
    return [(v * c_inv) % p for v in s0]


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
            _, rem = _poly_divmod(list(coeffs), cand, p)
            if not rem:
                return False
    return True


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

    __slots__ = ("kind", "p", "m", "modulus", "order", "_tpowers")

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

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.m, self.modulus))

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
            if x.spec != self:
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

    @property
    def zero(self) -> "FieldElem":
        return self.elem(0)

    @property
    def one(self) -> "FieldElem":
        return self.elem(1)

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

    def index(self, a: "FieldElem") -> int:
        if a.spec != self:
            raise ValueError("element of %s used where %s expected" % (a.spec, self))
        if self.kind == "Fp":
            return a.value
        code = 0
        for c in reversed(a.value):
            code = code * self.p + c
        return code

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
            if other.spec != self.spec:
                raise ValueError(
                    "mixed fields: %s vs %s" % (self.spec, other.spec)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.elem(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s = self.spec
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
        if s.kind == "Q":
            return FieldElem(s, -self.value)
        if s.kind == "Fp":
            return FieldElem(s, (-self.value) % s.p)
        return FieldElem(s, tuple((-a) % s.p for a in self.value))

    def __sub__(self, other):
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s = self.spec
        if s.kind == "Q":
            return FieldElem(s, self.value * other.value)
        if s.kind == "Fp":
            return FieldElem(s, (self.value * other.value) % s.p)
        m, p = s.m, s.p
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(self.value):
            if a:
                for j, b in enumerate(other.value):
                    prod[i + j] = (prod[i + j] + a * b) % p
        out = list(prod[:m])
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                red = s._tpowers[k - m]
                for i in range(m):
                    out[i] = (out[i] + c * red[i]) % p
        return FieldElem(s, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        s = self.spec
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %s" % s)
        if s.kind == "Q":
            return FieldElem(s, 1 / self.value)
        if s.kind == "Fp":
            return FieldElem(s, pow(self.value, s.p - 2, s.p))
        inv = _poly_invert(list(self.value), list(s.modulus), s.p)
        return FieldElem(s, tuple(inv) + (0,) * (s.m - len(inv)))

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
        acc = self.spec.one
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
        return self.spec == other.spec and self.value == other.value

    def __hash__(self):
        return hash((self.spec, self.value))

    def is_zero(self) -> bool:
        if self.spec.kind == "Fpm":
            return all(c == 0 for c in self.value)
        return self.value == 0

    def is_one(self) -> bool:
        return self == self.spec.one

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
