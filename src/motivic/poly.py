"""Sparse homogeneous polynomials over the package's fields.

A HomogPoly is a dict from exponent tuples to nonzero coefficients, tagged
with its field, variable count, and degree.  The zero polynomial keeps an
explicit degree so that arithmetic stays well-typed.  Term order everywhere is
graded lexicographic, which for a fixed degree is plain lexicographic on
exponent tuples, largest first; that order fixes the leading coefficient, the
printed form, and every deterministic tie-break downstream.

Every product of forms (*, power, HomogPoly.product and the row powers of
linear_substitute) takes one packed path, _Packing: exponent tuples become
integer codes whose sums are the codes of product monomials, coefficients
stay raw residues over F_p, and the result becomes a HomogPoly once, at the
end.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul

from .fields import FieldElem, FieldSpec
from .linalg import Matrix

def _validated_terms(spec, nvars, degree, terms):
    out = {}
    for exps, coeff in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple %r" % (exps,))
        if sum(exps) != degree:
            raise ValueError(
                "term %r has degree %d, expected %d" % (exps, sum(exps), degree)
            )
        c = spec.elem(coeff)
        if not c.is_zero():
            out[exps] = c
    return out


class _Packing:
    """Forms in nvars variables of degree at most `degree` as packed dicts.

    A packed form maps the code sum(e_i * base^i) of each exponent tuple e,
    with base = degree + 1, to its coefficient.  No exponent of a product
    exceeds its degree, so the code of a product monomial is the sum of
    the codes of its factors, and every product of forms is a convolution
    of packed dicts.  Over F_p coefficients are raw residues, reduced once
    per product; over F_{p^m} and Q they are FieldElems.  unpack turns the
    final dict back into a HomogPoly.
    """

    __slots__ = ("spec", "nvars", "base", "weights", "p", "one")

    def __init__(self, spec, nvars, degree):
        self.spec = spec
        self.nvars = nvars
        self.base = degree + 1
        self.weights = [self.base**i for i in range(nvars)]
        self.p = spec.p if spec.kind == "Fp" else None
        self.one = {0: 1 if self.p else spec.one}

    def pack(self, f) -> dict:
        w = self.weights
        if self.p:
            return {sum(map(mul, e, w)): c.value for e, c in f.terms.items()}
        return {sum(map(mul, e, w)): c for e, c in f.terms.items()}

    def pack_linear(self, row) -> dict:
        """The linear form sum(row[j] * x_j)."""
        return {w: (c.value if self.p else c)
                for w, c in zip(self.weights, row) if not c.is_zero()}

    def _convolve(self, acc, left, right):
        """acc[k1 + k2] += v1 * v2 over all pairs, unreduced over F_p."""
        right = list(right.items())
        get = acc.get
        if self.p:
            for k1, v1 in left:
                for k2, v2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
            return
        for k1, v1 in left:
            for k2, v2 in right:
                k = k1 + k2
                prod = v1 * v2
                prev = get(k)
                acc[k] = prod if prev is None else prev + prod

    def add_product(self, acc, a, b, c):
        """acc += c * a * b for a FieldElem c, unreduced over F_p."""
        if self.p:
            c = c.value
        self._convolve(acc, [(k, v * c) for k, v in a.items()], b)

    def reduce(self, acc) -> dict:
        """acc without zero coefficients, residues reduced mod p."""
        p = self.p
        if not p:
            return {k: c for k, c in acc.items() if not c.is_zero()}
        out = {}
        for k, v in acc.items():
            v %= p
            if v:
                out[k] = v
        return out

    def mul(self, a, b) -> dict:
        acc = {}
        self._convolve(acc, a.items(), b)
        return self.reduce(acc)

    def power(self, a, k) -> dict:
        out = self.one
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def unpack(self, packed, degree) -> "HomogPoly":
        spec, base, weights = self.spec, self.base, self.weights
        # a code splits into its low half digits and the rest; each half
        # is decoded once per distinct value
        half = self.nvars // 2
        split = base**half
        low_w, high_w = weights[:half], weights[:self.nvars - half]
        lows, highs = {}, {}
        terms = {}
        for k, c in packed.items():
            hk, lk = divmod(k, split)
            lo = lows.get(lk)
            if lo is None:
                lo = lows[lk] = tuple([lk // w % base for w in low_w])
            hi = highs.get(hk)
            if hi is None:
                hi = highs[hk] = tuple([hk // w % base for w in high_w])
            terms[lo + hi] = FieldElem(spec, c) if self.p else c
        return HomogPoly._from_terms(spec, self.nvars, degree, terms)


class HomogPoly:
    """A homogeneous form; see the module docstring for the representation.

    The constructor validates its input: exponent tuples of the right length
    and degree, coefficients coerced into the field, zeros dropped.  Ring
    operations on valid polynomials give valid results by construction, so
    they build those through _from_terms, which stores the dict it is given.
    """

    __slots__ = ("spec", "nvars", "degree", "terms")

    def __init__(self, spec: FieldSpec, nvars: int, degree: int, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("negative degree")
        self.spec = spec
        self.nvars = nvars
        self.degree = degree
        self.terms = _validated_terms(spec, nvars, degree, terms)

    @classmethod
    def _from_terms(cls, spec, nvars, degree, terms) -> "HomogPoly":
        """No checks: terms maps exponent tuples of length nvars and sum
        degree to nonzero elements of spec, and becomes the result's own."""
        f = object.__new__(cls)
        f.spec = spec
        f.nvars = nvars
        f.degree = degree
        f.terms = terms
        return f

    @classmethod
    def zero(cls, spec, nvars, degree) -> "HomogPoly":
        return cls(spec, nvars, degree, {})

    @classmethod
    def variable(cls, spec, nvars, i) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(spec, nvars, 1, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in canonical order (graded-lex, leading term first)."""
        return sorted(self.terms.items(), key=itemgetter(0), reverse=True)

    def leading_coefficient(self) -> FieldElem:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.sorted_terms()[0][1]

    def monic(self) -> "HomogPoly":
        return self.scale(self.leading_coefficient().inverse())

    def coefficient_of(self, exps) -> FieldElem:
        return self.terms.get(tuple(exps), self.spec.zero)

    def canonical_key(self):
        """Hashable structural identity (field, shape, ordered terms)."""
        return (
            self.spec,
            self.nvars,
            self.degree,
            tuple((e, c.value) for e, c in self.sorted_terms()),
        )

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.spec == other.spec
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.canonical_key())

    # -- ring operations ----------------------------------------------------

    def _check_like(self, other):
        if self.spec != other.spec or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_like(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("degree mismatch in sum of forms")
        degree = other.degree if self.is_zero() else self.degree
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            if prev is None:
                terms[e] = c
                continue
            acc = prev + c
            if acc.is_zero():
                del terms[e]
            else:
                terms[e] = acc
        return HomogPoly._from_terms(self.spec, self.nvars, degree, terms)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly._from_terms(
            self.spec,
            self.nvars,
            self.degree,
            {e: -c for e, c in self.terms.items()},
        )

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def scale(self, c) -> "HomogPoly":
        c = self.spec.elem(c)
        if c.is_zero():
            return HomogPoly.zero(self.spec, self.nvars, self.degree)
        # a product of two nonzero field elements is nonzero
        return HomogPoly._from_terms(
            self.spec,
            self.nvars,
            self.degree,
            {e: v * c for e, v in self.terms.items()},
        )

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        return HomogPoly.product((self, other))

    @classmethod
    def product(cls, polys) -> "HomogPoly":
        """f_1 * ... * f_d for d >= 1 forms of one ring, expanded once."""
        polys = tuple(polys)
        if not polys:
            raise ValueError("a product needs at least one factor")
        first = polys[0]
        for g in polys[1:]:
            first._check_like(g)
        degree = sum(g.degree for g in polys)
        packing = _Packing(first.spec, first.nvars, degree)
        acc = packing.pack(first)
        for g in polys[1:]:
            acc = packing.mul(acc, packing.pack(g))
        return packing.unpack(acc, degree)

    def power(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        packing = _Packing(self.spec, self.nvars, k * self.degree)
        return packing.unpack(packing.power(packing.pack(self), k),
                              k * self.degree)

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, point) -> FieldElem:
        if len(point) != self.nvars:
            raise ValueError("point length != nvars")
        pt = [self.spec.elem(x) for x in point]
        acc = self.spec.zero
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(pt, exps):
                if e:
                    val = val * x**e
            acc = acc + val
        return acc

    def linear_substitute(self, M: Matrix) -> "HomogPoly":
        """f(M x): variable x_i becomes the linear form given by row i of M.

        M may be rectangular (nvars rows, any column count); the result lives
        in M.ncols variables.
        """
        if M.spec != self.spec:
            raise ValueError("matrix over wrong field")
        if M.nrows != self.nvars:
            raise ValueError("matrix must have one row per variable")
        packing = _Packing(self.spec, M.ncols, self.degree)
        rows = [packing.pack_linear(row) for row in M.rows]
        powers = {}
        prefixes = {}

        def row_power(i, e):
            power = powers.get((i, e))
            if power is None:
                power = powers[i, e] = packing.power(rows[i], e)
            return power

        # products of row powers are shared by the monomials that start
        # alike; the last factor of each monomial goes straight into the sum
        acc = {}
        for exps, coeff in self.terms.items():
            factors = tuple((i, e) for i, e in enumerate(exps) if e)
            piece = packing.one
            for n in range(1, len(factors)):
                cached = prefixes.get(factors[:n])
                if cached is None:
                    cached = prefixes[factors[:n]] = packing.mul(
                        piece, row_power(*factors[n - 1]))
                piece = cached
            last = row_power(*factors[-1]) if factors else packing.one
            packing.add_product(acc, piece, last, coeff)
        return packing.unpack(packing.reduce(acc), self.degree)

    def partial_derivative(self, i: int) -> "HomogPoly":
        if not 0 <= i < self.nvars:
            raise ValueError("no such variable")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            c = coeff * e
            if not c.is_zero():
                terms[tuple(new)] = c
        return HomogPoly._from_terms(self.spec, self.nvars,
                                     max(self.degree - 1, 0), terms)

    def split_by_variable(self, i: int):
        """Write f = sum_k x_i^k * f_k; returns (f_0, ..., f_degree).

        Each f_k is free of x_i, kept in the same variable count, homogeneous
        of degree(f) - k.
        """
        if not 0 <= i < self.nvars:
            raise ValueError("no such variable")
        buckets = [dict() for _ in range(self.degree + 1)]
        for exps, coeff in self.terms.items():
            k = exps[i]
            new = list(exps)
            new[i] = 0
            buckets[k][tuple(new)] = coeff
        return [
            HomogPoly._from_terms(self.spec, self.nvars, self.degree - k,
                                  buckets[k])
            for k in range(self.degree + 1)
        ]

    def uses_variable(self, i: int) -> bool:
        return any(e[i] for e in self.terms)

    def drop_variable(self, i: int) -> "HomogPoly":
        """Remove an unused variable slot (error if x_i actually occurs)."""
        if self.uses_variable(i):
            raise ValueError("variable x%d occurs; cannot drop" % i)
        if self.nvars < 2:
            raise ValueError("cannot drop the last variable")
        terms = {e[:i] + e[i + 1 :]: c for e, c in self.terms.items()}
        return HomogPoly._from_terms(self.spec, self.nvars - 1, self.degree,
                                     terms)

    def insert_variable(self, i: int) -> "HomogPoly":
        """Add a fresh unused variable slot at position i (others shift up)."""
        if not 0 <= i <= self.nvars:
            raise ValueError("bad position")
        terms = {e[:i] + (0,) + e[i:]: c for e, c in self.terms.items()}
        return HomogPoly._from_terms(self.spec, self.nvars + 1, self.degree,
                                     terms)

    def remap_variables(self, mapping, new_nvars: int) -> "HomogPoly":
        """Relabel variables: old index i becomes mapping[i] (injective).

        Every variable actually used must be mapped.
        """
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(exps):
                if e:
                    if i not in mapping:
                        raise ValueError("variable x%d is used but not mapped" % i)
                    new[mapping[i]] = e
            terms[tuple(new)] = coeff
        return HomogPoly._from_terms(self.spec, new_nvars, self.degree, terms)

    def __str__(self):
        return _render_terms(self.sorted_terms(), self.spec)

    def __repr__(self):
        return "HomogPoly(%s, n=%d, d=%d: %s)" % (
            self.spec,
            self.nvars,
            self.degree,
            self,
        )


@lru_cache(maxsize=64)
def _power_names(nvars, degree):
    """names[i][e] is the text of x_i^e, built once per shape of form."""
    return tuple(("", "x%d" % i) + tuple("x%d^%d" % (i, e)
                                         for e in range(2, degree + 1))
                 for i in range(nvars))


def _render_terms(sorted_terms, spec) -> str:
    """Canonical printer; minus signs only show up over Q."""
    if not sorted_terms:
        return "0"
    first = sorted_terms[0][0]
    names = _power_names(len(first), sum(first))
    signed = spec.kind == "Q"
    pieces = []
    for exps, coeff in sorted_terms:
        factors = [row[e] for row, e in zip(names, exps) if e]
        negative = signed and coeff.value < 0
        mag = -coeff if negative else coeff
        if not factors or not mag.is_one():
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append("-" + text if negative else text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)
