"""Sparse homogeneous polynomials over the package's fields.

A HomogPoly is a dict from exponent tuples to nonzero coefficients, tagged
with its field, variable count, and degree.  The zero polynomial keeps an
explicit degree so that arithmetic stays well-typed.  Term order everywhere is
graded lexicographic, which for a fixed degree is plain lexicographic on
exponent tuples, largest first; that order fixes the leading coefficient, the
printed form, and every deterministic tie-break downstream.
"""

from __future__ import annotations

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


class HomogPoly:
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
    def zero(cls, spec, nvars, degree) -> "HomogPoly":
        return cls(spec, nvars, degree, {})

    @classmethod
    def monomial(cls, spec, nvars, exps, coeff=1) -> "HomogPoly":
        exps = tuple(exps)
        return cls(spec, nvars, sum(exps), {exps: coeff})

    @classmethod
    def variable(cls, spec, nvars, i) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(spec, nvars, 1, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in canonical order (graded-lex, leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

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
            acc = terms.get(e, self.spec.zero) + c
            if acc.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = acc
        return HomogPoly(self.spec, self.nvars, degree, terms)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(
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
        return HomogPoly(
            self.spec,
            self.nvars,
            self.degree,
            {e: v * c for e, v in self.terms.items()},
        )

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_like(other)
        terms = {}
        z = self.spec.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e, z) + c1 * c2
                if acc.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        return HomogPoly(self.spec, self.nvars, self.degree + other.degree, terms)

    def power(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomogPoly(self.spec, self.nvars, 0, {(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

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
        new_n = M.ncols
        rows = [
            HomogPoly(self.spec, new_n, 1, {
                tuple(1 if k == j else 0 for k in range(new_n)): M.rows[i][j]
                for j in range(new_n)
                if not M.rows[i][j].is_zero()
            })
            for i in range(self.nvars)
        ]
        out = HomogPoly.zero(self.spec, new_n, self.degree)
        for exps, coeff in self.terms.items():
            piece = HomogPoly(self.spec, new_n, 0, {(0,) * new_n: coeff})
            for i, e in enumerate(exps):
                if e:
                    piece = piece * rows[i].power(e)
            out = out + piece
        return out

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
        return HomogPoly(self.spec, self.nvars, max(self.degree - 1, 0), terms)

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
            HomogPoly(self.spec, self.nvars, self.degree - k, buckets[k])
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
        return HomogPoly(self.spec, self.nvars - 1, self.degree, terms)

    def insert_variable(self, i: int) -> "HomogPoly":
        """Add a fresh unused variable slot at position i (others shift up)."""
        if not 0 <= i <= self.nvars:
            raise ValueError("bad position")
        terms = {e[:i] + (0,) + e[i:]: c for e, c in self.terms.items()}
        return HomogPoly(self.spec, self.nvars + 1, self.degree, terms)

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
        return HomogPoly(self.spec, new_nvars, self.degree, terms)

    def __str__(self):
        return _render_terms(self.sorted_terms(), self.spec)

    def __repr__(self):
        return "HomogPoly(%s, n=%d, d=%d: %s)" % (
            self.spec,
            self.nvars,
            self.degree,
            self,
        )


def _render_terms(sorted_terms, spec) -> str:
    """Canonical printer; minus signs only show up over Q."""
    if not sorted_terms:
        return "0"
    pieces = []
    for exps, coeff in sorted_terms:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x%d" % i)
            elif e > 1:
                factors.append("x%d^%d" % (i, e))
        negative = spec.kind == "Q" and coeff.value < 0
        mag = -coeff if negative else coeff
        if not factors or not mag.is_one():
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append("-" + text if negative else text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)
