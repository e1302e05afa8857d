"""Sparse homogeneous polynomials over the package's fields.

A HomogPoly is a dict from exponent tuples to the nonzero values of its
coefficients (see motivic.fields), tagged with its field, variable count,
and degree; every operation combines the values through the field's value
arithmetic.  A FieldElem is built only by terms, the one accessor that
hands elements out, which the benchmark under perfbench/ reads; evaluate
takes a point as a tuple of values and returns a value.  The zero
polynomial keeps an explicit degree so that arithmetic stays well-typed.
Term order everywhere is graded lexicographic, which for a fixed degree
is plain lexicographic on exponent tuples, largest first; that order
fixes the leading coefficient, the printed form, and every deterministic
tie-break downstream.

Every product of forms (*, HomogPoly.product and the row powers of
linear_substitute) takes one packed path, _Packing: exponent tuples become
integer codes whose sums are the codes of product monomials, and the
result becomes a HomogPoly once, at the end.  Every form prints through
one printer, _Packing.text, on those codes: str() packs a form's
exponents, and HomogPoly.product_text prints a product straight from its
codes, without the HomogPoly.  The printer reads each monomial's text from
a table kept per (variables, degree) and keyed by code (_monomial_table),
built in bulk one variable at a time when a text fills at least a quarter
of its shape; the tables share one entry budget.  A sparser text joins
the powers of the exponents its codes decode to instead (_power_names).
Over a finite field every coefficient prints from a list of coefficient
texts kept per field (_prefixes); over Q the printer puts each term's
sign between the terms.  A form keeps its text once it is printed.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .fields import _TABLE_LIMIT, FieldElem, FieldSpec
from .linalg import Matrix

def _validated_terms(spec, nvars, degree, terms):
    """The dict of nonzero values of terms, each exponent tuple checked
    against nvars and degree and each coefficient by FieldSpec._checked."""
    out = {}
    for exps, coeff in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple %r" % (exps,))
        if sum(exps) != degree:
            raise ValueError(
                "term %r has degree %d, expected %d" % (exps, sum(exps), degree)
            )
        c = spec._checked(coeff)
        if c:
            out[exps] = c
    return out


class _Packing:
    """Forms in nvars variables of degree at most `degree` as packed dicts.

    A packed form maps the code sum(e_i * base^(nvars-1-i)) of each exponent
    tuple e, with base = degree + 1, to its coefficient: the digits of a
    code, most significant first, are the exponents of x0, x1, ...  No
    exponent of a product exceeds its degree, so the code of a product
    monomial is the sum of the codes of its factors, and every product of
    forms is a convolution of packed dicts.  Codes of one degree order like
    their exponent tuples, so descending codes are the canonical term order.
    Coefficients are the forms' own values: over F_p residues, summed
    unreduced and reduced mod p once per product, over Q Fractions, over
    F_{p^m} indices combined by the spec's _add and _mul.  unpack turns the
    final dict back into a HomogPoly, and text prints it.
    """

    __slots__ = ("spec", "nvars", "base", "weights", "p", "one")

    def __init__(self, spec, nvars, degree):
        self.spec = spec
        self.nvars = nvars
        self.base = degree + 1
        self.weights = [self.base**i for i in reversed(range(nvars))]
        self.p = spec.p if spec.kind == "Fp" else 0
        self.one = {0: spec.one}

    def pack(self, f) -> dict:
        w = self.weights
        return {sum(map(mul, e, w)): c for e, c in f.coeffs.items()}

    def pack_linear(self, row) -> dict:
        """The linear form sum(row[j] * x_j) of a row of values."""
        return {w: c for w, c in zip(self.weights, row) if c}

    def _convolve(self, acc, left, right):
        """acc[k1 + k2] += v1 * v2 over all pairs: through Python's + and *
        on residues (unreduced) over F_p and Fractions over Q, through the
        spec's value arithmetic over F_{p^m}."""
        right = list(right.items())
        get = acc.get
        if self.spec.kind != "Fpm":
            for k1, v1 in left:
                for k2, v2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
            return
        add, times = self.spec._add, self.spec._mul
        for k1, v1 in left:
            for k2, v2 in right:
                k = k1 + k2
                acc[k] = add(get(k, 0), times(v1, v2))

    def add_product(self, acc, a, b, c):
        """acc += c * a * b for a nonzero value c, unreduced over F_p."""
        self._convolve(acc, zip(a, self.spec._scale(c, a.values())), b)

    def reduce(self, acc) -> dict:
        """acc without zero coefficients, residues reduced mod p."""
        p = self.p
        if not p:
            return {k: c for k, c in acc.items() if c}
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

    def _exponents(self, codes):
        """The exponent tuple of each code.

        A code splits into its high half, the digits of x0..x_{h-1} with
        h = nvars - nvars // 2, and its low half, those of the other
        nvars // 2 variables; each distinct half is decoded once per call.
        """
        base, weights = self.base, self.weights
        nlow = self.nvars // 2
        split = base**nlow
        high_w, low_w = weights[nlow:], weights[self.nvars - nlow:]
        highs, lows = {}, {}
        out = []
        for k in codes:
            hk, lk = divmod(k, split)
            hi = highs.get(hk)
            if hi is None:
                hi = highs[hk] = tuple([hk // w % base for w in high_w])
            lo = lows.get(lk)
            if lo is None:
                lo = lows[lk] = tuple([lk // w % base for w in low_w])
            out.append(hi + lo)
        return out

    def unpack(self, packed, degree) -> "HomogPoly":
        return HomogPoly._from_terms(
            self.spec, self.nvars, degree,
            dict(zip(self._exponents(packed), packed.values())))

    def text(self, packed) -> str:
        """str() of the unpacked form, printed from the codes: each
        monomial's text comes from the kept table of its shape
        (_monomial_table) when the form fills enough of that shape, and
        otherwise joins the powers of its exponents (_exponents)."""
        codes = sorted(packed, reverse=True)
        table = _monomial_table(self.nvars, self.base - 1, len(codes))
        if table is None:
            names = _power_names(self.nvars)
            monomials = ["*".join([row[e] for row, e in zip(names, exps) if e])
                         for exps in self._exponents(codes)]
        else:
            monomials = map(table.__getitem__, codes)
        return _join_terms(zip(monomials, map(packed.__getitem__, codes)),
                           self.spec)


class HomogPoly:
    """A homogeneous form; see the module docstring for the representation.

    The constructor validates its input: exponent tuples of the right length
    and degree, coefficients checked by FieldSpec._checked, zeros dropped.
    Ring operations on valid polynomials give valid results by
    construction, so they build those through _from_terms, which stores
    the dict of values it is given.
    A form is never changed once built, so str() fills the _text slot the
    first time it prints the form and returns that text from then on, and
    canonical_key() keeps its key in the _key slot the same way.
    Beside it, motivic.count fills the _zero_lanes slot the first time a
    query whose plan names the kept lanes (a count, charted or not, or a
    search with no chart over a small P^n) reads the form: the form's
    zeros over the whole of P^n, which every later such query reads.
    """

    __slots__ = ("spec", "nvars", "degree", "coeffs", "_key", "_text",
                 "_zero_lanes")

    def __init__(self, spec: FieldSpec, nvars: int, degree: int, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("negative degree")
        self.spec = spec
        self.nvars = nvars
        self.degree = degree
        self.coeffs = _validated_terms(spec, nvars, degree, terms)

    @classmethod
    def _from_terms(cls, spec, nvars, degree, coeffs) -> "HomogPoly":
        """No checks: coeffs maps exponent tuples of length nvars and sum
        degree to nonzero values of spec, and becomes the result's own."""
        f = object.__new__(cls)
        f.spec = spec
        f.nvars = nvars
        f.degree = degree
        f.coeffs = coeffs
        return f

    @classmethod
    def zero(cls, spec, nvars, degree) -> "HomogPoly":
        return cls(spec, nvars, degree, {})

    @classmethod
    def variable(cls, spec, nvars, i) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(spec, nvars, 1, {exps: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def terms(self) -> dict:
        """The coefficients as FieldElems, built on each call."""
        return {e: FieldElem(self.spec, v) for e, v in self.coeffs.items()}

    def _lead(self):
        """The value of the leading coefficient."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[max(self.coeffs)]

    def monic(self) -> "HomogPoly":
        return self._scaled(self.spec._inv(self._lead()))

    def canonical_key(self):
        """Hashable structural identity (field, shape, ordered terms), kept
        in the _key slot once built."""
        try:
            return self._key
        except AttributeError:
            pass
        key = self._key = (self.spec, self.nvars, self.degree,
                           tuple(sorted(self.coeffs.items(), reverse=True)))
        return key

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.spec == other.spec
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
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
        add = self.spec._add
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            prev = coeffs.get(e)
            if prev is None:
                coeffs[e] = c
                continue
            acc = add(prev, c)
            if acc:
                coeffs[e] = acc
            else:
                del coeffs[e]
        return HomogPoly._from_terms(self.spec, self.nvars, degree, coeffs)

    def __neg__(self) -> "HomogPoly":
        return self._scaled(self.spec._neg(self.spec.one))

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def _scaled(self, c) -> "HomogPoly":
        """The form times a nonzero value c, with no term lost."""
        coeffs = self.coeffs
        return HomogPoly._from_terms(
            self.spec, self.nvars, self.degree,
            dict(zip(coeffs, self.spec._scale(c, coeffs.values()))))

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        return HomogPoly.product((self, other))

    @classmethod
    def product(cls, polys) -> "HomogPoly":
        """f_1 * ... * f_d for d >= 1 forms of one ring, expanded once."""
        packing, acc, degree = _packed_product(polys)
        return packing.unpack(acc, degree)

    @classmethod
    def product_text(cls, polys) -> str:
        """str(HomogPoly.product(polys)), printed from the packed product."""
        packing, acc, degree = _packed_product(polys)
        return packing.text(acc)

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, point):
        """The value of the form at a point given as a tuple of values."""
        if len(point) != self.nvars:
            raise ValueError("point length != nvars")
        spec = self.spec
        add, mul, power = spec._add, spec._mul, spec._pow
        acc = spec.zero
        for exps, val in self.coeffs.items():
            for x, e in zip(point, exps):
                if e:
                    val = mul(val, power(x, e))
            acc = add(acc, val)
        return acc

    def linear_substitute(self, M: Matrix) -> "HomogPoly":
        """f(M x): variable x_i becomes the linear form given by row i of M.

        M may be rectangular (nvars rows, any column count); the result lives
        in M.ncols variables.  The square identity gives the form itself.
        """
        if M.spec != self.spec:
            raise ValueError("matrix over wrong field")
        if M.nrows != self.nvars:
            raise ValueError("matrix must have one row per variable")
        one = self.spec.one
        if M.ncols == M.nrows and all(
                row[i] == one and not any(row[:i]) and not any(row[i + 1:])
                for i, row in enumerate(M.rows)):
            return self
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
        for exps, coeff in self.coeffs.items():
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
        spec = self.spec
        coeffs = {}
        for exps, coeff in self.coeffs.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            c = spec._mul(coeff, spec._literal(e))
            if c:
                coeffs[tuple(new)] = c
        return HomogPoly._from_terms(spec, self.nvars,
                                     max(self.degree - 1, 0), coeffs)

    def split_by_variable(self, i: int):
        """Write f = sum_k x_i^k * f_k; returns (f_0, ..., f_degree).

        Each f_k is free of x_i, kept in the same variable count, homogeneous
        of degree(f) - k.
        """
        if not 0 <= i < self.nvars:
            raise ValueError("no such variable")
        buckets = [dict() for _ in range(self.degree + 1)]
        for exps, coeff in self.coeffs.items():
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
        return any(e[i] for e in self.coeffs)

    def drop_variable(self, i: int) -> "HomogPoly":
        """Remove an unused variable slot (error if x_i actually occurs)."""
        if self.uses_variable(i):
            raise ValueError("variable x%d occurs; cannot drop" % i)
        if self.nvars < 2:
            raise ValueError("cannot drop the last variable")
        coeffs = {e[:i] + e[i + 1 :]: c for e, c in self.coeffs.items()}
        return HomogPoly._from_terms(self.spec, self.nvars - 1, self.degree,
                                     coeffs)

    def insert_variable(self, i: int) -> "HomogPoly":
        """Add a fresh unused variable slot at position i (others shift up)."""
        if not 0 <= i <= self.nvars:
            raise ValueError("bad position")
        coeffs = {e[:i] + (0,) + e[i:]: c for e, c in self.coeffs.items()}
        return HomogPoly._from_terms(self.spec, self.nvars + 1, self.degree,
                                     coeffs)

    def remap_variables(self, mapping, new_nvars: int) -> "HomogPoly":
        """Relabel variables: old index i becomes mapping[i] (injective).

        Every variable actually used must be mapped.
        """
        coeffs = {}
        for exps, coeff in self.coeffs.items():
            new = [0] * new_nvars
            for i, e in enumerate(exps):
                if e:
                    if i not in mapping:
                        raise ValueError("variable x%d is used but not mapped" % i)
                    new[mapping[i]] = e
            coeffs[tuple(new)] = coeff
        return HomogPoly._from_terms(self.spec, new_nvars, self.degree, coeffs)

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            pass
        packing = _Packing(self.spec, self.nvars, self.degree)
        text = self._text = packing.text(packing.pack(self))
        return text

    def __repr__(self):
        return "HomogPoly(%s, n=%d, d=%d: %s)" % (
            self.spec,
            self.nvars,
            self.degree,
            self,
        )


def _packed_product(polys):
    """(packing, packed product, degree) of d >= 1 forms of one ring."""
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
    return packing, acc, degree


class _Powers(dict):
    """powers[e] is the text of x_i^e ("" for e = 0), made on first use, so
    that a huge exponent costs one text, not one per power below it."""

    def __init__(self, i):
        super().__init__({0: "", 1: "x%d" % i})

    def __missing__(self, e):
        text = self[e] = "%s^%d" % (self[1], e)
        return text


@lru_cache(maxsize=64)
def _power_names(nvars):
    """names[i][e] is the text of x_i^e, kept per variable count."""
    return tuple(map(_Powers, range(nvars)))


# monomial texts kept over all shapes in _monomial_tables; the store is
# emptied when a new table would pass this
_MONOMIAL_ENTRIES = 1 << 15
# (nvars, degree) -> the monomial table of that shape (_build_table)
_monomial_tables = {}


def _monomial_table(nvars, degree, terms):
    """The kept table of the shape (nvars, degree), built on first use, for
    a text of that many terms; None when the text fills less than a
    quarter of the shape, or the shape alone passes _MONOMIAL_ENTRIES, so
    that a sparse text builds nothing."""
    table = _monomial_tables.get((nvars, degree))
    if table is None:
        size = comb(nvars + degree - 1, degree)
        if 4 * terms < size or size > _MONOMIAL_ENTRIES:
            return None
        if sum(map(len, _monomial_tables.values())) + size > _MONOMIAL_ENTRIES:
            _monomial_tables.clear()
        table = _monomial_tables[nvars, degree] = _build_table(nvars, degree)
    return table


def _build_table(nvars, degree) -> dict:
    """code -> text of every monomial of this degree in nvars variables,
    in descending code order, built in bulk one variable at a time: the
    monomials of each degree s <= degree in x_i, ..., x_{nvars-1} are the
    powers x_i^e joined to the monomials of degree s - e in the variables
    after it."""
    names = _power_names(nvars)
    base = degree + 1
    # by_degree[s]: (code, text) of the monomials of degree s in the
    # variables taken so far, descending, for each degree s that has one;
    # only the constant's text is ""
    by_degree = {0: [(0, "")]}
    weight = 1
    for i in reversed(range(nvars)):
        row = names[i]
        new = {}
        for s in range(degree + 1) if i else (degree,):  # x0 ends at degree
            out = [(s * weight, row[s])] if s else []
            for t, rest in by_degree.items():
                if 0 < t < s:
                    head, step = row[s - t] + "*", (s - t) * weight
                    out += [(step + k, head + text) for k, text in rest]
            out += by_degree.get(s, ())
            new[s] = out
        by_degree = new
        weight *= base
    return dict(by_degree[degree])


class _Prefixes(dict):
    """prefixes[v] is the text a coefficient of value v prints before a
    monomial over a finite field: "" for one, its text and "*" otherwise,
    each made on first use."""

    __slots__ = ("show",)

    def __init__(self, spec):
        self.show = spec._str

    def __missing__(self, v):
        text = self[v] = "" if v == 1 else self.show(v) + "*"
        return text


_kept_prefixes = lru_cache(maxsize=None)(_Prefixes)


def _prefixes(spec) -> _Prefixes:
    """The coefficient texts of a finite field: kept per field up to
    _TABLE_LIMIT, so at most that many, and for one call past it."""
    if spec.order <= _TABLE_LIMIT:
        return _kept_prefixes(spec)
    return _Prefixes(spec)


def _join_terms(terms, spec) -> str:
    """Canonical printer of (monomial text, coefficient value) pairs in term
    order.

    A coefficient prints through spec._str before its monomial unless it is
    one; over a finite field that text comes from _prefixes.  A negative
    value, which only Q has, prints its magnitude, with its sign between the
    terms.
    """
    if spec.is_finite:
        prefixes, show = _prefixes(spec), spec._str
        pieces = [prefixes[c] + mono if mono else show(c)
                  for mono, c in terms]
        return " + ".join(pieces) if pieces else "0"
    terms = list(terms)
    negative = [c < 0 for _, c in terms]
    signed = any(negative)
    if signed:
        terms = [(mono, -c if neg else c)
                 for (mono, c), neg in zip(terms, negative)]
    show = spec._str
    pieces = [mono if mono and c == 1 else
              "%s*%s" % (show(c), mono) if mono else show(c)
              for mono, c in terms]
    if not pieces:
        return "0"
    if not signed:
        return " + ".join(pieces)
    text = " ".join([("- " if neg else "+ ") + piece
                     for neg, piece in zip(negative, pieces)])
    return text[2:] if text[0] == "+" else "-" + text[2:]
