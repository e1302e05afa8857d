"""Ring expressions in the Lefschetz class L, with unresolved residual atoms.

A ClassExpr is an integer polynomial in L plus a canonical list of residual
atoms, each carried at a shift: the term coeff * L^shift * [atom].  Atoms are
either etale (a finite scheme recorded by its residue degree multiset, e.g.
the conjugate point pair {2}) or a variety (the CountQuery of generators
cutting a closed subvariety of some P^n, possibly marked resolved=False when
an engine gave up).  Atoms are never simplified implicitly; only engines
replace an atom by a finer expression.  Addition and subtraction merge equal
atoms at the same shift and drop the ones whose multiplicity reaches zero,
which is bookkeeping, not simplification.

Two specializations connect expressions to the ground:

  * e.count_measure(counts): L -> q, atoms -> their F_q point counts.  For
    every engine result this must equal the brute-force count of the input
    variety; that identity is the package's master check.
  * residue_mod_L(e): the constant term, when it is determinate.  A variety
    atom at shift 0 makes it indeterminate (None); an etale atom at shift 0
    contributes its number of degree-1 factors.

A Trace records why an expression is what it is: each step names a rule and
carries either a counting identity (two integer combinations of point counts
that must agree) or a pointwise check record.  The engines state the same
identities over every field; TraceStep keeps one only when all its queries
are over a finite field, where it is verifiable by brute force, and the CLI
does so by default.  So a step over Q records no identity.  The counting
methods take one Counts, the F_q of one job with its dict of point counts
keyed by query, so a query that recurs across identities, atoms and the
oracle is counted once.  The report dict of a constant CountTerm is one
shared fields._Piece per (coeff, power), kept in a bounded cache.
"""

from __future__ import annotations

from functools import lru_cache

from .count import CountQuery, count_points
from .fields import FieldSpec, _Piece


class EtaleAtom:
    """Zero-dimensional reduced scheme, as a multiset of residue degrees."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(sorted(int(d) for d in degrees))
        if not degrees or any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive")
        self.degrees = degrees

    @property
    def label(self):
        return "etale(%s)" % ",".join(str(d) for d in self.degrees)

    def sort_key(self):
        return (0, self.degrees)

    def count(self, counts) -> int:
        return self.residue_contribution()

    def residue_contribution(self):
        # Spec F_{q^d} has a rational point over F_q only when d = 1
        return sum(1 for d in self.degrees if d == 1)

    def describe(self):
        return {"kind": "etale", "degrees": list(self.degrees)}

    def __eq__(self, other):
        return isinstance(other, EtaleAtom) and self.degrees == other.degrees

    def __hash__(self):
        return hash(("etale", self.degrees))

    def __repr__(self):
        return "[%s]" % self.label


class VarietyAtom:
    """Closed subvariety of P^ambient cut out by homogeneous generators.

    The atom is the CountQuery of its generators, which checks them and
    drops the zero ones: it counts, compares, hashes and describes itself
    through that one query, which engines pass to the identity counting the
    atom.  name and resolved do not affect equality.  An atom is never
    changed once built, so it keeps its sort key once computed.
    """

    __slots__ = ("_query", "name", "resolved", "_sort_key")

    def __init__(self, spec: FieldSpec, ambient: int, generators, name=None,
                 resolved=True):
        self._query = CountQuery(spec, ambient, generators)
        self.name = name
        self.resolved = resolved
        self._sort_key = None

    @property
    def generators(self):
        return self._query.generators

    @property
    def label(self):
        query = self._query
        body = "V(%s) in P^%d" % (
            "; ".join(query.describe()["generators"]) or "0", query.n)
        return "%s: %s" % (self.name, body) if self.name else body

    def sort_key(self):
        if self._sort_key is not None:
            return self._sort_key
        terms = tuple(g.canonical_key()[3] for g in self.generators)
        spec = self._query.spec
        if spec.kind == "Fpm":
            # an F_{p^m} coefficient sorts as its coefficient tuple, lowest
            # degree first, not as its index
            terms = tuple(tuple((e, spec._digits(c)) for e, c in g)
                          for g in terms)
        self._sort_key = (1, self._query.n, terms)
        return self._sort_key

    def query(self) -> CountQuery:
        return self._query

    def count(self, counts) -> int:
        return counts[self._query]

    def residue_contribution(self):
        return None

    def describe(self):
        d = {"kind": "variety", **self._query.describe()}
        if self.name:
            d["name"] = self.name
        if not self.resolved:
            d["resolved"] = False
        return d

    def __eq__(self, other):
        return isinstance(other, VarietyAtom) and self._query == other._query

    def __hash__(self):
        return hash(self._query)

    def __repr__(self):
        return "[%s]" % self.label


class ClassExpr:
    """Integer polynomial in L plus shifted residual atoms, canonical form."""

    __slots__ = ("coeffs", "residuals")

    def __init__(self, coeffs=None, residuals=()):
        c = {}
        for k, v in (coeffs or {}).items():
            k, v = int(k), int(v)
            if k < 0:
                raise ValueError("negative power of L")
            if v:
                c[k] = v
        self.coeffs = c
        # a dict keeps the first of two equal keys, so the first of two
        # equal atoms stands for both, its name and resolved flag included
        merged = {}
        for shift, coeff, atom in residuals:
            if shift < 0:
                raise ValueError("negative shift")
            key = (shift, atom)
            merged[key] = merged.get(key, 0) + coeff
        cleaned = [(shift, coeff, atom)
                   for (shift, atom), coeff in merged.items() if coeff]
        cleaned.sort(key=lambda t: (t[0],) + t[2].sort_key())
        self.residuals = tuple(cleaned)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "ClassExpr":
        return cls({0: n})

    @classmethod
    def from_atom(cls, atom, shift: int = 0) -> "ClassExpr":
        return cls({}, [(shift, 1, atom)])

    # -- ring-ish operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = ClassExpr.from_int(other)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return ClassExpr(coeffs, list(self.residuals) + list(other.residuals))

    __radd__ = __add__

    def __neg__(self):
        return ClassExpr(
            {k: -v for k, v in self.coeffs.items()},
            [(s, -c, a) for s, c, a in self.residuals],
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = ClassExpr.from_int(other)
        return self + (-other)

    def lshift(self, k: int) -> "ClassExpr":
        """Multiply by L^k."""
        if k < 0:
            raise ValueError("negative power of L")
        return ClassExpr(
            {e + k: v for e, v in self.coeffs.items()},
            [(s + k, c, a) for s, c, a in self.residuals],
        )

    def __eq__(self, other):
        return (
            isinstance(other, ClassExpr)
            and self.coeffs == other.coeffs
            and self.residuals == other.residuals
        )

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.residuals))

    # -- structure -----------------------------------------------------------

    def residue_mod_L(self):
        """Constant term mod L, or None when a shift-0 variety atom blocks it."""
        acc = self.coeffs.get(0, 0)
        for shift, coeff, atom in self.residuals:
            if shift != 0:
                continue
            contrib = atom.residue_contribution()
            if contrib is None:
                return None
            acc += coeff * contrib
        return acc

    def count_measure(self, counts) -> int:
        """Specialize L -> counts.q and count every atom through counts."""
        q = counts.q
        total = sum(v * q**e for e, v in self.coeffs.items())
        for shift, coeff, atom in self.residuals:
            total += coeff * q**shift * atom.count(counts)
        return total

    # -- rendering / serialization --------------------------------------------

    def __str__(self):
        parts = []

        def push(coeff, body):
            if not parts:
                if coeff < 0:
                    parts.append("-" + (body if body else str(-coeff)))
                    return
                parts.append(body if body else str(coeff))
                return
            sign = "- " if coeff < 0 else "+ "
            parts.append(sign + (body if body else str(abs(coeff))))

        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            if e == 0:
                push(v, "")
            else:
                lpow = "L" if e == 1 else "L^%d" % e
                mag = abs(v)
                push(v, lpow if mag == 1 else "%d*%s" % (mag, lpow))
        for shift, coeff, atom in self.residuals:
            mag = abs(coeff)
            body = "[%s]" % atom.label
            if shift == 1:
                body = "L*" + body
            elif shift > 1:
                body = "L^%d*%s" % (shift, body)
            if mag != 1:
                body = "%d*%s" % (mag, body)
            push(coeff, body)
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return "ClassExpr(%s)" % (self,)

    def describe(self):
        out = {"coeffs": {str(k): v for k, v in sorted(self.coeffs.items())}}
        res = []
        for shift, coeff, atom in self.residuals:
            entry = {"shift": shift, "atom": atom.describe()}
            if coeff != 1:
                entry["coeff"] = coeff
            res.append(entry)
        out["residuals"] = res
        return out


def projective_space_class(n: int) -> ClassExpr:
    """[P^n] = 1 + L + ... + L^n; [P^-1] = 0 (empty)."""
    if n < -1:
        raise ValueError("bad dimension")
    return ClassExpr({k: 1 for k in range(n + 1)})


class Counts(dict):
    """The point counts of one job over the finite field spec, where L is
    q = spec.order: a dict from CountQuery to count.

    A missing query over spec is counted by count_points under budget and
    kept, one over another field refused, so a job counts each distinct
    query once.  A count that raises, BudgetError included, keeps nothing.
    """

    __slots__ = ("spec", "q", "budget")

    def __init__(self, spec: FieldSpec, budget=None):
        if not spec.is_finite:
            raise ValueError("counting needs a finite field, got %s" % spec)
        super().__init__()
        self.spec = spec
        self.q = spec.order
        self.budget = budget

    def __missing__(self, query):
        if query.spec is not self.spec:
            raise ValueError("query lives over %s, counting is over %s"
                             % (query.spec, self.spec))
        n = self[query] = count_points(query, budget=self.budget)
        return n


# ---------------------------------------------------------------------------
# trace: the auditable derivation log


class CountTerm:
    """coeff * q^power * #query (query None means the constant 1)."""

    __slots__ = ("coeff", "power", "query")

    def __init__(self, coeff: int, power: int = 0, query: CountQuery | None = None):
        self.coeff = int(coeff)
        self.power = int(power)
        self.query = query

    def value(self, counts) -> int:
        n = self.coeff * counts.q**self.power
        if self.query is not None:
            n *= counts[self.query]
        return n

    def describe(self):
        """The term's report dict; a constant term's is one shared _Piece
        per (coeff, power)."""
        if self.query is None:
            return _constant_term(self.coeff, self.power)
        d = {"coeff": self.coeff}
        if self.power:
            d["power"] = self.power
        d["query"] = self.query.describe()
        return d


@lru_cache(maxsize=256)
def _constant_term(coeff, power):
    return _Piece(coeff=coeff, power=power) if power else _Piece(coeff=coeff)


class Identity:
    """An equality of two integer combinations of point counts."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)
        if all(t.query is None for t in self.lhs + self.rhs):
            raise ValueError("identity with no counting content")

    def sides(self, counts):
        """(left, right) with L -> counts.q, each query looked up in
        counts."""
        return (sum(t.value(counts) for t in self.lhs),
                sum(t.value(counts) for t in self.rhs))

    def describe(self):
        return {
            "lhs": [t.describe() for t in self.lhs],
            "rhs": [t.describe() for t in self.rhs],
        }


class TraceStep:
    """One derivation move: a rule tag, prose, and its verifiable content."""

    __slots__ = ("rule", "description", "identity", "check")

    def __init__(self, rule: str, description: str, identity: Identity | None = None,
                 check=None):
        self.rule = rule
        self.description = description
        # the one place where a step over Q drops its identity: nothing over
        # Q is counted; checking Q classes at good primes (ROADMAP item 12)
        # would reduce these identities mod p instead
        if identity is not None and not all(
                t.query.spec.is_finite for t in identity.lhs + identity.rhs
                if t.query is not None):
            identity = None
        self.identity = identity
        self.check = check  # dict payload for non-counting checks

    def describe(self):
        d = {"rule": self.rule, "description": self.description}
        if self.identity is not None:
            d["identity"] = self.identity.describe()
        if self.check is not None:
            d["check"] = self.check
        return d


class StratResult:
    """What an engine returns: the class, its derivation, and the side facts.
    The residue mod L is read off the class."""

    __slots__ = ("class_expr", "trace", "residue", "hypotheses")

    def __init__(self, class_expr: ClassExpr, trace, hypotheses):
        self.class_expr = class_expr
        self.trace = list(trace)
        self.residue = class_expr.residue_mod_L()  # int | None
        self.hypotheses = list(hypotheses)  # [(name, bool)]

    def describe(self):
        return {
            "class": self.class_expr.describe(),
            "class_str": str(self.class_expr),
            "residue": self.residue,
            "hypotheses": [[name, ok] for name, ok in self.hypotheses],
            "trace": [s.describe() for s in self.trace],
        }
