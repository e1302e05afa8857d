"""Deterministic point enumeration for projective spaces.

Canonical representatives of P^n(F_q): first nonzero coordinate equal to 1,
all earlier coordinates 0.  The fixed order is: leading position ascending
(so the x0=1 chart comes first), then the free trailing coordinates as an
odometer with the last coordinate moving fastest, field elements in their
index order.  Every search and count in the package walks points in exactly
this order, which is what makes results reproducible bit for bit.

Over Q there is no finite enumeration; bounded-height search walks integer
coordinate vectors with entries in [-H, H], leading position ascending,
leading value 1..H ascending, then the trailing odometer; each vector is
normalized to leading coordinate 1.

A point is a tuple of field values (see motivic.fields): indices over a
finite field, Fractions over Q.  first_point is the one search for a
first rational point of V(gens) that the engines run: the isotropic
point of a quadric, the singular point of a cubic and the common point of
two quadrics.  Over a finite field it runs the point search of
motivic.count, which never tests candidates one by one: over a small
P^n it reads the generators' zero lanes, kept on each form, over the
whole space, and otherwise it evaluates the generators over each prefix
of a stratum on every value of the last coordinate at once, as lanes of
one integer.  Over every field it is charged against the budget, the
caller's or else count._DEFAULT_BUDGET (10^8), only for the candidates it
walks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .count import _DEFAULT_BUDGET, BudgetError, CountQuery, _first_point
from .fields import FieldSpec


def rational_reps(n: int, height: int):
    """Height-bounded rational points of P^n(Q), normalized, fixed order.

    May repeat a projective point under different integer representatives;
    callers use this for first-match searches where duplicates are harmless.
    """
    if height < 1:
        raise ValueError("height must be positive")
    rng = range(-height, height + 1)
    for lead in range(n + 1):
        head = (Fraction(0),) * lead + (Fraction(1),)
        for lv in range(1, height + 1):
            inv = Fraction(1, lv)
            for tail in itertools.product(rng, repeat=n - lead):
                yield head + tuple([t * inv for t in tail])


def first_point(spec: FieldSpec, n: int, gens, height: int = 10,
                budget=None):
    """First point of V(gens) in P^n in the fixed order, or None.

    Over a finite field the walk is that of count.enumerate_points; over
    Q it walks rational_reps(n, height).  Either is charged only for the
    candidates walked: a point found early passes under any budget, and
    BudgetError is raised once budget candidates pass without one.
    """
    if spec.is_finite:
        return _first_point(CountQuery(spec, n, gens), budget=budget)
    budget = _DEFAULT_BUDGET if budget is None else budget
    for walked, pt in enumerate(rational_reps(n, height), 1):
        if walked > budget:
            raise BudgetError(
                "no rational point of V(%s) in P^%d up to height %d among "
                "the first %d candidates, budget is %d"
                % ("; ".join(str(g) for g in gens) or "0", n, height, budget,
                   budget))
        if not any(g.evaluate(pt) for g in gens):
            return pt
    return None
