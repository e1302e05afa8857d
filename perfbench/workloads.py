"""Seeded job lists for the three benchmark workloads.

A job is ``{"command": ..., "echo": ...}``, where ``echo`` has the shape of
``motivic.cli.JobSpec.echo()``; ``JobSpec.from_echo`` turns it back into the
request a CLI user would send.  The composition of each workload (which
engine, field and ambient dimension) is fixed; the seed picks coefficients
and the job order.  Fixing the composition keeps the amount of work nearly
the same from seed to seed, so run-to-run spread measures the program and
the host rather than the dice.

Polynomials are built as ``HomogPoly`` objects and written out with ``str``,
whose output the package's parser reads back unchanged.
"""

import random
from itertools import combinations_with_replacement

from motivic.fields import extension_field, field_from_text, prime_field
from motivic.parse import parse_poly
from motivic.poly import HomogPoly
from motivic.strat import class_of_two_quadric_union

WORKLOADS = ("certify-mix", "count-heavy", "engine-only")

# Warm-up jobs come from the same generator at a seed no user-facing run
# shares, so a pass never meets its own queries before it is timed.
WARMUP_SEED_OFFSET = 1_000_003


def job(command, field, ambient, polys=(), forms=(), point=None,
        budget=None, verify=True, seed=0):
    return {
        "command": command,
        "echo": {
            "field": field,
            "ambient": ambient,
            "polynomials": list(polys),
            "forms": list(forms),
            "point": point,
            "options": {"seed": seed, "height": 10, "budget": budget,
                        "verify": verify},
        },
    }


def _random_form(rng, spec, nvars, degree):
    """Dense random form: every monomial gets a uniform field coefficient."""
    while True:
        terms = {}
        for pick in combinations_with_replacement(range(nvars), degree):
            c = spec.from_index(rng.randrange(spec.order))
            if not c.is_zero():
                e = [0] * nvars
                for i in pick:
                    e[i] += 1
                terms[tuple(e)] = c
        if terms:
            return HomogPoly(spec, nvars, degree, terms)


def _quadric(rng, q, n, verify=True):
    f = _random_form(rng, prime_field(q), n + 1, 2)
    return job("class-quadric", str(q), n, polys=[str(f)], verify=verify)


def _arrangement(rng, q, n, d, verify=True):
    spec = prime_field(q)
    forms = [str(_random_form(rng, spec, n + 1, 1)) for _ in range(d)]
    return job("class-arrangement", str(q), n, forms=forms, verify=verify)


def _cone(rng, q, n, degree, verify=True):
    # the base lives in P^(n-1); the CLI embeds it as a cone in P^n
    base = _random_form(rng, prime_field(q), n, degree)
    return job("class-cone", str(q), n, polys=[str(base)], verify=verify)


def _singular_cubic(rng, q, n, verify=True):
    """x_n * Q2 + C3 with Q2, C3 free of x_n: singular at [0:...:0:1]."""
    spec = prime_field(q)
    q2 = _random_form(rng, spec, n, 2).insert_variable(n)
    c3 = _random_form(rng, spec, n, 3).insert_variable(n)
    xn = HomogPoly.variable(spec, n + 1, n)
    f = xn * q2 + c3
    point = ",".join(["0"] * n + ["1"])
    return job("class-cubic-singular", str(q), n, polys=[str(f)],
               point=point, verify=verify)


def _two_quadrics(rng, q, n, verify=True):
    """Resample until the engine accepts the pair, as the acceptance battery
    does: Q1 smooth, a common rational point, and L1 != 0."""
    spec = prime_field(q)
    while True:
        f1 = _random_form(rng, spec, n + 1, 2)
        f2 = _random_form(rng, spec, n + 1, 2)
        texts = [str(f1), str(f2)]
        try:
            class_of_two_quadric_union(parse_poly(texts[0], spec, n + 1),
                                       parse_poly(texts[1], spec, n + 1))
        except ValueError:
            continue
        return job("class-two-quadrics", str(q), n, polys=texts,
                   verify=verify)


def _frobenius(h, power):
    terms = dict(h.terms)
    for _ in range(power):
        terms = {e: c.frobenius() for e, c in terms.items()}
    return HomogPoly(h.spec, h.nvars, h.degree, terms)


def _descend(rng, p, m, n, orbits, verify=True, seed=0):
    """Union of full Frobenius orbits of random linear forms over F_{p^m}.

    Each orbit is h, F(h), ..., F^(m-1)(h) for a hyperplane h not defined
    over F_p, so the union descends while no single hyperplane does.
    """
    spec = extension_field(p, m)
    forms = []
    seen = set()
    while len(forms) < orbits * m:
        h = _random_form(rng, spec, n + 1, 1).monic()
        orbit = [_frobenius(h, i).monic() for i in range(m)]
        keys = {g.canonical_key() for g in orbit}
        if len(keys) < m or keys & seen:
            continue  # hyperplane defined over a subfield, or repeated
        seen |= keys
        forms.extend(str(g) for g in orbit)
    rng.shuffle(forms)
    return job("descend", "%d,%d" % (p, m), n, forms=forms, verify=verify,
               seed=seed)


def _count(rng, q_text, n, degree, ngens=1, budget=None):
    spec = field_from_text(q_text)
    polys = [str(_random_form(rng, spec, n + 1, degree)) for _ in range(ngens)]
    return job("count", q_text, n, polys=polys, budget=budget)


def _certify_mix(rng):
    jobs = []
    for q in (3, 5, 7):
        for n in (2, 3, 4):
            jobs.append(_quadric(rng, q, n))
        for n, d in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
            jobs.append(_arrangement(rng, q, n, d))
        jobs.append(_cone(rng, q, 2, 2))
        jobs.append(_cone(rng, q, 3, 3))
        jobs.append(_cone(rng, q, 4, 2))
        jobs.append(_singular_cubic(rng, q, 3))
        jobs.append(_singular_cubic(rng, q, 3))
    for q in (3, 5):
        jobs.append(_singular_cubic(rng, q, 4))
    for q in (3, 3, 3, 3, 5, 5):
        jobs.append(_two_quadrics(rng, q, 4))
    for p, m, n, orbits in ((3, 2, 2, 1), (3, 2, 3, 1), (3, 2, 4, 2),
                            (5, 2, 2, 1), (5, 2, 3, 1), (5, 2, 4, 2),
                            (3, 3, 3, 1), (3, 3, 4, 1), (5, 3, 3, 1)):
        jobs.append(_descend(rng, p, m, n, orbits, seed=rng.randrange(100)))
    return jobs


# The kernel cases of benchmarks/bench_count.py, as public count jobs.
_KERNEL_CASES = (
    ("7", 3, ["x0*x1 - x2*x3"]),
    ("7", 4, ["x0*x1 + x2*x3 + x4^2"]),
    ("5", 3, ["x0^3 + x1^3 + x2^3 + x3^3"]),
    ("5", 4, ["x0*x1 - x2^2", "x3^2 + x4*x0"]),
    ("3", 4, ["x0^4 + x1^4 + x2^3*x3 + x4^2*x0*x1 + x2*x3*x4^2"]),
)


def _count_heavy(rng):
    return [
        _arrangement(rng, 7, 4, 4),
        _quadric(rng, 11, 4),
        _two_quadrics(rng, 7, 4),
        _singular_cubic(rng, 7, 4),
        _count(rng, "3,3", 3, 3),
        # the only job on the direct-mod path for primes past the table
        # limit; cost() charges q^(n+1), hence the budget
        _count(rng, "100003", 1, 4, budget=10**11),
    ] + [job("count", f, n, polys=polys) for f, n, polys in _KERNEL_CASES]


def _engine_only(rng):
    jobs = []
    for q in (3, 5, 7):
        for n in (5, 6, 7):
            jobs.append(_quadric(rng, q, n, verify=False))
        for n, d in ((6, 4), (6, 5), (7, 5), (7, 6)):
            jobs.append(_arrangement(rng, q, n, d, verify=False))
        jobs.append(_cone(rng, q, 6, 3, verify=False))
        jobs.append(_cone(rng, q, 7, 2, verify=False))
        jobs.append(_singular_cubic(rng, q, 5, verify=False))
        jobs.append(_singular_cubic(rng, q, 6, verify=False))
        jobs.append(_two_quadrics(rng, q, 4, verify=False))
        jobs.append(_two_quadrics(rng, q, 5, verify=False))
    for p, m, n, orbits in ((3, 2, 4, 2), (3, 2, 5, 2), (5, 2, 4, 2),
                            (5, 2, 5, 2), (3, 3, 4, 1), (3, 3, 5, 1),
                            (5, 3, 4, 1), (5, 3, 5, 1)):
        jobs.append(_descend(rng, p, m, n, orbits, verify=False,
                             seed=rng.randrange(100)))
    return jobs


_GENERATORS = {
    "certify-mix": _certify_mix,
    "count-heavy": _count_heavy,
    "engine-only": _engine_only,
}


def generate(workload, seed):
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def warmup(workload, seed):
    """Untimed jobs a pass runs first: imports, table and field caches.

    certify-mix and engine-only take the first job of each command from the
    same workload at another seed.  count-heavy jobs are too large for that,
    so it counts one small variety over each field its jobs use, except the
    big prime, whose direct path keeps no tables to fill.
    """
    if workload == "count-heavy":
        fields = sorted({j["echo"]["field"] for j in generate(workload, seed)
                         if field_from_text(j["echo"]["field"]).order <= 1024})
        return [job("count", f, 1, polys=["x0*x1"]) for f in fields]
    firsts = {}
    for j in generate(workload, seed + WARMUP_SEED_OFFSET):
        firsts.setdefault(j["command"], j)
    return list(firsts.values())
