"""Independent recount of certify-mix oracle counts.

The program checks its own classes against its own counts.  This module
rebuilds the counted variety from the job's input with the public parser and
``HomogPoly.__mul__`` -- V(f) for one polynomial, V(h1*...*hd) for an
arrangement, V(f1*f2) for a union of two quadrics -- and counts it with
``enumerate_points``, which walks points one by one instead of using the
counting kernels.  The count must equal the report's ``oracle.count_points``.
"""

from motivic.count import CountQuery, enumerate_points
from motivic.fields import field_from_text
from motivic.parse import parse_poly

RECOUNTED = ("class-quadric", "class-cubic-singular", "class-arrangement",
             "class-two-quadrics")


def recount(job):
    echo = job["echo"]
    spec = field_from_text(echo["field"])
    n = echo["ambient"]
    factors = [parse_poly(s, spec, n + 1)
               for s in echo["polynomials"] or echo["forms"]]
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    return sum(1 for _ in enumerate_points(CountQuery(spec, n, [product])))


def check(jobs, oracle_counts):
    """(mismatch descriptions, number of jobs recounted)."""
    mismatches, checked = [], 0
    for job, reported in zip(jobs, oracle_counts):
        if job["command"] not in RECOUNTED:
            continue
        checked += 1
        mine = recount(job)
        if mine != reported:
            mismatches.append(
                "%s over %s in P^%d: enumerated %d, report says %s"
                % (job["command"], job["echo"]["field"],
                   job["echo"]["ambient"], mine, reported))
    return mismatches, checked
