"""The benchmark's jobs still run and keep their recorded report bytes.

perfbench/workloads.py builds the jobs of each benchmark workload through
the package's public API, and perfbench/digests.json records the sha256 of
each job's JSON report at the default seed.  This test runs those jobs in
process, as the benchmark's worker does (JobSpec.from_echo -> run ->
render_json), so a change that breaks what the benchmark reads, or that
moves a report byte, fails here and not only in a benchmark run.  The
workloads module is loaded from its file without writing bytecode, so
nothing is written under perfbench/.  The same jobs, counted at F_{q^2}
through a test-local Counts, check that a job's class and identities read
their field only from the Counts they are given.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from motivic import cli, fields, kclass, strat
from motivic.count import BudgetError, CountQuery, _pure, count_points
from motivic.poly import HomogPoly
from test_cli import PINNED_REPORTS, _pinned_job

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_DIGESTS = json.loads((_PERFBENCH / "digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", _WORKLOADS.WORKLOADS)
def test_benchmark_jobs_keep_their_recorded_digests(workload):
    jobs = _WORKLOADS.generate(workload, 0)
    digests = []
    for job in jobs:
        report, code = cli.run(cli.JobSpec.from_echo(job["command"],
                                                     job["echo"]))
        assert code == 0, job
        digests.append(hashlib.sha256(
            cli.render_json(report).encode()).hexdigest())
    assert digests == _DIGESTS[workload]["jobs"]


def _empty_piece_caches():
    """Forget every shared report piece and the texts they keep."""
    for cache in (fields._described_field, kclass._constant_term,
                  strat._constant_run, cli._skipped_step):
        cache.cache_clear()
    cli._SKIPPED_ORACLE._texts.clear()


def test_report_bytes_do_not_depend_on_kept_pieces():
    """The pinned jobs and every workload's jobs at the default seed give
    the same bytes in one process three ways: in order, again in reverse
    order with the pieces of earlier jobs kept, and with every piece cache,
    the counting kernel's fields with their monomial vectors and its plans
    emptied before each job, so that each job builds its vectors cold.  The
    first way matches the recorded digests."""
    jobs = [_pinned_job(args) for args, _ in PINNED_REPORTS]
    recorded = [digest for _, digest in PINNED_REPORTS]
    for workload in _WORKLOADS.WORKLOADS:
        jobs += [cli.JobSpec.from_echo(job["command"], job["echo"])
                 for job in _WORKLOADS.generate(workload, 0)]
        recorded += _DIGESTS[workload]["jobs"]

    def text(job):
        return cli.render_json(cli.run(job)[0])

    forward = [text(job) for job in jobs]
    backward = [text(job) for job in reversed(jobs)][::-1]
    emptied = []
    for job in jobs:
        _empty_piece_caches()
        _pure._lanes.cache_clear()
        _pure._plan.cache_clear()
        emptied.append(text(job))
    assert [hashlib.sha256(t.encode()).hexdigest()
            for t in forward] == recorded
    assert backward == forward
    assert emptied == forward


class _SquareCounts(kclass.Counts):
    """Counts at F_{q^2} for the queries of a job over F_q: L is q^2, and
    each query is base-changed to F_{q^2} before it is counted."""

    __slots__ = ("ext", "image")

    def __init__(self, spec, budget=None):
        super().__init__(spec, budget)
        self.q = spec.order ** 2
        ext = self.ext = fields.extension_field(spec.p, 2 * spec.m)
        if spec.kind == "Fp":
            # the values below p are the prime field in F_{p^2}
            self.image = list(range(spec.p))
            return
        # over F_{p^m}, t goes to a root s of its modulus in F_{p^2m}
        def power_sum(digits, s):
            acc = 0
            for k, c in enumerate(digits):
                acc = ext._add(acc, ext._mul(c, ext._pow(s, k)))
            return acc

        s = next(s for s in range(ext.order)
                 if power_sum(spec.modulus, s) == 0)
        image = self.image = [power_sum(spec._digits(a), s)
                              for a in range(spec.order)]
        assert all(image[spec._add(a, b)] == ext._add(image[a], image[b])
                   and image[spec._mul(a, b)] == ext._mul(image[a], image[b])
                   for a in range(spec.order) for b in range(spec.order))

    def _lift(self, g):
        return HomogPoly(self.ext, g.nvars, g.degree,
                         {e: self.image[c] for e, c in g.coeffs.items()})

    def __missing__(self, query):
        assert query.spec is self.spec, query
        if query.factors is None:
            lifted = CountQuery(self.ext, query.n,
                                [self._lift(g) for g in query.generators],
                                query.chart)
        else:
            lifted = CountQuery.union(self.ext, query.n,
                                      [self._lift(f) for f in query.factors],
                                      query.chart)
        n = self[query] = count_points(lifted, budget=self.budget)
        return n


def _measure_at_q2(expr, target):
    """The class's measure at F_{q^2}: an etale atom counts the degrees d
    of its points with d | 2."""
    q = target.q
    total = sum(v * q**e for e, v in expr.coeffs.items())
    for shift, coeff, atom in expr.residuals:
        if isinstance(atom, kclass.EtaleAtom):
            n = sum(d for d in atom.degrees if 2 % d == 0)
        else:
            n = atom.count(target)
        total += coeff * q**shift * n
    return total


def test_classes_and_identities_hold_at_q_squared():
    """The pinned jobs and every workload's class jobs at the default seed,
    counted at F_{q^2} through a Counts that base-changes each query: every
    identity holds and every class measures #X(F_{q^2}).  The one exception
    is binary-conjugate-pair, #V = 0 for an anisotropic binary form, which
    holds over F_{q^k} only for odd k: at k = 2 its two conjugate points are
    rational, so it reads (2, 0)."""
    jobs = [_pinned_job(args) for args, _ in PINNED_REPORTS]
    for workload in _WORKLOADS.WORKLOADS:
        jobs += [cli.JobSpec.from_echo(job["command"], job["echo"])
                 for job in _WORKLOADS.generate(workload, 0)
                 if job["command"] != "count"]
    matched = with_etale = skipped = pairs = 0
    for job in jobs:
        result, oracle = cli._dispatch(job)
        spec = oracle.spec
        if not spec.is_finite or spec.order ** 2 > 1024:
            skipped += 1
            continue
        target = _SquareCounts(spec, 10**6)
        try:
            for step in result.trace:
                if step.identity is None:
                    continue
                lv, rv = step.identity.sides(target)
                if step.rule == "binary-conjugate-pair":
                    assert (lv, rv) == (2, 0), job.echo()
                    pairs += 1
                else:
                    assert lv == rv, (step.rule, job.echo())
            measured = _measure_at_q2(result.class_expr, target)
            counted = target[oracle]
        except BudgetError:
            skipped += 1
            continue
        assert measured == counted, job.echo()
        matched += 1
        with_etale += any(isinstance(atom, kclass.EtaleAtom)
                          for _, _, atom in result.class_expr.residuals)
    assert (matched, with_etale, skipped, pairs) == (85, 4, 51, 4)
