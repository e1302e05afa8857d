"""The benchmark's jobs still run and keep their recorded report bytes.

perfbench/workloads.py builds the jobs of each benchmark workload through
the package's public API, and perfbench/digests.json records the sha256 of
each job's JSON report at the default seed.  This test runs those jobs in
process, as the benchmark's worker does (JobSpec.from_echo -> run ->
render_json), so a change that breaks what the benchmark reads, or that
moves a report byte, fails here and not only in a benchmark run.  The
workloads module is loaded from its file without writing bytecode, so
nothing is written under perfbench/.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from motivic import cli, fields, kclass, strat
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
    order with the pieces of earlier jobs kept, and with every piece cache
    emptied before each job.  The first way matches the recorded digests."""
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
        emptied.append(text(job))
    assert [hashlib.sha256(t.encode()).hexdigest()
            for t in forward] == recorded
    assert backward == forward
    assert emptied == forward
