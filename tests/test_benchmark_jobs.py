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

from motivic import cli

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
