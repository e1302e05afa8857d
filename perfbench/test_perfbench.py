"""Tests of the benchmark itself, not of the package.

    python3 -m pytest perfbench/test_perfbench.py

The repository's own test run does not collect this file (its testpaths
name only ``tests``).
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from motivic import cli  # noqa: E402
from motivic.count import CountQuery, enumerate_points  # noqa: E402
from motivic.fields import prime_field  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert workloads.warmup(workload, 7) == workloads.warmup(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_jobs_pass_engine_preconditions(workload):
    for job in workloads.generate(workload, 0):
        spec = cli.JobSpec.from_echo(job["command"], job["echo"])
        if spec.command == "count":
            # the budget is the count command's only precondition
            gens = [cli.parse_poly(s, spec.field, spec.ambient + 1)
                    for s in spec.polynomials]
            query = CountQuery(spec.field, spec.ambient, gens)
            assert query.cost() <= (spec.budget or 10**8)
            continue
        spec.verify = False
        report, code = cli.run(spec)
        assert (code, report["status"]) == (0, "ok"), job


@pytest.mark.parametrize("chart", [(), ((0, "zero"),), ((1, "nonzero"),),
                                   ((0, "nonzero"), (2, "zero"))])
def test_candidates_match_the_enumerated_points(chart):
    query = CountQuery(prime_field(3), 2, [], chart)
    assert tracer.candidates(query) == sum(1 for _ in enumerate_points(query))


def test_tracer_restores_every_binding():
    import motivic.kclass
    before = motivic.kclass.count_points, motivic.kclass.Identity.sides
    tr = tracer.Tracer()
    tr.install()
    try:
        assert motivic.kclass.count_points is not before[0]
        tr.check_coverage()
    finally:
        tr.restore()
    assert (motivic.kclass.count_points,
            motivic.kclass.Identity.sides) == before


def test_coverage_check_finds_a_missed_binding():
    from motivic.count import count_points
    probe = types.ModuleType("motivic._probe")
    probe.count_points = count_points
    sys.modules["motivic._probe"] = probe
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(tracer.CoverageError, match="motivic._probe"):
            tr.check_coverage()
    finally:
        tr.restore()
        del sys.modules["motivic._probe"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   and "n=" in line for line in lines[:-1]), m["name"]
