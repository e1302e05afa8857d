"""One measured pass in a fresh interpreter.

Reads a request from stdin: ``{"jobs": [...], "warmup": [...], "trace":
bool}``, with jobs as built by ``workloads.job``.  Runs the warm-up jobs
untimed, then every job once through the CLI path ``JobSpec.from_echo`` ->
``run`` -> ``render_json``, timing the host-speed reference loop before each
job and after the last.  Writes one JSON object to stdout with the per-job
latencies, exit codes, statuses and report digests, the summed job time, the
reference times, the peak RSS and, when traced, the per-layer totals.
"""

import hashlib
import json
import resource
import sys
import time
import traceback

from motivic import cli, count

import hostspeed
import tracer


def _run_one(job):
    """(exit code, status, report digest, oracle count) of one CLI job."""
    try:
        spec = cli.JobSpec.from_echo(job["command"], job["echo"])
        report, code = cli.run(spec)
        text = cli.render_json(report)
    except Exception as exc:  # a crashing job is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        return 1, "raised " + type(exc).__name__, "", None
    oracle = report.get("verification", {}).get("oracle", {})
    return (code, report["status"], hashlib.sha256(text.encode()).hexdigest(),
            oracle.get("count_points"))


def run_pass(jobs, warmup, trace):
    for job in warmup:
        if _run_one(job)[0] != 0:
            raise SystemExit("warm-up job failed: %r" % job)
    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    try:
        if tr is not None:
            tr.check_coverage()
        latency, outcomes, refs = [], [], []
        for job in jobs:
            refs.append(hostspeed.reference_seconds())
            t0 = time.perf_counter()
            outcomes.append(_run_one(job))
            latency.append(time.perf_counter() - t0)
        refs.append(hostspeed.reference_seconds())
    finally:
        if tr is not None:
            tr.restore()
    out = {
        "wall_s": sum(latency),
        "refs": refs,
        "job_s": latency,
        "codes": [o[0] for o in outcomes],
        "statuses": [o[1] for o in outcomes],
        "digests": [o[2] for o in outcomes],
        "oracle_counts": [o[3] for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "compiled": bool(count.HAVE_COMPILED),
    }
    if tr is not None:
        out["layers"] = tr.layer_totals()
        out["count"] = {
            "calls": len(tr.queries),
            "distinct": len(set(tr.queries)),
            "candidates": sum(tracer.candidates(q) for q in tr.queries),
            "term_evals": sum(
                tracer.candidates(q) * sum(len(g.terms) for g in q.generators)
                for q in tr.queries),
        }
    return out


def main():
    request = json.load(sys.stdin)
    result = run_pass(request["jobs"], request["warmup"], request["trace"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
