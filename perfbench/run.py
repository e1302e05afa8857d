"""Time-to-certified-report benchmark for motivic.

Generates one seeded workload of CLI jobs, runs it in closed-loop passes
(one client, one process, one thread), checks every report and prints every
metric named in BENCHMARK.json, the last line being one JSON object:

    python3 perfbench/run.py --workload certify-mix --seed 0 --seconds 30 \
        --trace 0

Run it from anywhere inside a checkout; it measures the package under the
checkout's ``src`` and nothing installed elsewhere.  Each pass runs in a
fresh interpreter (perfbench/worker.py) that warms up on jobs from another
seed and then sees each job once, so no pass profits from an earlier one.
Passes repeat until ``--seconds`` is used up.  With ``--trace 0`` the passes
are timed and the end-to-end metrics are their medians, with times scaled to
reference host speed (see hostspeed.py); with ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics come from the traced ones.  Exit code 0 means every check passed, 1 a failed check, 2 a
usage error or a checkout without the package.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
KNOBS = ("MOTIVIC_PURE", "MOTIVIC_WORKERS", "MOTIVIC_BUDGET")
SETUP_PER_ROUND = 2
# a run must end within 180 s even if a pass hangs near its end
PASS_TIMEOUT_S = 120
# job_ms.p95 is a percentile claim only with this many samples beyond it
TAIL_SAMPLES = 10


class CheckFailed(Exception):
    pass


def child_env():
    """The environment of every child: the checkout's sources, no knobs."""
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def import_seconds(env):
    """(raw, scaled) wall seconds for a fresh interpreter to import
    motivic.cli; the scale is the reference loop timed around it.

    The wait blocks in waitpid: ``subprocess.run(timeout=...)`` polls at up
    to 50 ms intervals, which would round every sample up to the next poll.
    A timer kills a child that hangs instead.
    """
    refs = [hostspeed.reference_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import motivic.cli"],
                            env=env, cwd=ROOT)
    killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed("import motivic.cli exited with %d" % code)
    refs += [hostspeed.reference_seconds() for _ in range(3)]
    return elapsed, elapsed * hostspeed.REF_S / statistics.median(refs)


def run_pass(env, jobs, warmup, traced):
    request = json.dumps({"jobs": jobs, "warmup": warmup, "trace": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=request, env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed("a pass ran longer than %d s" % PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise CheckFailed("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def workload_digest(job_digests):
    return hashlib.sha256("\n".join(job_digests).encode()).hexdigest()


def expected_digests(workload, seed, first_pass):
    """Per-job report digests every pass must reproduce.

    At the default seed they are the recorded ones, so a change to report
    bytes shows without a second checkout; at other seeds the first pass
    sets them and later passes, traced or not, must match.
    """
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text())[workload]
        if workload_digest(recorded["jobs"]) != recorded["digest"]:
            raise CheckFailed("digests.json is inconsistent for " + workload)
        return recorded["jobs"]
    return first_pass["digests"]


def failed_jobs(result, expected):
    return sum(
        1 for code, status, digest, want in zip(
            result["codes"], result["statuses"], result["digests"], expected)
        if code != 0 or status != "ok" or digest != want)


def percentile(values, share):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share))
    return ordered[rank - 1], len(ordered) - rank


def job_seconds(p, scaled=True):
    """A pass's job times, each scaled by REF_S over the mean of the
    reference loops timed just before and after it unless not scaled."""
    if not scaled:
        return p["job_s"]
    refs = p["refs"]
    return [t * 2 * hostspeed.REF_S / (refs[i] + refs[i + 1])
            for i, t in enumerate(p["job_s"])]


def end_to_end(passes, setup, scaled=True):
    times = [job_seconds(p, scaled) for p in passes]
    latency = [t * 1e3 for ts in times for t in ts]
    p95, beyond = percentile(latency, 0.95)
    rates = [sum(1 for c, s in zip(p["codes"], p["statuses"])
                 if c == 0 and s == "ok") / sum(ts)
             for p, ts in zip(passes, times)]
    return {
        "jobs_per_s": (statistics.median(rates), len(rates)),
        "job_ms.p50": (statistics.median(latency), len(latency)),
        "job_ms.p95": (p95, len(latency), beyond),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        len(passes)),
        "setup_s": (statistics.median(x[1 if scaled else 0] for x in setup),
                    len(setup)),
    }


def per_layer(workload, traced, untraced):
    """Per-layer metrics; counts must repeat exactly across traced passes."""
    counts = [(p["count"], {k: v[0] for k, v in p["layers"].items()})
              for p in traced]
    if any(c != counts[0] for c in counts):
        raise CheckFailed("per-layer counts differ between traced passes")
    count, calls = counts[0]
    if workload == "engine-only" and count["calls"] != 0:
        raise CheckFailed("engine-only made %d count_points calls"
                          % count["calls"])
    n = len(traced)

    def self_s(*layers):
        return (statistics.median(
            sum(p["layers"][layer][1] for layer in layers) for p in traced), n)

    def scaled_wall(passes):
        return statistics.median(sum(job_seconds(p)) for p in passes)

    count_s = self_s("count", "count.bigprime")
    overhead = scaled_wall(traced) / scaled_wall(untraced)
    cands = count["candidates"]
    return {
        "cli.self_s": self_s("cli"),
        "cli.render.self_s": self_s("cli.render"),
        "parse.calls": (calls["parse"], n),
        "parse.self_s": self_s("parse"),
        "strat.calls": (calls["strat"], n),
        "strat.self_s": self_s("strat"),
        "descent.calls": (calls["descent"], n),
        "descent.self_s": self_s("descent"),
        "kclass.identity.calls": (calls["kclass.identity"], n),
        "kclass.identity.self_s": self_s("kclass.identity"),
        "kclass.oracle.self_s": self_s("kclass.oracle"),
        "count.calls": (count["calls"], n),
        "count.distinct": (count["distinct"], n),
        "count.distinct_ratio": (
            count["distinct"] / count["calls"] if count["calls"] else 0.0, n),
        "count.self_s": count_s,
        "count.candidates": (cands, n),
        "count.ns_per_candidate": (
            count_s[0] * 1e9 / cands if cands else 0.0, n),
        "count.term_evals": (count["term_evals"], n),
        "count.bigprime.calls": (calls["count.bigprime"], n),
        "count.bigprime.self_s": self_s("count.bigprime"),
        "count.enumerate.calls": (calls["count.enumerate"], n),
        "count.enumerate.self_s": self_s("count.enumerate"),
        "trace.overhead": (overhead, min(len(traced), len(untraced))),
        "host.ref_ms": (statistics.median(
            r * 1e3 for p in untraced for r in p["refs"]), len(untraced)),
        "kernel.compiled": (int(traced[0]["compiled"]), n),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motivic" / "__init__.py").is_file():
        print("error: no package at %s; run inside a motivic checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import motivic
    import recount
    import workloads

    if Path(motivic.__file__).resolve().parent != SRC / "motivic":
        print("error: imported motivic from %s" % motivic.__file__,
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of " + ", ".join(
            workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    jobs = workloads.generate(args.workload, args.seed)
    warmup = workloads.warmup(args.workload, args.seed)

    try:
        passes, setup = [], []
        kinds = (False, True) if args.trace else (False,)
        deadline = time.monotonic() + args.seconds
        while True:
            started = time.monotonic()
            for traced in kinds:
                passes.append((traced, run_pass(env, jobs, warmup, traced)))
            if not args.trace:
                # set-up samples spread over the run, like the passes
                setup.extend(import_seconds(env)
                             for _ in range(SETUP_PER_ROUND))
            if time.monotonic() + (time.monotonic() - started) > deadline:
                break

        expected = expected_digests(args.workload, args.seed, passes[0][1])
        attempted = sum(len(p["codes"]) for _, p in passes)
        failed = sum(failed_jobs(p, expected) for _, p in passes)
        if len({p["compiled"] for _, p in passes}) != 1:
            raise CheckFailed("the kernel changed between passes")
        if args.workload == "certify-mix":
            mismatches = recount.check(jobs, passes[0][1]["oracle_counts"])
            attempted += mismatches[1]
            failed += len(mismatches[0])
            for line in mismatches[0]:
                print("recount mismatch: " + line, file=sys.stderr)
        timed = [p for traced, p in passes if not traced]
        if args.trace:
            metrics = per_layer(args.workload,
                                [p for traced, p in passes if traced], timed)
        else:
            metrics = end_to_end(timed, setup)
    except CheckFailed as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1

    compiled = passes[0][1]["compiled"]
    print("env: workload=%s seed=%d kernel=%s python=%s nproc=%d passes=%d "
          "stripped=%s" % (
              args.workload, args.seed, "compiled" if compiled else "pure",
              platform.python_version(), os.cpu_count(), len(passes),
              ",".join(k for k in KNOBS if k in os.environ) or "none"))
    print("digest: %s" % workload_digest(passes[0][1]["digests"]))
    print("failed_ops: %d/%d" % (failed, attempted))
    print("pass_wall_s: " + " ".join(
        "%.3f%s" % (p["wall_s"], "t" if traced else "")
        for traced, p in passes))
    print("host_ref_ms: " + " ".join(
        "%.3f" % (statistics.median(p["refs"]) * 1e3) for _, p in passes))
    if not args.trace:
        raw = end_to_end([p for _, p in passes], setup, scaled=False)
        print("unscaled: " + " ".join(
            "%s=%.6g" % (name, raw[name][0]) for name in
            ("jobs_per_s", "job_ms.p50", "job_ms.p95", "setup_s")))
    out = {}
    for m in wanted:
        value, samples = metrics[m["name"]][:2]
        note = ""
        if m["name"] == "job_ms.p95":
            beyond = metrics[m["name"]][2]
            note = " (%d beyond%s)" % (beyond, "" if beyond >= TAIL_SAMPLES
                                       else ", too few for a percentile")
        print("%-24s %14.6g %-6s n=%d%s" % (m["name"], value, m["unit"],
                                            samples, note))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
