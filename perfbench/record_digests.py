"""Rewrite perfbench/digests.json from one pass of each workload.

The recorded digests pin the report bytes at the default seed.  Rerun this
only when a change alters report bytes on purpose, and say so in the change:

    python3 perfbench/record_digests.py
"""

import json
import sys

import run

sys.path[:0] = [str(run.SRC)]
import workloads  # noqa: E402  (needs the checkout's sources on the path)


def main():
    env = run.child_env()
    out = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.generate(name, run.DEFAULT_SEED)
        result = run.run_pass(env, jobs, workloads.warmup(
            name, run.DEFAULT_SEED), False)
        if any(c != 0 for c in result["codes"]):
            print("%s: a job failed; nothing written" % name, file=sys.stderr)
            return 1
        out[name] = {"digest": run.workload_digest(result["digests"]),
                     "jobs": result["digests"]}
        print("%s %s" % (name, out[name]["digest"]))
    run.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
