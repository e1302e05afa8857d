"""Shared helpers: trace verification, brute-force cross-checks and child
Python processes."""

import os
import subprocess
import sys
from pathlib import Path

import motivic
from motivic.count import CountQuery, count_points

_REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the `motivic` the suite imported: `src/` in a
# checkout, site-packages in an install.  Absolute, so a child finds the code
# under test from any working directory.
_IMPORT_ROOT = str(Path(motivic.__file__).resolve().parents[1])


def assert_trace_verifies(result, budget=None):
    """Every counting identity recorded in the trace must balance exactly."""
    checked = 0
    for step in result.trace:
        if step.identity is None:
            continue
        lv, rv = step.identity.sides(budget=budget)
        assert lv == rv, "%s: %d != %d" % (step.rule, lv, rv)
        checked += 1
    return checked


def brute_count(spec, n, gens):
    return count_points(CountQuery(spec, n, gens))


def run_python(args, env, root=None):
    """Run the suite's interpreter with `args` from the repo root.

    `env` is the child's whole environment, with the directory holding the
    `motivic` under test put first on its PYTHONPATH, so the child imports
    the same copy of the package as the suite.  Given `root`, a copy of the
    checkout, the child runs there on `root/src` instead.
    """
    cwd, import_root = _REPO_ROOT, _IMPORT_ROOT
    if root is not None:
        cwd, import_root = root, str(Path(root, "src"))
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
