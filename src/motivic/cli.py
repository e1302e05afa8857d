"""Command-line frontend: parse inputs, dispatch to an engine, verify, report.

Every run produces one self-contained report: human text on stdout by
default, canonical JSON behind --json.  Reports never contain wall-clock
data, so identical inputs give byte-identical output; elapsed time goes
to stderr.  The JSON comes from render_json, one writer that knows only the
types a report holds and raises on any other; its bytes are those of
json.dumps(sort_keys=True, indent=2).  verify reads a saved report's input
echo back type by type.  Exit codes: 0 all checks pass, 2 bad input or
precondition, 3 verification mismatch or internal defect.
"""

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str

from .fields import FieldSpec, field_from_text, prime_field
from .parse import parse_point, parse_poly
from .count import BudgetError, CountQuery, count_points
from .kclass import Counts
from .strat import (
    DefectError,
    arrangement_inclusion_exclusion,
    class_of_arrangement,
    class_of_cone,
    class_of_quadric,
    class_of_singular_cubic,
    class_of_two_quadric_union,
)
from .descent import GaloisContext, class_of_descended_arrangement

CLASS_COMMANDS = (
    "class-quadric",
    "class-arrangement",
    "class-cone",
    "class-cubic-singular",
    "class-two-quadrics",
    "descend",
)


def _field_text(spec: FieldSpec) -> str:
    if spec.kind == "Q":
        return "Q"
    if spec.kind == "Fp":
        return str(spec.p)
    return "%d,%d" % (spec.p, spec.m)


_NONE = type(None)
_DEFAULT_HEIGHT = 10  # the search height over Q without --height


def _echoed(holder, key, *types):
    """holder[key], of one of these exact types (a bool is no int); a list
    must hold only str."""
    value = holder[key]
    if type(value) not in types or (
            type(value) is list and any(type(s) is not str for s in value)):
        raise ValueError("bad %s %r" % (key, value))
    return value


class JobSpec:
    """One normalized run request; the report's input echo rebuilds it."""

    __slots__ = ("command", "field", "ambient", "polynomials", "forms",
                 "point", "seed", "height", "budget", "verify")

    def __init__(self, command, field, ambient, polynomials=(), forms=(),
                 point=None, seed=0, height=_DEFAULT_HEIGHT, budget=None,
                 verify=True):
        self.command = command
        self.field = field
        self.ambient = ambient
        self.polynomials = list(polynomials)
        self.forms = list(forms)
        self.point = point
        self.seed = seed
        self.height = height
        self.budget = budget
        self.verify = verify
        if command not in ("count",) + CLASS_COMMANDS:
            raise ValueError("unknown command %r" % command)
        if ambient is None:
            raise ValueError("--ambient is required")
        if ambient < 1:
            raise ValueError("ambient projective space needs dimension >= 1")
        if budget is not None and budget < 0:
            raise ValueError("--budget must be at least 0, got %d" % budget)
        if height < 1:
            raise ValueError("--height must be at least 1, got %d" % height)
        # the report echoes every input, so one the command never reads
        # would pass for an input of the job
        if seed != 0 and command != "descend":
            raise ValueError("%s takes no --seed" % command)
        if height != _DEFAULT_HEIGHT and command not in (
                "class-quadric", "class-cubic-singular"):
            raise ValueError("%s takes no --height" % command)
        if not verify and command == "count":
            raise ValueError("count takes no --no-verify")
        if point is not None and command != "class-cubic-singular":
            raise ValueError("%s takes no --point" % command)
        if command in ("class-arrangement", "descend"):
            if self.polynomials:
                raise ValueError("%s takes no --poly" % command)
        elif self.forms:
            raise ValueError("%s takes no --form" % command)

    @classmethod
    def from_args(cls, args):
        if args.field is None:
            raise ValueError("--field is required")
        return cls(
            command=args.command,
            field=field_from_text(args.field),
            ambient=args.ambient,
            polynomials=args.poly or [],
            forms=args.form or [],
            point=args.point,
            seed=args.seed,
            height=args.height,
            budget=args.budget,
            verify=not args.no_verify,
        )

    @classmethod
    def from_echo(cls, command, echo):
        """The job a report's input echo records.

        A value of the wrong type, as a hand-edited report may hold, raises
        ValueError; an echo of the wrong shape raises KeyError or TypeError.
        """
        opts = echo["options"]
        return cls(
            command=command,
            field=field_from_text(_echoed(echo, "field", str)),
            ambient=_echoed(echo, "ambient", int),
            polynomials=_echoed(echo, "polynomials", list),
            forms=_echoed(echo, "forms", list),
            point=_echoed(echo, "point", str, _NONE),
            seed=_echoed(opts, "seed", int),
            height=_echoed(opts, "height", int),
            budget=_echoed(opts, "budget", int, _NONE),
            verify=_echoed(opts, "verify", bool),
        )

    def echo(self):
        return {
            "field": _field_text(self.field),
            "ambient": self.ambient,
            "polynomials": list(self.polynomials),
            "forms": list(self.forms),
            "point": self.point,
            "options": {
                "seed": self.seed,
                "height": self.height,
                "budget": self.budget,
                "verify": self.verify,
            },
        }


def _dispatch(job):
    """(StratResult, master oracle CountQuery) for a class command.

    The oracle is stated over every field; _verification decides whether
    it is counted.  A union of hyperplanes or of two quadrics is a union
    query, counted factor by factor.  Engines that search for points obey
    job.budget.
    """
    spec = job.field
    nvars = job.ambient + 1

    if job.command == "class-quadric":
        if len(job.polynomials) != 1:
            raise ValueError("class-quadric takes exactly one --poly")
        f = parse_poly(job.polynomials[0], spec, nvars)
        result = class_of_quadric(f, height=job.height, budget=job.budget)
        return result, CountQuery(spec, job.ambient, [f])

    if job.command == "class-arrangement":
        if not job.forms:
            raise ValueError("class-arrangement needs at least one --form")
        forms = [parse_poly(s, spec, nvars) for s in job.forms]
        result = class_of_arrangement(forms)
        return result, CountQuery.union(spec, job.ambient, forms)

    if job.command == "class-cone":
        # generators live in P^(ambient-1); the cone fills P^ambient
        if not job.polynomials:
            raise ValueError("class-cone needs at least one --poly")
        gens = [parse_poly(s, spec, job.ambient) for s in job.polynomials]
        result = class_of_cone(gens)
        lifted = [g.insert_variable(g.nvars) for g in gens]
        return result, CountQuery(spec, job.ambient, lifted)

    if job.command == "class-cubic-singular":
        if len(job.polynomials) != 1:
            raise ValueError("class-cubic-singular takes exactly one --poly")
        f = parse_poly(job.polynomials[0], spec, nvars)
        x = parse_point(job.point, spec, nvars) if job.point else None
        result = class_of_singular_cubic(f, x, height=job.height,
                                         budget=job.budget)
        return result, CountQuery(spec, job.ambient, [f])

    if job.command == "class-two-quadrics":
        if len(job.polynomials) != 2:
            raise ValueError("class-two-quadrics takes exactly two --poly")
        f1 = parse_poly(job.polynomials[0], spec, nvars)
        f2 = parse_poly(job.polynomials[1], spec, nvars)
        result = class_of_two_quadric_union(f1, f2, budget=job.budget)
        return result, CountQuery.union(spec, job.ambient, [f1, f2])

    if job.command == "descend":
        if not job.forms:
            raise ValueError("descend needs at least one --form")
        if not spec.is_finite:
            raise ValueError("descent needs a finite field")
        ctx = GaloisContext(prime_field(spec.p), spec)
        forms = [parse_poly(s, spec, nvars) for s in job.forms]
        result = class_of_descended_arrangement(ctx, forms, job.ambient,
                                                seed=job.seed)
        # the final fibration identity's left side is V(product) over the
        # base field, which is exactly the master oracle here
        return result, result.trace[-1].identity.lhs[0].query

    raise ValueError("unknown command %r" % job.command)


def _verification(job, result, oracle_query):
    """(verification dict, failed) for one job's result.

    Its identities, atoms and oracle share one Counts under job.budget, so
    each distinct query of the job is counted once; nothing is kept across
    jobs.
    """
    counts = Counts(job.budget)
    steps = []
    failed = False
    for st in result.trace:
        entry = {"rule": st.rule}
        if st.identity is None or not job.verify:
            entry["status"] = "skipped"
        else:
            lv, rv = st.identity.sides(counts)
            entry["lhs"] = lv
            entry["rhs"] = rv
            entry["status"] = "pass" if lv == rv else "fail"
            failed = failed or lv != rv
        steps.append(entry)

    oracle = {"status": "skipped"}
    if job.verify and oracle_query.spec.is_finite:
        q = oracle_query.spec.order
        measured = result.class_expr.count_measure(q, counts)
        counted = counts[oracle_query]
        oracle = {
            "status": "pass" if measured == counted else "fail",
            "count_measure": measured,
            "count_points": counted,
        }
        failed = failed or measured != counted

    return {"enabled": job.verify, "steps": steps, "oracle": oracle}, failed


def run(job):
    """Execute a JobSpec.  Returns (report dict, exit code)."""
    report = {"command": job.command, "input": job.echo()}

    if job.command == "count":
        gens = [parse_poly(s, job.field, job.ambient + 1)
                for s in job.polynomials]
        n = count_points(CountQuery(job.field, job.ambient, gens),
                         budget=job.budget)
        report["result"] = {"count": n}
        report["status"] = "ok"
        return report, 0

    result, oracle_query = _dispatch(job)
    verification, failed = _verification(job, result, oracle_query)
    report["result"] = result.describe()
    report["verification"] = verification
    report["status"] = "defect" if failed else "ok"
    return report, 3 if failed else 0


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def render_json(report) -> str:
    """The canonical JSON text of a report.

    The bytes are those of json.dumps(report, sort_keys=True, indent=2) plus
    a newline, but only the types a report holds are written: dicts with
    str keys, lists, str, int, bool and None.  Anything else, a float or a
    tuple say, raises TypeError.
    """
    out = []
    _emit(report, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _emit(value, newline, put):
    """Append the JSON text of value, nested at the indent in newline."""
    kind = type(value)
    if kind is str:
        put(_json_str(value))
    elif kind is int:
        put(int.__repr__(value))
    elif value is None or kind is bool:
        put(_JSON_CONSTANTS[value])
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError("report key %r is not a str" % (key,))
            put(sep)
            put(_json_str(key))
            put(": ")
            _emit(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is list:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _emit(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError("a report holds no %s" % kind.__name__)


def render_text(report) -> str:
    lines = ["command: %s" % report["command"]]
    echo = report["input"]
    lines.append("field: %s  ambient: P^%d" % (echo["field"], echo["ambient"]))
    for src in echo["polynomials"]:
        lines.append("poly: %s" % src)
    for src in echo["forms"]:
        lines.append("form: %s" % src)

    res = report["result"]
    if "count" in res:
        lines.append("count: %d" % res["count"])
    else:
        lines.append("class: %s" % res["class_str"])
        lines.append("residue: %s" % ("indeterminate" if res["residue"] is None
                                      else res["residue"]))
        if res["hypotheses"]:
            lines.append("hypotheses: " + ", ".join(
                "%s=%s" % (name, ok) for name, ok in res["hypotheses"]))
        lines.append("trace:")
        verification = report["verification"]
        for step, v in zip(res["trace"], verification["steps"]):
            if v["status"] == "skipped":
                tag = "[ --- ]"
            else:
                tag = "[%s] %d == %d" % (v["status"], v["lhs"], v["rhs"])
            lines.append("  %s %s: %s" % (tag, step["rule"],
                                          step["description"]))
        oracle = verification["oracle"]
        if oracle["status"] == "skipped":
            lines.append("oracle: skipped")
        else:
            lines.append("oracle: count_measure %d, count_points %d [%s]"
                         % (oracle["count_measure"], oracle["count_points"],
                            oracle["status"]))
    lines.append("status: %s" % report["status"])
    return "\n".join(lines) + "\n"


def _verify_report(path):
    """Re-run a saved JSON report's job and demand a byte-identical report.

    Errors raised by the recomputation itself reach main's handlers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        job = JobSpec.from_echo(saved["command"], saved["input"])
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as e:
        print("error: cannot read report: %s" % e, file=sys.stderr)
        return 2
    fresh, code = run(job)
    text = render_json(fresh)
    try:
        same = render_json(saved) == text
    except TypeError:  # a float, say, which no report holds
        same = False
    if same:
        print("report verified: recomputation is byte-identical")
        return code
    print("report mismatch: recomputation differs from the saved report")
    return 3


def _selftest():
    """Fixture suite: nodal cubic, cone, arrangement, descent example."""
    from .fields import extension_field

    checks = []

    def check(name, ok):
        checks.append((name, ok))
        print("selftest %s: %s" % (name, "ok" if ok else "FAIL"))

    # nodal plane cubic: one node, class == L^2 + L, so count == 0 mod q
    for q in (5, 7):
        spec = prime_field(q)
        f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", spec, 3)
        n = count_points(CountQuery(spec, 2, [f]))
        check("nodal-cubic-F%d" % q, n % q == 0)

    # cone in P^3 over a plane cubic: #X = 1 + q * #Z
    spec = prime_field(5)
    z = parse_poly("x0^3 + x1^3 + x2^3", spec, 3)
    result = class_of_cone([z])
    nz = count_points(CountQuery(spec, 2, [z]))
    nx = count_points(CountQuery(spec, 3, [z.insert_variable(3)]))
    ok = nx == 1 + 5 * nz
    for st in result.trace:
        if st.identity is not None:
            lv, rv = st.identity.sides()
            ok = ok and lv == rv
    check("cone-fibration", ok)

    # arrangement: engine vs inclusion-exclusion oracle, and the count
    spec = prime_field(3)
    forms = [parse_poly(s, spec, 3) for s in ("x0", "x1")]
    result = class_of_arrangement(forms)
    ie = arrangement_inclusion_exclusion(forms)
    n = count_points(CountQuery(spec, 2, [forms[0] * forms[1]]))
    check("arrangement", str(result.class_expr) == str(ie)
          and result.class_expr.count_measure(3) == n)

    # descended pair of conjugate lines: count 1 in P^2, 4 in P^3
    ctx = GaloisContext(prime_field(3), extension_field(3, 2))
    pair = [parse_poly("x0 + t*x1", ctx.ext, 3),
            parse_poly("x0 - t*x1", ctx.ext, 3)]
    r2 = class_of_descended_arrangement(ctx, pair, 2)
    r3 = class_of_descended_arrangement(ctx, pair, 3)
    check("descent-conjugate-lines",
          r2.class_expr.count_measure(3) == 1
          and r3.class_expr.count_measure(3) == 4)

    if all(ok for _, ok in checks):
        print("selftest: %d/%d ok" % (len(checks), len(checks)))
        return 0
    print("selftest: failures", file=sys.stderr)
    return 3


def _parser():
    p = argparse.ArgumentParser(
        prog="motivic",
        description="classes of low-degree hypersurfaces in the Grothendieck "
                    "ring, certified by finite-field point counts",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--field", default=None,
                        help="p for F_p, 'p,m' for F_{p^m}, or Q")
        sp.add_argument("--ambient", type=int, default=None,
                        help="n for the ambient projective space P^n")
        sp.add_argument("--poly", action="append", default=None,
                        help="polynomial source text (repeatable)")
        sp.add_argument("--form", action="append", default=None,
                        help="linear form source text (repeatable)")
        sp.add_argument("--point", default=None,
                        help="comma-separated point coordinates")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--height", type=int, default=_DEFAULT_HEIGHT,
                        help="search height bound over Q")
        sp.add_argument("--budget", type=int, default=None,
                        help="enumeration budget for point counting")
        sp.add_argument("--json", action="store_true",
                        help="emit the structured report")
        sp.add_argument("--no-verify", action="store_true",
                        help="skip identity and oracle verification")

    for name in ("count",) + CLASS_COMMANDS:
        common(sub.add_parser(name))

    vp = sub.add_parser("verify", help="re-run a saved JSON report")
    vp.add_argument("report", help="path to a report produced with --json")

    sub.add_parser("selftest", help="run the built-in fixture suite")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _selftest()
        if args.command == "verify":
            return _verify_report(args.report)
        job = JobSpec.from_args(args)
        started = time.monotonic()
        report, code = run(job)
        sys.stdout.write(render_json(report) if args.json
                         else render_text(report))
        print("elapsed %.3fs" % (time.monotonic() - started), file=sys.stderr)
        return code
    except DefectError as e:
        print("defect: %s" % e, file=sys.stderr)
        return 3
    except BudgetError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
