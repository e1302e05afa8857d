import json
import os
from pathlib import Path

import pytest

import motivic
from conftest import run_python
from motivic.cli import main
from motivic.count import HAVE_COMPILED

QUADRIC = ["class-quadric", "--field", "3", "--ambient", "3",
           "--poly", "x0*x1 - x2*x3"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quadric_text_report(capsys):
    code, out, err = _run(capsys, QUADRIC)
    assert code == 0
    assert "class: 1 + 2*L + L^2" in out
    assert "residue: 1" in out
    assert "oracle: count_measure 16, count_points 16 [pass]" in out
    assert "status: ok" in out
    assert "elapsed" in err and "elapsed" not in out


def test_quadric_json_report(capsys):
    code, out, _ = _run(capsys, QUADRIC + ["--json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "class-quadric"
    assert report["status"] == "ok"
    assert report["result"]["class_str"] == "1 + 2*L + L^2"
    assert report["input"]["field"] == "3"
    assert report["verification"]["oracle"]["status"] == "pass"
    assert all(
        s["status"] in ("pass", "skipped")
        for s in report["verification"]["steps"]
    )


def test_reports_are_byte_identical(capsys):
    _, first, _ = _run(capsys, QUADRIC + ["--json"])
    _, second, _ = _run(capsys, QUADRIC + ["--json"])
    assert first == second
    assert "time" not in json.loads(first).get("verification", {})


def test_count_command(capsys):
    code, out, _ = _run(capsys, [
        "count", "--field", "5", "--ambient", "2", "--poly", "x0*x1 - x2^2",
    ])
    assert code == 0
    assert "count: 6" in out


def test_count_needs_finite_field(capsys):
    code, _, err = _run(capsys, [
        "count", "--field", "Q", "--ambient", "2", "--poly", "x0*x1",
    ])
    assert code == 2
    assert "finite" in err


def test_missing_field_and_ambient(capsys):
    code, _, err = _run(capsys, ["class-quadric", "--ambient", "2",
                                 "--poly", "x0^2"])
    assert code == 2 and "--field" in err
    code, _, err = _run(capsys, ["class-quadric", "--field", "3",
                                 "--poly", "x0^2"])
    assert code == 2 and "--ambient" in err


def test_syntax_error_exits_two(capsys):
    code, _, err = _run(capsys, [
        "class-quadric", "--field", "3", "--ambient", "2",
        "--poly", "x0 + + * x1",
    ])
    assert code == 2
    assert "position" in err


def test_budget_exceeded_exits_two(capsys):
    code, _, err = _run(capsys, [
        "count", "--field", "3", "--ambient", "20",
    ])
    assert code == 2 and "budget" in err
    code, _, err = _run(capsys, QUADRIC + ["--budget", "10"])
    assert code == 2 and "budget" in err


def test_wrong_poly_arity(capsys):
    code, _, err = _run(capsys, [
        "class-quadric", "--field", "3", "--ambient", "2",
        "--poly", "x0^2", "--poly", "x1^2",
    ])
    assert code == 2
    assert "exactly one" in err


def test_arrangement_command(capsys):
    code, out, _ = _run(capsys, [
        "class-arrangement", "--field", "3", "--ambient", "2",
        "--form", "x0", "--form", "x1",
    ])
    assert code == 0
    assert "class: 1 + 2*L" in out
    assert "count_measure 7, count_points 7 [pass]" in out


def test_cone_command(capsys):
    code, out, _ = _run(capsys, [
        "class-cone", "--field", "5", "--ambient", "3",
        "--poly", "x0^3 + x1^3 + x2^3",
    ])
    assert code == 0
    assert "count_measure 31, count_points 31 [pass]" in out


def test_cubic_command_with_point(capsys):
    code, out, _ = _run(capsys, [
        "class-cubic-singular", "--field", "3", "--ambient", "3",
        "--poly", "x0*x1*x3 - x2^2*x3 + x0^3", "--point", "0,0,0,1",
    ])
    assert code == 0
    assert "count_measure 13, count_points 13 [pass]" in out


def test_two_quadrics_command(capsys):
    code, out, _ = _run(capsys, [
        "class-two-quadrics", "--field", "3", "--ambient", "4",
        "--poly", "x0*x1 - x2*x3 - x4^2", "--poly", "x0^2 + x1*x2 + x3*x4",
    ])
    assert code == 0
    assert "residue: indeterminate" in out
    assert "count_measure 64, count_points 64 [pass]" in out


def test_descend_command(capsys):
    code, out, _ = _run(capsys, [
        "descend", "--field", "3,2", "--ambient", "2",
        "--form", "x0 + t*x1", "--form", "x0 - t*x1",
    ])
    assert code == 0
    assert "count_measure 1, count_points 1 [pass]" in out


def test_rational_field_skips_oracle(capsys):
    code, out, _ = _run(capsys, [
        "class-quadric", "--field", "Q", "--ambient", "2",
        "--poly", "x0^2 - x1^2 - x2^2", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["oracle"]["status"] == "skipped"
    assert report["result"]["class_str"] == "1 + L"


def test_no_verify_skips_everything(capsys):
    code, out, _ = _run(capsys, QUADRIC + ["--json", "--no-verify"])
    assert code == 0
    report = json.loads(out)
    assert not report["verification"]["enabled"]
    assert report["verification"]["oracle"]["status"] == "skipped"
    assert all(s["status"] == "skipped"
               for s in report["verification"]["steps"])


def test_verify_round_trip(tmp_path, capsys):
    _, out, _ = _run(capsys, QUADRIC + ["--json"])
    path = tmp_path / "report.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = _run(capsys, ["verify", str(path)])
    assert code == 0
    assert "byte-identical" in out2


def test_verify_detects_tampering(tmp_path, capsys):
    _, out, _ = _run(capsys, QUADRIC + ["--json"])
    report = json.loads(out)
    report["verification"]["oracle"]["count_points"] = 17
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, out2, _ = _run(capsys, ["verify", str(path)])
    assert code == 3
    assert "mismatch" in out2


def test_verify_unreadable_report(tmp_path, capsys):
    code, _, err = _run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    code, _, err = _run(capsys, ["verify", str(bad)])
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    (("options", "budget"), 5, "budget is 5"),
    (("polynomials",), ["x0^3 + x1"], "not homogeneous"),
], ids=["budget", "polynomial"])
def test_verify_recomputation_errors_exit_two(tmp_path, capsys, field, value,
                                               message):
    # A saved report edited so that re-running its job fails: the error
    # reaches the same exit code and message as a direct run.
    _, out, _ = _run(capsys, QUADRIC + ["--json"])
    report = json.loads(out)
    holder = report["input"]
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, out2, err = _run(capsys, ["verify", str(path)])
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out2 == ""


@pytest.mark.parametrize("knob", ["MOTIVIC_BUDGET", "MOTIVIC_WORKERS"])
def test_non_integer_knob_exits_two(monkeypatch, capsys, knob):
    monkeypatch.setenv(knob, "abc")
    code, out, err = _run(capsys, ["count", "--field", "3", "--ambient", "1"])
    assert code == 2
    assert err == "error: %s must be an integer, got 'abc'\n" % knob
    assert out == ""
    code, _, err = _run(capsys, ["selftest"])
    assert code == 2
    assert err == "error: %s must be an integer, got 'abc'\n" % knob


def test_oracle_obeys_job_budget(monkeypatch, capsys):
    # The oracle's atom counts take --budget, not the MOTIVIC_BUDGET default.
    monkeypatch.setenv("MOTIVIC_BUDGET", "10")
    code, out, err = _run(capsys, [
        "class-cubic-singular", "--field", "3", "--ambient", "3",
        "--poly", "x0*x1*x3 + x2^3 + x1^3", "--budget", "1000000", "--json",
    ])
    assert code == 0, err
    report = json.loads(out)
    assert report["verification"]["oracle"]["status"] == "pass"
    assert report["status"] == "ok"


def test_selftest(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert "selftest: 5/5 ok" in out
    kernel = "compiled" if HAVE_COMPILED else "pure"
    assert out.splitlines()[0] == "selftest kernel: %s" % kernel


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point():
    # The caller's counting knobs must not reach the child: a tiny
    # MOTIVIC_BUDGET, say, would turn the count into a BudgetError.
    env = {k: v for k, v in os.environ.items()
           if k not in ("MOTIVIC_PURE", "MOTIVIC_BUDGET", "MOTIVIC_WORKERS")}
    out = run_python(["-m", "motivic.cli", "count", "--field", "3",
                      "--ambient", "1"], env)
    assert out.returncode == 0, out.stderr
    assert "count: 4" in out.stdout
    # A child started the same way imports the package under test.
    where = run_python(["-c", "import motivic; print(motivic.__file__)"], env)
    assert where.returncode == 0, where.stderr
    assert Path(where.stdout.strip()) == Path(motivic.__file__).resolve()
