import copy
import gc
import hashlib
import json
import operator
import os
import pickle
import sys
import types
from collections import OrderedDict, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import motivic
from conftest import run_python
import motivic.kclass
from motivic.cli import JobSpec, _dispatch, main, render_json, run
from motivic.fields import FieldElem, FieldSpec, _Piece, field_from_text
from motivic.kclass import (ClassExpr, Counts, EtaleAtom, StratResult,
                            VarietyAtom)
from motivic.poly import HomogPoly, _Packing, _monomial_tables

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


def test_engine_point_search_obeys_budget(capsys):
    # the search for a point of Q1 and Q2 is charged only for the
    # candidates it walks and stops early; the check of step (F) then
    # enumerates S, which lies in a hyperplane, in P^2(F7) and is charged
    # all 57 points of P^2(F7) up front
    job = [
        "class-two-quadrics", "--field", "7", "--ambient", "4",
        "--poly", "x0*x1+x2*x3+x4^2", "--poly", "x0*x2+x1*x4+x3^2",
        "--no-verify",
    ]
    code, out, err = _run(capsys, job + ["--budget", "56"])
    assert code == 2 and out == ""
    assert "enumerating #V(" in err
    assert "in P^2(F7) needs 57 candidates, budget is 56" in err
    code, out, _ = _run(capsys, job + ["--budget", "57"])
    assert code == 0 and "status: ok" in out


def test_rational_point_search_obeys_budget(capsys):
    # x0^2+x1^2+x2^2-7*x3^2 is indefinite, so no real-place argument rules
    # out a zero, but it has none over Q_2: the height-10 walk over Q finds
    # nothing and is charged for every candidate it walks
    job = [
        "class-quadric", "--field", "Q", "--ambient", "3",
        "--poly", "x0^2+x1^2+x2^2-7*x3^2", "--no-verify",
    ]
    code, out, err = _run(capsys, job + ["--budget", "100"])
    assert code == 2 and out == ""
    assert ("in P^3 up to height 10 among the first 100 candidates, "
            "budget is 100") in err
    code, out, _ = _run(capsys, job + ["--budget", "100", "--height", "1"])
    assert code == 0 and "no rational zero up to height 1" in out


def test_definite_rational_form_needs_no_walk(capsys, monkeypatch):
    import time

    import motivic.quadform

    def no_walk(*args, **kwargs):
        raise AssertionError("a definite form was searched")

    monkeypatch.setattr(motivic.quadform, "first_point", no_walk)
    for poly in ("x0^2+x1^2+x2^2+x3^2+x4^2", "-x0^2-2*x1^2-x2^2-x3^2-3*x4^2"):
        t0 = time.perf_counter()
        code, out, _ = _run(capsys, [
            "class-quadric", "--field", "Q", "--ambient", "4",
            "--poly=" + poly, "--budget", "10", "--json",
        ])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["result"]["trace"][-1]["rule"] == (
            "unresolved-pointless-form")


def test_definite_form_report_matches_reference_walk(capsys, monkeypatch):
    """The real-place prune writes the bytes the height-bounded walk did."""
    import motivic.strat
    from motivic.points import rational_reps

    def reference_search(qf, height=10, budget=None):
        f = qf.poly()
        for pt in rational_reps(qf.nvars - 1, height):
            if not f.evaluate(pt):
                return pt
        return None

    job = ["class-quadric", "--field", "Q", "--ambient", "2",
           "--poly", "2*x0^2+x0*x1+x1^2+3*x2^2", "--height", "3", "--json"]
    code, pruned, _ = _run(capsys, job)
    assert code == 0 and "no rational zero up to height 3" in pruned
    monkeypatch.setattr(motivic.strat, "find_projective_point",
                        reference_search)
    code, walked, _ = _run(capsys, job)
    assert code == 0 and walked == pruned


def test_two_quadric_check_fits_default_budget_at_f101(capsys):
    # S = V(y1, h, L1, R) is empty here; walked in the hyperplane y1 = 0 it
    # costs the 10303 points of P^2(F101), far below the default budget
    code, out, err = _run(capsys, [
        "class-two-quadrics", "--field", "101", "--ambient", "4",
        "--poly", "x0*x1+x2*x3+x4^2", "--poly", "x0*x2+x1*x4+x3^2",
        "--no-verify",
    ])
    assert code == 0, err
    assert "status: ok" in out and "(0 points checked)" in out


def test_singular_point_search_obeys_budget(capsys):
    # without --point the cubic engine walks P^4(F7) for a singular point
    # and is charged only for the candidates it walks: (0:0:0:0:1) is the
    # last, the 2801st; the given point skips the search
    job = [
        "class-cubic-singular", "--field", "7", "--ambient", "4",
        "--poly", "x4*x0*x1 + x4*x2*x3 + x0^3 + x1^3 + x2^3 + x3^3",
        "--no-verify",
    ]
    code, out, err = _run(capsys, job + ["--budget", "2800"])
    assert code == 2 and out == ""
    assert "in P^4(F7) among the first 2800 candidates, budget is 2800" in err
    code, out, _ = _run(capsys, job + ["--budget", "2801"])
    assert code == 0 and "status: ok" in out
    code, out, _ = _run(capsys, job + ["--budget", "10",
                                       "--point", "0,0,0,0,1"])
    assert code == 0 and "status: ok" in out


def test_isotropic_point_search_obeys_budget(capsys):
    # over a finite field each isotropic-point search is charged for the
    # candidates it walks: the first zero of the P^6 form is the 4th
    # candidate, that of the split-off form in P^4 the 18th
    job = [
        "class-quadric", "--field", "7", "--ambient", "6",
        "--poly", "x0^2 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + 3*x6^2",
        "--no-verify",
    ]
    code, out, err = _run(capsys, job + ["--budget", "3"])
    assert code == 2 and out == ""
    assert "in P^6(F7) among the first 3 candidates, budget is 3" in err
    code, out, err = _run(capsys, job + ["--budget", "10"])
    assert code == 2 and out == ""
    assert "in P^4(F7) among the first 10 candidates, budget is 10" in err
    code, out, _ = _run(capsys, job + ["--budget", "18"])
    assert code == 0 and "status: ok" in out


def test_point_searches_pass_at_large_fields(capsys):
    # #P^4(F101), about 1.05 * 10^8 candidates, exceeds the default
    # budget, but the isotropic-point
    # searches stop at early points and are charged only for those walked;
    # the cubic's inner quadric in P^3 is searched under --budget
    code, out, _ = _run(capsys, [
        "class-quadric", "--field", "101", "--ambient", "4",
        "--poly", "x0^2+x1^2+x2^2+x3^2+x4^2", "--no-verify",
    ])
    assert code == 0 and "class: 1 + L + L^2 + L^3\n" in out
    cubic = [
        "class-cubic-singular", "--field", "101", "--ambient", "4",
        "--poly", "x4*x0*x1 + x4*x2*x3 + x0^3 + x1^3 + x2^3 + x3^3",
        "--point", "0,0,0,0,1", "--no-verify",
    ]
    code, out, _ = _run(capsys, cubic)
    assert code == 0 and "status: ok" in out
    code, out, _ = _run(capsys, cubic + ["--budget", "1"])
    assert code == 0 and "status: ok" in out


def test_cubic_inner_quadric_search_obeys_budget(capsys):
    # with --point the cubic engine still searches V(f2) in P^3(F7) for an
    # isotropic point, under the job's budget: the first zero of
    # x0^2 + x1^2 + x2^2 + x3^2 is the 18th candidate
    job = [
        "class-cubic-singular", "--field", "7", "--ambient", "4",
        "--poly", "x4*x0^2 + x4*x1^2 + x4*x2^2 + x4*x3^2 "
                  "+ x0^3 + x1^3 + x2^3 + x3^3",
        "--point", "0,0,0,0,1", "--no-verify",
    ]
    code, out, err = _run(capsys, job + ["--budget", "17"])
    assert code == 2 and out == ""
    assert "in P^3(F7) among the first 17 candidates, budget is 17" in err
    code, out, _ = _run(capsys, job + ["--budget", "18"])
    assert code == 0 and "status: ok" in out


def _queries_asked(job):
    """Every query a verified run of job counts, repeats included."""
    result, oracle = _dispatch(job)
    asked = [oracle]
    for step in result.trace:
        if step.identity is not None:
            asked += [t.query for t in step.identity.lhs + step.identity.rhs
                      if t.query is not None]
    asked += [atom.query() for _, _, atom in result.class_expr.residuals
              if isinstance(atom, motivic.kclass.VarietyAtom)]
    return asked


@pytest.mark.parametrize("job", [
    JobSpec("class-two-quadrics", field_from_text("3"), 4, polynomials=[
        "x0*x1 - x2*x3 - x4^2", "x0^2 + x1*x2 + x3*x4"]),
    # a scalar multiple and a repeat: the oracle is the engine's union
    JobSpec("class-arrangement", field_from_text("5"), 3, forms=[
        "2*x0 + x1", "x1 + x2", "x0 + 3*x1", "x1 + x2", "x3"]),
], ids=["two-quadrics", "arrangement"])
def test_each_distinct_query_is_counted_once_per_job(monkeypatch, job):
    counted = []
    real = motivic.kclass.count_points

    def spy(query, budget=None):
        counted.append(query)
        return real(query, budget=budget)

    monkeypatch.setattr(motivic.kclass, "count_points", spy)
    asked = _queries_asked(job)
    assert len(set(asked)) < len(asked)
    report, code = run(job)
    assert code == 0 and report["verification"]["oracle"]["status"] == "pass"
    assert len(counted) == len(set(counted))
    assert set(counted) == set(asked)
    # a second job counts afresh: nothing is kept between runs
    first = list(counted)
    assert run(job)[1] == 0
    assert counted == first + first


def test_jobs_leave_no_cycle_of_a_packing_or_a_function():
    """A packing or a subset walk that refers to itself is freed only by the
    cyclic collector.  With the collector off and every object it finds
    saved, an arrangement job and a descent job over F9, whose products
    pack over F_{p^m} and whose inclusion-exclusion walks the subsets,
    leave no _Packing and no function object to it."""
    F9 = field_from_text("3,2")
    jobs = [
        JobSpec("class-arrangement", F9, 3, forms=[
            "x0 + t*x1", "x1 + x2", "x0 + x2 + (2*t)*x3", "x3"]),
        JobSpec("descend", F9, 3, forms=[
            "x0 + t*x1 + x2", "x0 + (2*t)*x1 + x2", "x3"]),
    ]
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        for job in jobs:
            assert run(job)[1] == 0
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (_Packing, types.FunctionType))]
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    assert left == []


@pytest.mark.parametrize("job", [
    JobSpec("class-cone", field_from_text("5"), 3,
            polynomials=["x0^3 + x1^3 + x2^3"]),
    JobSpec("class-cubic-singular", field_from_text("7"), 3,
            polynomials=["x0*x1*x3 - x2^2*x3 + x0^3 + x1^3"],
            point="0,0,0,1"),
    JobSpec("class-two-quadrics", field_from_text("3"), 4, polynomials=[
        "x0*x1 - x2*x3 - x4^2", "x0^2 + x1*x2 + x3*x4"]),
    JobSpec("descend", field_from_text("3,2"), 3, forms=[
        "x0 + t*x1 + x2", "x0 + (2*t)*x1 + x2", "x3"]),
], ids=["cone", "cubic-singular", "two-quadrics", "descend"])
def test_variety_atoms_are_counted_through_their_own_query(job):
    result, _ = _dispatch(job)
    terms = [t for step in result.trace if step.identity is not None
             for t in step.identity.lhs + step.identity.rhs]
    atoms = [atom for _, _, atom in result.class_expr.residuals
             if isinstance(atom, VarietyAtom)]
    assert atoms
    for atom in atoms:
        query = atom.query()
        assert any(t.query is query for t in terms), atom
        # an equal atom of copied forms is the same residual, and an etale
        # atom is never merged with a variety atom
        twin = VarietyAtom(query.spec, query.n, [
            HomogPoly(g.spec, g.nvars, g.degree, dict(g.coeffs))
            for g in atom.generators])
        assert twin == atom and twin.query() is not query
        merged = ClassExpr.from_atom(atom) + ClassExpr.from_atom(twin)
        assert merged.residuals == ((0, 2, atom),)
        assert hash(merged) == hash(ClassExpr({}, [(0, 2, twin)]))
        mixed = ClassExpr.from_atom(atom) + ClassExpr.from_atom(EtaleAtom([1]))
        assert len(mixed.residuals) == 2


def test_a_residue_against_the_criterion_exits_three(capsys, monkeypatch):
    """Over F_q with d <= n, X has a point, and over Q it has one unless the
    engine found none, so an engine's residue other than 1 is then a
    defect, found without counting anything."""
    real = motivic.cli._dispatch

    def wrong_residue(job):
        result, oracle = real(job)
        return StratResult(result.class_expr + 1, result.trace,
                           result.hypotheses), oracle

    monkeypatch.setattr(motivic.cli, "_dispatch", wrong_residue)
    for argv in (QUADRIC, QUADRIC + ["--no-verify"]):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert "defect: residue 2 is not 1" in err
    # over F3 in P^1 a quadric has d = 2 > n = 1: nothing is asserted
    line = ["class-quadric", "--field", "3", "--ambient", "1",
            "--poly", "x0*x1", "--no-verify"]
    code, out, _ = _run(capsys, line)
    assert code == 0 and "residue: 3" in out
    q_quadric = ["class-quadric", "--field", "Q", "--ambient", "2",
                 "--poly", "x0^2 - x1^2 - x2^2"]
    q_cone = ["class-cone", "--field", "Q", "--ambient", "3",
              "--poly", "x0^2 - x1*x2"]
    for argv in (q_quadric, q_cone):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert "defect: residue 2 is not 1" in err

    # a pointless Q quadric holds rational_point_found=False: no residue
    # of it is a defect
    def pointless(job):
        result, oracle = real(job)
        assert ("rational_point_found", False) in result.hypotheses
        result.residue = 0
        return result, oracle

    monkeypatch.setattr(motivic.cli, "_dispatch", pointless)
    code, out, _ = _run(capsys, ["class-quadric", "--field", "Q",
                                 "--ambient", "2",
                                 "--poly", "x0^2 + x1^2 - 3*x2^2"])
    assert code == 0 and "residue: 0" in out


def test_an_oracle_count_against_the_criterion_exits_three(capsys,
                                                           monkeypatch):
    """Over F_q with d <= n, #X = 1 mod q (Ax-Katz): a verified job whose
    oracle count is not exits 3, though its class, the atom [X] itself,
    measures that same count."""
    real = motivic.cli._dispatch

    def as_atom(job):
        _, oracle = real(job)
        atom = VarietyAtom(oracle.spec, oracle.n, oracle.generators)
        return StratResult(ClassExpr.from_atom(atom), [], []), oracle

    monkeypatch.setattr(motivic.cli, "_dispatch", as_atom)
    code, out, _ = _run(capsys, QUADRIC)
    assert code == 0 and "[pass]" in out
    counted = motivic.kclass.count_points
    monkeypatch.setattr(motivic.kclass, "count_points",
                        lambda query, budget=None:
                        counted(query, budget=budget) + 1)
    code, out, err = _run(capsys, QUADRIC)
    assert code == 3 and out == ""
    assert "defect: #X = 17 is not 1 mod 3" in err
    # without verification nothing is counted, so nothing is found
    assert _run(capsys, QUADRIC + ["--no-verify"])[0] == 0


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


# (command, field, ambient, polynomials, forms, point, verify) and the sha256
# of the job's JSON report, recorded before the arithmetic core took its fast
# paths.  Every class command over F_p and F_{p^m}, and over Q where the
# engine allows it; the --no-verify jobs count no master oracle.
PINNED_REPORTS = [
    (("class-quadric", "5", 3, ["x0*x1 - x2*x3 + 2*x0^2"], [], None, True),
     "597e42c2125b62508a45f8c0850b8487dbe8d3f38fb35dd1ffcd176f1c798ec9"),
    (("class-quadric", "3,2", 2, ["x0^2 + t*x1^2 + x1*x2"], [], None, True),
     "64283fcf9054326ca6eea3961625682e2df06a3d6093c3e450bc147e446c40cf"),
    (("class-quadric", "Q", 3, ["x0^2 + x1^2 - 3*x2^2 + x2*x3"], [], None,
      True),
     "8daea517863589686b5d2cb1d29a60386dffc04402de71fc874b25bb95121744"),
    (("class-arrangement", "7", 3, [],
      ["x0 + 2*x1", "x1 - x2 + x3", "x0 + x3", "x2"], None, True),
     "a98731b0b2e490e8a342249bab667a4372d53aa9261a94d965e03c5bb8cb54ea"),
    (("class-arrangement", "5,2", 2, [],
      ["x0 + t*x1", "x1 + x2", "t*x0 + x2"], None, False),
     "d27a7403ec8158fde81baaaaaf175fbc5191a1e1db453337cea96efe416117c6"),
    (("class-arrangement", "Q", 3, [],
      ["x0 - x1", "x1 + 2*x2", "x0 + x2 - x3"], None, True),
     "882e8dfd6361917f04c70b32a33a9edc80b82821c383647055f0567acff6c305"),
    (("class-cone", "5", 3, ["x0^3 + x1^3 + 2*x2^3"], [], None, True),
     "8b62c7b3e3bab2834920cabf9cc357abd83fdf2b829d788b2c71a28f53a625eb"),
    (("class-cone", "3,2", 3, ["x0^2 + t*x1*x2"], [], None, True),
     "5d32c28cb21c6c20b2ebb361208a93549f57ef56b99ca7c4131bf3f3de2b2088"),
    (("class-cone", "Q", 3, ["x0^2 + x1^2 - x2^2"], [], None, False),
     "7c478fc55287ce7cbf4a15e3ad9af900af3bcd04ddaa494411d011b6fac409a6"),
    (("class-cubic-singular", "7", 3, ["x0*x1*x3 - x2^2*x3 + x0^3 + x1^3"],
      [], "0,0,0,1", True),
     "080d2ab71d3de04aecd1755022587c5c7cbe553997da6ac2ab5b3102faa92095"),
    (("class-cubic-singular", "3,2", 3,
      ["x0*x1*x3 + t*x2^2*x3 + x0^3 + x2^3"], [], "0,0,0,1", True),
     "6690698007a2c18d35a9cbaea12a490a9c5e3edb3a6b853b29baf2d33d0f2c9f"),
    (("class-cubic-singular", "Q", 3, ["x0*x1*x3 - x2^2*x3 + x0^3"], [],
      "0,0,0,1", True),
     "f06442d7f579e07fd6b5079e958e9897c26f4da40494a815395024d67d4e304c"),
    # the same cubic with x0 and x3 swapped and no point given: the
    # height-bounded search over Q finds (1:0:0:0); recorded before the
    # engines shared one point search
    (("class-cubic-singular", "Q", 3, ["x0*x1*x3 - x0*x2^2 + x3^3"], [],
      None, False),
     "f82c1e80cdf1d9aeedf06f0d507de7a09b1a9c0f622eef6f2aa16abffb812fb9"),
    (("class-two-quadrics", "3", 4,
      ["x0*x1 - x2*x3 - x4^2", "x0^2 + x1*x2 + x3*x4"], [], None, True),
     "1441018aa18ae698e862a7af14fa60a6a69f07feabd34e2ffc961628ae152fba"),
    (("class-two-quadrics", "5", 4,
      ["x0*x1 - x2*x3 - x4^2", "x0^2 + x1*x2 + x3*x4"], [], None, False),
     "12f9bd27489d2aa46fcecf84a1665154745d99030bccd5d1d92ddc97fe5a92ef"),
    (("descend", "3,2", 3, [],
      ["x0 + t*x1 + x2", "x0 + (2*t)*x1 + x2", "x3"], None, True),
     "a31bef973a1efd076f67653adaa1affbbc4de3d27935def45e18fd69e714eef7"),
    (("descend", "3,3", 3, [],
      ["x0 + t*x1 + x3", "x0 + (2+t)*x1 + x3", "x0 + (1+t)*x1 + x3"], None,
      True),
     "522f1b24ff39b8ace514a2378c5df37668ff050d5f6aeb7570b753ccfb6cfa1e"),
    (("descend", "5,2", 2, [], ["x0 + t*x1 + x2", "x0 + (4*t)*x1 + x2"],
      None, False),
     "169e03cc0a69738ce2e1d30c011239cf7a666c37399f7f9e7593c517c15062a5"),
    # at the sizes of the benchmark's engine-only jobs, recorded before
    # products of forms moved to packed integer codes
    (("class-arrangement", "7", 7, [],
      ["3*x0 + 3*x1 + 5*x2 + 5*x4 + 2*x5 + 6*x7",
       "3*x1 + 4*x2 + 6*x3 + 3*x4 + 5*x6",
       "2*x0 + x1 + 5*x2 + 3*x4 + 5*x5 + 4*x6 + x7",
       "4*x0 + 6*x1 + x2 + 4*x3 + 4*x5 + 3*x7",
       "5*x0 + x1 + x2 + 6*x3 + 4*x4 + 3*x5 + 5*x6 + 4*x7",
       "3*x0 + 2*x1 + 4*x2 + 2*x3 + 6*x4 + 3*x5 + x6 + x7"], None, False),
     "571e64ca0a5809c30769954f985d72faaf69708cdb3b78d1deea52212ac05d16"),
    (("class-quadric", "5", 6,
      ["x0^2 + 2*x0*x1 + 3*x0*x2 + x0*x3 + x0*x4 + x1^2 + x1*x2 + 4*x1*x3 "
       "+ x1*x4 + 3*x1*x5 + 3*x2^2 + 3*x2*x3 + 3*x2*x4 + 3*x2*x5 + 3*x2*x6 "
       "+ 4*x3^2 + x3*x4 + 3*x3*x5 + 3*x4^2 + x4*x5 + 2*x5^2 + 4*x5*x6 "
       "+ 3*x6^2"], [], None, False),
     "7e9c8b46a1685e27a6868eeaaef0fc4d879b4836c4129f12b1d23f7eb4690a36"),
    (("descend", "3,3", 5, [],
      ["x0 + (2*t)*x1 + (2+2*t^2)*x2 + (2+t+2*t^2)*x3 + (1+t+2*t^2)*x4 "
       "+ (2+t^2)*x5",
       "x0 + (1+2*t)*x1 + (1+2*t+2*t^2)*x2 + (2*t^2)*x3 + (2+2*t^2)*x4 "
       "+ (t+t^2)*x5",
       "x0 + (2+2*t)*x1 + (1+t+2*t^2)*x2 + (2+2*t+2*t^2)*x3 "
       "+ (1+2*t+2*t^2)*x4 + (2*t+t^2)*x5"], None, False),
     "76636a631e40b8b420d646ae3d8c8c1a61e4339848706b312e6c9797b13de1a3"),
    # fields past the table limit, where the value operations take their
    # digit-wise and schoolbook branches; recorded before forms held values
    (("class-quadric", "37,2", 3, ["x0^2 + t*x1^2 + x2*x3"], [], None,
      False),
     "56231e13c60e711ed99583a17cf77a7ea91a1cfa79d220ff5fd5f29d80f31f5f"),
    (("class-cone", "37,2", 3, ["x0^2 + (1+t)*x1*x2"], [], None, False),
     "c36ad60d125bc5199b7a610352da6de3514dbc7078a940dbb11e8874930c23f8"),
    (("class-arrangement", "1031", 2, [], ["x0 + 5*x1", "x1 - 7*x2"], None,
      True),
     "b2318aaeee96852318981b68153aa69964f3f974258b2f2b28b793e7910fcfd3"),
    # descent past the table limit, where the Frobenius takes the schoolbook
    # power, and over the prime field itself (m = 1, the trivial cocycle);
    # recorded before matrices held values
    (("descend", "37,2", 3, [], ["x0 + t*x1 + x2", "x0 + (36*t)*x1 + x2"],
      None, True),
     "2b5e0e145c1149fdebb2dfac2e30b4f13d8977b29bc0a955d529337b8cb57cb2"),
    (("descend", "11,3", 4, [],
      ["x0 + t*x1 + (1+t^2)*x3", "x0 + (1+7*t+7*t^2)*x1 + (6+6*t+3*t^2)*x3",
       "x0 + (10+3*t+4*t^2)*x1 + (5+5*t+7*t^2)*x3", "x4"], None, False),
     "ed0c817022fa45caddbdbe793a5a7964d5793577094fa6c6867dfc2f378d6db4"),
    (("descend", "3", 2, [], ["x0 + x1", "x2"], None, True),
     "b730e3779edef18fd2085239fbd99a20ca143548c27880b761b2db8243bae9e7"),
    # values of F_{p^m} outside F_p where an int would read as a residue:
    # the degenerate quadric's diagonal holds (t), and the given point's
    # last coordinate is t; recorded before points held values
    (("class-quadric", "3,2", 3, ["x0^2 + t*x1^2"], [], None, True),
     "0a7f5dd0473bc960fff1e52a65424fe6c287672e5febbeb2f42d84ef74e96faf"),
    (("class-cubic-singular", "3,2", 3,
      ["x0^3 + x1^3 + x0*x1*x3 - t*x0*x1*x2"], [], "0,0,1,t", True),
     "824c6b0e197ea0867ab14096ae3ab1e7bd68eaa0238f891438cd0d5a34a407cb"),
]


def _pin_ids(pins):
    """command-Ffield, -no-verify without verification, and -2, -3, ... on
    the second and later pins of one name."""
    ids, seen = [], {}
    for args, _ in pins:
        name = "%s-F%s%s" % (args[0], args[1], "" if args[6] else "-no-verify")
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else "%s-%d" % (name, seen[name]))
    return ids


def _pinned_job(args):
    command, field, ambient, polys, forms, point, verify = args
    return JobSpec(command, field_from_text(field), ambient,
                   polynomials=polys, forms=forms, point=point, verify=verify)


@pytest.mark.parametrize("args, digest", PINNED_REPORTS,
                         ids=_pin_ids(PINNED_REPORTS))
def test_pinned_report_bytes(args, digest):
    report, code = run(_pinned_job(args))
    assert code == 0
    text = render_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text


def test_rational_jobs_count_nothing(monkeypatch):
    """The pinned jobs over Q, run with verification on, count nothing:
    with both of the CLI's counting bindings refused, every step and the
    oracle read skipped, though the engines state their identities and
    the oracle over Q as over F_q."""
    def refuse(query, budget=None):
        raise AssertionError("counted %r" % query)

    monkeypatch.setattr("motivic.cli.count_points", refuse)
    monkeypatch.setattr("motivic.kclass.count_points", refuse)
    rational = [args for args, _ in PINNED_REPORTS if args[1] == "Q"]
    assert [args[0] for args in rational] == [
        "class-quadric", "class-arrangement", "class-cone",
        "class-cubic-singular", "class-cubic-singular"]
    for args in rational:
        report, code = run(_pinned_job(args[:6] + (True,)))
        assert code == 0
        verification = report["verification"]
        assert verification["enabled"]
        assert verification["oracle"] == {"status": "skipped"}
        assert verification["steps"]
        assert all(step["status"] == "skipped"
                   for step in verification["steps"])


def test_pinned_report_bytes_do_not_depend_on_kept_tables():
    """The pinned reports, once with the kept monomial tables emptied before
    each job and once in reverse order with them kept, hold their digests:
    no report byte depends on which tables earlier jobs left."""
    for args, digest in PINNED_REPORTS:
        _monomial_tables.clear()
        text = render_json(run(_pinned_job(args))[0])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    for args, digest in reversed(PINNED_REPORTS):
        text = render_json(run(_pinned_job(args))[0])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert _monomial_tables


def test_pinned_jobs_build_no_field_element(monkeypatch):
    """Points, diagonals, evaluations, parsed points and a spec's zero and
    one are field values: counted from before any field is built, building
    a field of each kind and running every pinned job build no FieldElem."""
    built = []
    init = FieldElem.__init__

    def counted(self, spec, value):
        built.append(sys._getframe(1).f_code.co_qualname)
        init(self, spec, value)

    monkeypatch.setattr(FieldElem, "__init__", counted)
    FieldSpec("Q")
    FieldSpec("Fp", p=7)
    FieldSpec("Fpm", p=3, m=2, modulus=(1, 0, 1))
    for args, _ in PINNED_REPORTS:
        assert run(_pinned_job(args))[1] == 0
    assert built == []


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
    # json.load gives up on nesting deeper than the recursion limit
    bad.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = _run(capsys, ["verify", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read report: ")


def _edited_report(tmp_path, capsys, field, value):
    """The path of a saved QUADRIC report with the value at field replaced."""
    _, out, _ = _run(capsys, QUADRIC + ["--json"])
    report = json.loads(out)
    holder = report
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    return path


@pytest.mark.parametrize("field, value, message", [
    (("input", "options", "budget"), 5, "budget is 5"),
    (("input", "polynomials"), ["x0^3 + x1"], "not homogeneous"),
], ids=["budget", "polynomial"])
def test_verify_recomputation_errors_exit_two(tmp_path, capsys, field, value,
                                               message):
    # A saved report edited so that re-running its job fails: the error
    # reaches the same exit code and message as a direct run.
    path = _edited_report(tmp_path, capsys, field, value)
    code, out2, err = _run(capsys, ["verify", str(path)])
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out2 == ""


@pytest.mark.parametrize("field, value", [
    (("input", "ambient"), 2.0),
    (("input", "ambient"), True),
    (("input", "field"), 3),
    (("input", "polynomials"), [5]),
    (("input", "polynomials"), "x0*x1 - x2*x3"),
    (("input", "forms"), None),
    (("input", "point"), 3),
    (("input", "options", "seed"), 0.5),
    (("input", "options", "height"), "10"),
    (("input", "options", "budget"), 5.0),
    (("input", "options", "budget"), False),
    (("input", "options", "verify"), 1),
    (("input", "options"), []),
], ids=["ambient-float", "ambient-bool", "field-int", "polynomials-int",
        "polynomials-str", "forms-none", "point-int", "seed-float",
        "height-str", "budget-float", "budget-bool", "verify-int",
        "options-list"])
def test_verify_malformed_echo_exits_two(tmp_path, capsys, field, value):
    # an input echo holding a value of the wrong type is an unreadable
    # report, not a crash and not a job to run
    path = _edited_report(tmp_path, capsys, field, value)
    code, out, err = _run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read report: ")
    assert "Traceback" not in err


def test_verify_float_outside_echo_is_a_mismatch(tmp_path, capsys):
    # no report holds a float, so a saved one that does cannot reproduce
    path = _edited_report(tmp_path, capsys, ("result", "residue"), 1.0)
    code, out, _ = _run(capsys, ["verify", str(path)])
    assert code == 3 and "mismatch" in out


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.text(st.characters(blacklist_categories=()), max_size=8))


@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(st.characters(blacklist_categories=()),
                                max_size=6), inner, max_size=4)),
    max_leaves=24))
@settings(max_examples=300, deadline=None)
def test_render_json_matches_json_dumps(report):
    """The report writer gives the bytes of json.dumps on every value made
    of the types a report holds: nested and empty dicts and lists, strings
    with non-ASCII, control and surrogate characters, large ints, bools
    and None."""
    assert render_json(report) == \
        json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, 2.0, (1, 2), {1: "a"}, {"a": [0, {"b": 0.5}]}, {None: 1},
    [b"bytes"], {"a": {1, 2}},
], ids=["float", "integral-float", "tuple", "int-key", "nested-float",
        "none-key", "bytes", "set"])
def test_render_json_rejects_what_no_report_holds(value):
    with pytest.raises(TypeError):
        render_json({"status": "ok", "value": value})


class _OtherDict(dict):
    pass


@pytest.mark.parametrize("value", [
    OrderedDict(a=1), defaultdict(int), Counts(field_from_text("3")),
    _OtherDict(a=1),
], ids=["ordered", "default", "counts", "subclass"])
def test_render_json_rejects_dict_subclasses_but_pieces(value):
    with pytest.raises(TypeError):
        render_json({"status": "ok", "value": value})


def test_report_pieces_refuse_every_mutator():
    piece = _Piece(rule="cone-split", status="skipped")
    mutators = [
        lambda d: d.__setitem__("status", "pass"),
        lambda d: d.__delitem__("status"),
        lambda d: d.clear(),
        lambda d: d.pop("status"),
        lambda d: d.pop("absent", None),
        lambda d: d.popitem(),
        lambda d: d.setdefault("lhs", 0),
        lambda d: d.update(status="pass"),
        lambda d: d.update(),
        lambda d: operator.ior(d, {"status": "pass"}),
    ]
    for mutate in mutators:
        with pytest.raises(TypeError):
            mutate(piece)
    assert piece == {"rule": "cone-split", "status": "skipped"}
    assert type(piece.copy()) is dict
    # a report that holds pieces still copies and pickles whole
    report = run(JobSpec("class-arrangement", field_from_text("5"), 3,
                         forms=["x0", "x1"], verify=False))[0]
    for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert twin == report and render_json(twin) == render_json(report)
        assert type(twin["result"]["trace"][1]["identity"]["rhs"][0]) \
            is _Piece


def test_a_piece_renders_at_each_depth_it_is_nested_at():
    piece = _Piece(coeff=-1, power=2)
    report = {"a": piece, "b": [piece, {"c": piece}], "d": _Piece()}
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert render_json(report) == expected
    assert sorted(piece._texts) == ["\n  ", "\n    ", "\n      "]
    # the second time from the texts the piece keeps
    assert render_json(report) == expected
    assert render_json(json.loads(expected)) == expected


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if type(value) is list:
        return [_plain(v) for v in value]
    return value


@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4).map(_Piece)),
    max_leaves=24))
@settings(max_examples=300, deadline=None)
def test_trees_of_pieces_render_as_their_plain_copies(tree):
    """Trees that mix pieces and plain dicts, the same objects nested at two
    depths as well, render to the bytes of json.dumps and of their copies
    made of plain dicts, on the first render and on later ones."""
    for report in (tree, {"deep": [[tree]], "top": tree}):
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert render_json(report) == expected
        assert render_json(_plain(report)) == expected
        assert render_json(report) == expected


@pytest.mark.parametrize("value", ["abc", "-1", "0"])
def test_budget_comes_only_from_the_job(monkeypatch, capsys, value):
    """No environment variable sets the budget: a report's echo records
    every option that a run reads, so verify gives the same verdict in
    any shell."""
    monkeypatch.setenv("MOTIVIC_BUDGET", value)
    code, out, err = _run(capsys, ["count", "--field", "3", "--ambient", "1"])
    assert code == 0, err
    assert "count: 4\n" in out
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert "selftest: 5/5 ok" in out


def test_negative_budget_exits_two(capsys):
    code, out, err = _run(capsys, ["count", "--field", "3", "--ambient", "1",
                                   "--budget", "-1"])
    assert (code, out, err) == (2, "", "error: --budget must be at least 0, "
                                       "got -1\n")
    # 0 is a budget: P^1(F3) has 4 candidates
    code, out, err = _run(capsys, ["count", "--field", "3", "--ambient", "1",
                                   "--budget", "0"])
    assert code == 2 and "needs 4 candidates, budget is 0" in err


@pytest.mark.parametrize("field, polys", [
    ("3", ["1"]), ("3", ["x0", "1"]), ("Q", ["2"]), ("Q", ["x0", "1/2"]),
], ids=["F3-one", "F3-with-one", "Q-two", "Q-with-half"])
def test_cone_with_constant_generator_exits_two(capsys, field, polys):
    # V(c) is empty for a nonzero constant c, so there is no apex on X
    argv = ["class-cone", "--field", field, "--ambient", "2"]
    for poly in polys:
        argv += ["--poly", poly]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a nonzero constant generator")


@pytest.mark.parametrize("height", [0, -3])
def test_height_below_one_exits_two(tmp_path, capsys, height):
    expected = "error: --height must be at least 1, got %d\n" % height
    for argv in (QUADRIC,
                 ["class-quadric", "--field", "Q", "--ambient", "2",
                  "--poly", "x0^2 + x1^2 + x2^2"],
                 ["count", "--field", "7", "--ambient", "2"]):
        code, out, err = _run(capsys, argv + ["--height", str(height)])
        assert (code, out, err) == (2, "", expected)
    path = _edited_report(tmp_path, capsys, ("input", "options", "height"),
                          height)
    code, out, err = _run(capsys, ["verify", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read report: --height must be")


@pytest.mark.parametrize("argv, flag", [
    (QUADRIC + ["--point", "1,1,0,0"], "--point"),
    (QUADRIC + ["--form", "x0"], "--form"),
    (["count", "--field", "5", "--ambient", "1", "--form", "x0"], "--form"),
    (["count", "--field", "5", "--ambient", "1", "--point", "1,0"],
     "--point"),
    (["class-cone", "--field", "5", "--ambient", "2", "--poly", "x0",
      "--form", "x1"], "--form"),
    (["class-cubic-singular", "--field", "5", "--ambient", "3",
      "--poly", "x0*x1*x3 + x2^3", "--form", "x0"], "--form"),
    (["class-two-quadrics", "--field", "5", "--ambient", "2",
      "--poly", "x0*x1", "--poly", "x2^2", "--form", "x0"], "--form"),
    (["class-arrangement", "--field", "5", "--ambient", "2",
      "--form", "x0", "--poly", "x1"], "--poly"),
    (["class-arrangement", "--field", "5", "--ambient", "2",
      "--form", "x0", "--point", "1,0,0"], "--point"),
    (["descend", "--field", "3,2", "--ambient", "2",
      "--form", "x0", "--poly", "x1"], "--poly"),
    (["descend", "--field", "3,2", "--ambient", "2",
      "--form", "x0", "--point", "1,0,0"], "--point"),
    (["count", "--field", "5", "--ambient", "1", "--seed", "7"], "--seed"),
    (["count", "--field", "5", "--ambient", "1", "--height", "3"],
     "--height"),
    (["count", "--field", "5", "--ambient", "1", "--no-verify"],
     "--no-verify"),
    (QUADRIC + ["--seed", "1"], "--seed"),
    (["class-arrangement", "--field", "5", "--ambient", "2",
      "--form", "x0", "--seed", "3"], "--seed"),
    (["class-arrangement", "--field", "5", "--ambient", "2",
      "--form", "x0", "--height", "11"], "--height"),
    (["class-cone", "--field", "5", "--ambient", "2", "--poly", "x0",
      "--height", "3"], "--height"),
    (["class-cubic-singular", "--field", "5", "--ambient", "3",
      "--poly", "x0*x1*x3 + x2^3", "--seed", "2"], "--seed"),
    (["class-two-quadrics", "--field", "5", "--ambient", "4",
      "--poly", "x0*x1", "--poly", "x2^2", "--height", "3"], "--height"),
    (["descend", "--field", "3,2", "--ambient", "2",
      "--form", "x0", "--height", "3"], "--height"),
], ids=["quadric-point", "quadric-form", "count-form", "count-point",
        "cone-form", "cubic-form", "two-quadrics-form", "arrangement-poly",
        "arrangement-point", "descend-poly", "descend-point", "count-seed",
        "count-height", "count-no-verify", "quadric-seed", "arrangement-seed",
        "arrangement-height", "cone-height", "cubic-seed",
        "two-quadrics-height", "descend-height"])
def test_unread_flag_exits_two(capsys, argv, flag):
    # a report would echo the flag's value as an input of the job, and
    # verify would then confirm an input the command never read
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: %s takes no %s\n" % (argv[0], flag)


@pytest.mark.parametrize("argv, message", [
    (["class-quadric", "--field", "3", "--ambient", "0", "--poly", "x0^2"],
     "ambient projective space needs dimension >= 1"),
    (["class-arrangement", "--field", "5", "--ambient", "2"],
     "class-arrangement needs at least one --form"),
    (["descend", "--field", "3,2", "--ambient", "2"],
     "descend needs at least one --form"),
    (["class-cone", "--field", "5", "--ambient", "2"],
     "class-cone needs at least one --poly"),
    (["class-cubic-singular", "--field", "5", "--ambient", "3",
      "--poly", "x0*x1*x3 + x2^3", "--poly", "x0^3"],
     "class-cubic-singular takes exactly one --poly"),
    (["class-two-quadrics", "--field", "5", "--ambient", "4",
      "--poly", "x0*x1 + x2*x3 + x4^2"],
     "class-two-quadrics takes exactly two --poly"),
    (["descend", "--field", "Q", "--ambient", "2",
      "--form", "x0", "--form", "x1"],
     "descent needs a finite field"),
    (["class-two-quadrics", "--field", "5", "--ambient", "4",
      "--poly", "x0*x1+x2*x3+x4^2", "--poly", "x1*x2"],
     "unsupported configuration: L1 = 0"),
], ids=["ambient-zero", "arrangement-no-form", "descend-no-form",
        "cone-no-poly", "cubic-two-polys", "two-quadrics-one-poly",
        "descend-over-Q", "two-quadrics-L1-zero"])
def test_unrunnable_job_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("point, message", [
    ("0,0,0,", "unexpected end of input in '0,0,0,'"),
    (",0,0,1", "expected coefficient, got ',' at position 0 in ',0,0,1'"),
], ids=["trailing-comma", "leading-comma"])
def test_bad_point_text_exits_two(capsys, point, message):
    code, out, err = _run(capsys, [
        "class-cubic-singular", "--field", "5", "--ambient", "3",
        "--poly", "x0*x1*x3 + x2^3", "--point", point])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unread_seed_or_height_in_a_report_exits_two(tmp_path, capsys):
    # a hand-edited echo fails verify as the same flags fail a run
    path = _edited_report(tmp_path, capsys, ("input", "options", "seed"), 7)
    code, out, err = _run(capsys, ["verify", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: cannot read report: class-quadric takes no --seed\n"
    _, saved, _ = _run(capsys, ["count", "--field", "5", "--ambient", "1",
                                "--json"])
    for option, value, flag in (("height", 3, "--height"),
                                ("verify", False, "--no-verify")):
        report = json.loads(saved)
        report["input"]["options"][option] = value
        path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = _run(capsys, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: cannot read report: count takes no %s\n" % flag


def test_oracle_obeys_job_budget(capsys):
    # The oracle's atom counts take --budget.
    # The largest count of the job is the cubic in P^3(F3), 40 candidates.
    job = ["class-cubic-singular", "--field", "3", "--ambient", "3",
           "--poly", "x0*x1*x3 + x2^3 + x1^3", "--json"]
    code, out, err = _run(capsys, job + ["--budget", "40"])
    assert code == 0, err
    report = json.loads(out)
    assert report["verification"]["oracle"]["status"] == "pass"
    assert report["status"] == "ok"
    code, out, err = _run(capsys, job + ["--budget", "39"])
    assert code == 2 and out == ""
    assert "in P^3(F3) needs 40 candidates, budget is 39" in err


def test_selftest(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert "selftest: 5/5 ok" in out


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("poly, message", [
    ("(1+t*x0", "empty term in t-literal"),
    ("(*t)*x0", "empty term in t-literal"),
    ("(1+)*x0", "dangling sign in t-literal"),
])
def test_bad_t_literal_exits_two_without_hanging(poly, message):
    """These inputs once hung the parser or were read as x0; a child
    process with a time limit keeps a regression from hanging the suite."""
    out = run_python(["-m", "motivic.cli", "count", "--field", "3,2",
                      "--ambient", "1", "--poly", poly], os.environ,
                     timeout=10)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: %s in %r\n" % (message, poly)


@pytest.mark.parametrize("field, ambient, poly, count", [
    ("7", "2", "x2^99999999999", 8),
    ("7", "2", "x2^9999999", 8),
    ("1031", "1", "x1^9999999", 1),
])
def test_large_exponents_count_without_hanging(field, ambient, poly, count):
    """An exponent's size once sized the kernel's work and memory: these
    ran out of memory or for many seconds.  Reduced on F_q points (x^q =
    x), they count at once; the report prints the form as given."""
    out = run_python(["-m", "motivic.cli", "count", "--field", field,
                      "--ambient", ambient, "--poly", poly], os.environ,
                     timeout=10)
    assert out.returncode == 0, out.stderr
    assert "poly: %s\n" % poly in out.stdout
    assert "count: %d\n" % count in out.stdout


def test_huge_exponent_prints_without_hanging():
    """The text of x2^9999999 once came from a table of every power up to
    the degree, so printing this report hung."""
    out = run_python(["-m", "motivic.cli", "class-cone", "--field", "7",
                      "--ambient", "3", "--poly", "x2^9999999"],
                     os.environ, timeout=10)
    assert out.returncode == 0, out.stderr
    assert "x2^9999999" in out.stdout


@pytest.mark.parametrize("argv, message", [
    (["class-quadric", "--field", "3", "--ambient", "2",
      "--poly", "3*x0^2"], "zero polynomial"),
    (["class-cubic-singular", "--field", "7", "--ambient", "3",
      "--poly", "x0^3 - x0^3"], "zero polynomial"),
    (["class-two-quadrics", "--field", "3", "--ambient", "4",
      "--poly", "x0*x1", "--poly", "x0^2 - x0^2"], "zero polynomial"),
    (["class-arrangement", "--field", "5", "--ambient", "2",
      "--form", "x0", "--form", "x1 - x1"], "zero form"),
    (["descend", "--field", "3,2", "--ambient", "2",
      "--form", "x0 + t*x1", "--form", "x1 - x1"], "zero form"),
], ids=lambda a: a[0] if isinstance(a, list) else None)
def test_form_that_cancels_is_reported_as_zero(capsys, argv, message):
    """A text whose terms all cancel parses to the zero form of degree 0;
    the engines say it is zero rather than that its degree is wrong."""
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_module_entry_point():
    out = run_python(["-m", "motivic.cli", "count", "--field", "3",
                      "--ambient", "1"], os.environ)
    assert out.returncode == 0, out.stderr
    assert "count: 4" in out.stdout
    # A child started the same way imports the package under test.
    where = run_python(["-c", "import motivic; print(motivic.__file__)"],
                       os.environ)
    assert where.returncode == 0, where.stderr
    assert Path(where.stdout.strip()) == Path(motivic.__file__).resolve()
