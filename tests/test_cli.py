import json

import numpy as np
import pytest

from ssnewton.cli import main
from ssnewton.newton import solve
from ssnewton.problems import get_problem
from ssnewton.reports import (
    Status,
    report_from_json,
    report_to_dict,
    report_to_json,
)


def test_report_json_round_trip():
    report = solve(get_problem("ncp-paper"), np.array([-0.1]), tol=1e-12)
    assert report_from_json(report_to_json(report)) == report


def test_report_round_trip_preserves_failure_status():
    from ssnewton.baselines import josephy_newton

    report = josephy_newton(get_problem("ncp-paper"), np.array([0.1]), tol=1e-12)
    back = report_from_json(report_to_json(report))
    assert back == report
    assert back.status is Status.UNSOLVABLE_SUBPROBLEM


def test_report_without_newer_fields_loads():
    doc = {
        "status": "MAX_ITER",
        "iterations": [{"k": 0, "x": [0.5], "residual": 0.25, "step_norm": 0.0}],
        "final_x": [0.5],
    }
    report = report_from_json(json.dumps(doc))
    assert report.status is Status.MAX_ITER
    assert report.message == ""
    assert report.iterations[0].lam is None


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(out)
    assert "ncp-paper" in out
    assert "box-vi-2d" in out


def test_solve_json_matches_library_run(capsys):
    code = main(["solve", "--problem", "ncp-paper", "--x0", "-0.1", "--tol", "1e-12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    direct = solve(get_problem("ncp-paper"), np.array([-0.1]), tol=1e-12)
    assert doc == report_to_dict(direct)
    assert report_from_json(json.dumps(doc)) == direct


def test_solve_known_solution_columns(capsys):
    code = main([
        "solve", "--problem", "ncp-paper", "--x0", "-0.1", "--tol", "1e-12",
        "--known-solution", "0",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations"][0]["error_norm"] == 0.1
    assert doc["iterations"][0]["error_rate"] is not None


def test_solve_csv_known_solution_columns(capsys):
    code = main([
        "solve", "--problem", "ncp-paper", "--x0", "-0.1", "--tol", "1e-12",
        "--output", "csv", "--known-solution", "0",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,x0,residual,step_norm,rate,error_norm,error_rate"
    first = lines[1].split(",")
    assert first[5] == "0.1" and first[6] != ""
    assert lines[-1].endswith(",")  # no rate after the last error


def test_solve_csv(capsys):
    code = main([
        "solve", "--problem", "ncp-paper", "--x0", "-0.1", "--tol", "1e-12",
        "--output", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,x0,residual,step_norm,rate"
    assert lines[1].startswith("0,-0.1,")
    assert len(lines) == 4  # header + three iterations


def test_solve_josephy_failure_exit_code(capsys):
    code = main(["solve", "--problem", "ncp-paper", "--method", "josephy", "--x0", "0.1"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "UNSOLVABLE_SUBPROBLEM"


def test_solve_box_vi(capsys):
    code = main(["solve", "--problem", "box-vi-2d", "--x0", "0.3,0.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "CONVERGED"
    assert np.linalg.norm(doc["final_x"]) <= 1e-10


def test_compare_mode_bit_for_bit(capsys):
    code = main([
        "solve", "--problem", "box-vi-2d", "--method", "compare", "--x0", "0.3,0.3",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "compare"
    main(["solve", "--problem", "box-vi-2d", "--x0", "0.3,0.3"])
    standalone = json.loads(capsys.readouterr().out)
    assert doc["ssstar"] == standalone
    main(["solve", "--problem", "box-vi-2d", "--method", "josephy", "--x0", "0.3,0.3"])
    standalone_j = json.loads(capsys.readouterr().out)
    assert doc["josephy"] == standalone_j


def test_compare_csv_columns(capsys):
    code = main([
        "solve", "--problem", "box-vi-2d", "--method", "compare", "--x0", "0.3,0.3",
        "--output", "csv",
    ])
    assert code == 0
    compare_lines = capsys.readouterr().out.strip().splitlines()
    main(["solve", "--problem", "box-vi-2d", "--x0", "0.3,0.3", "--output", "csv"])
    solo_lines = capsys.readouterr().out.strip().splitlines()
    width = len(solo_lines[0].split(","))
    assert compare_lines[0].split(",")[:width] == [
        "ssstar_" + c for c in solo_lines[0].split(",")
    ]
    for row_pair in zip(compare_lines[1:], solo_lines[1:]):
        assert row_pair[0].split(",")[:width] == row_pair[1].split(",")


def test_usage_errors(capsys):
    assert main(["solve", "--problem", "no-such", "--x0", "0"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["solve", "--problem", "ncp-paper", "--x0", "1,2"]) == 1
    assert main(["solve", "--problem", "ncp-paper", "--x0", "abc"]) == 1
    assert main(["solve", "--problem", "ncp-paper", "--x0", "0", "--tol", "-1"]) == 1
    capsys.readouterr()
    argv = ["solve", "--problem", "ncp-paper", "--x0", "0", "--known-solution", "0,1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --known-solution length does not match the problem\n"


@pytest.mark.parametrize("method", ["ssstar", "josephy", "compare"])
@pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "inf"], ["--max-iter", "-1"]])
def test_a_nan_tol_or_negative_max_iter_is_a_usage_error(capsys, method, option):
    # x0 = 0.5 reaches residual 0 at k = 1; with tol = nan the run used to
    # report MAX_ITER and exit 2
    argv = ["solve", "--problem", "ncp-paper", "--x0", "0.5", "--method", method]
    assert main(argv + option) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_josephy_rejects_a_wrong_length_lambda0(capsys):
    code = main([
        "solve", "--problem", "box-vi-2d", "--method", "josephy",
        "--x0", "0.5,0.5", "--lambda0", "1,2,3",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lam0" in captured.err


def test_solve_from_problem_file(tmp_path, capsys):
    doc = {
        "name": "file-problem",
        "n": 1,
        "s": 1,
        "M": [[-1.0]],
        "q": [0.0],
        "G": [[1.0]],
        "h": [0.0],
        "lower": ["-inf"],
        "upper": [0],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--x0", "-0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "CONVERGED"

    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["solve", "--problem", str(bad), "--x0", "0"]) == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("upper", f"[{10**400}]", "$.upper[0]: integer out of the float range"),
        ("M", f"[[{10**400}]]", "$.M: not a numeric array (int too large to convert to float)"),
        ("q", "[NaN]", "$.q[0]: entry is nan, must be finite"),
        ("G", "[[true]]", "$.G[0][0]: expected a number, got True"),
        ("lower", "[1]", "$.lower[0]: exceeds upper bound"),
    ],
    ids=["upper-int", "M-int", "q-nan", "G-true", "lower-above-upper"],
)
def test_a_bad_problem_file_exits_1_with_the_field_named(tmp_path, capsys, field, value, message):
    doc = {
        "name": "file-problem", "n": 1, "s": 1, "M": [[-1.0]], "q": [0.0],
        "G": [[1.0]], "h": [0.0], "lower": ["-inf"], "upper": [0],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(dict(doc, **{field: None})).replace("null", value), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--x0", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main([
        "solve", "--problem", "ncp-paper", "--x0", "-0.1", "--out", str(target),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["status"] == "CONVERGED"


def test_check_command(capsys):
    code = main(["check", "--problem", "ncp-paper", "--x0", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "non-degeneracy modulus: 1.0" in out
    assert "second-order face {}: PASS (sigma_min 1.0)" in out
    assert "second-order face {0}: PASS (sigma_min inf)" in out
    assert "second-order overall: PASS" in out
    assert "defect sample max: 0.0" in out


def test_check_command_with_lambda0(capsys):
    # lambda = 2 is strictly active at the bound, so the face {} drops out
    assert main(["check", "--problem", "ncp-paper", "--x0", "0", "--lambda0", "2"]) == 0
    out = capsys.readouterr().out
    assert "second-order face {0}: PASS (sigma_min inf)" in out
    assert "second-order face {}:" not in out
    assert main(["check", "--problem", "ncp-paper", "--x0", "0", "--lambda0", "1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --lambda0 length does not match the problem\n"


def test_check_infeasible_point(capsys):
    assert main(["check", "--problem", "ncp-paper", "--x0", "1"]) == 1
    assert "error" in capsys.readouterr().err
