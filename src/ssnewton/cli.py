"""Command-line front end.

Subcommands: ``solve`` runs a method on a built-in or JSON-defined problem
and emits a machine-readable report, ``check`` evaluates the assumption
checkers at a point, ``list`` prints the built-in problem names.

Exit codes: 0 success / converged, 1 usage or input error, 2 solver-reported
failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import baselines, newton
from .cones import polyhedral_defect_scan
from .errors import SSNewtonError
from .problems import (
    builtin_registry,
    check_second_order,
    eval_g,
    get_problem,
    load_affine_problem,
    nondegeneracy_modulus,
)
from .reports import Status, report_to_csv, report_to_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise _UsageError(message)


def _vector(text):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def build_parser():
    parser = _Parser(prog="ssnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver and emit a report")
    solve.add_argument("--problem", required=True, help="built-in name or JSON file path")
    solve.add_argument(
        "--method", choices=["ssstar", "josephy", "compare"], default="ssstar"
    )
    solve.add_argument("--x0", type=_vector, required=True)
    solve.add_argument("--lambda0", type=_vector, default=None)
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--max-iter", type=int, default=50)
    solve.add_argument("--output", choices=["json", "csv"], default="json")
    solve.add_argument("--known-solution", type=_vector, default=None)
    solve.add_argument("--out", type=Path, default=None)

    check = sub.add_parser("check", help="assumption checks at a point")
    check.add_argument("--problem", required=True)
    check.add_argument("--x0", type=_vector, required=True)
    check.add_argument("--lambda0", type=_vector, default=None)
    check.add_argument("--out", type=Path, default=None)

    sub.add_parser("list", help="names of the built-in problems")
    return parser


def _resolve_problem(spec):
    try:
        return get_problem(spec)
    except KeyError:
        path = Path(spec)
        if not path.exists():
            raise _UsageError(f"unknown problem name and no such file: {spec}") from None
        return load_affine_problem(path.read_text(encoding="utf-8"))


def _error_columns(report, known):
    errors = [math.dist(rec.x, known) for rec in report.iterations]
    columns = []
    for i, e in enumerate(errors):
        rate = None
        if i + 1 < len(errors) and e > 0 and errors[i + 1] > 0 and math.log(e) != 0:
            rate = math.log(errors[i + 1]) / math.log(e)
        columns.append({"error_norm": e, "error_rate": rate})
    return columns


def _emit(text, out):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _render(report, dim, fmt, known):
    extras = None if known is None else _error_columns(report, known)
    if fmt == "json":
        return report_to_json(report, extra_columns=extras)
    return report_to_csv(report, dim, extra_columns=extras)


def _side_by_side_csv(left_name, left_csv, right_name, right_csv):
    left_rows = [line.split(",") for line in left_csv.strip().split("\n")]
    right_rows = [line.split(",") for line in right_csv.strip().split("\n")]
    width_l, width_r = len(left_rows[0]), len(right_rows[0])
    header = [f"{left_name}_{c}" for c in left_rows[0]]
    header += [f"{right_name}_{c}" for c in right_rows[0]]
    lines = [",".join(header)]
    for i in range(1, max(len(left_rows), len(right_rows))):
        cells = left_rows[i] if i < len(left_rows) else [""] * width_l
        cells = cells + (right_rows[i] if i < len(right_rows) else [""] * width_r)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_solve(args):
    problem = _resolve_problem(args.problem)
    if args.x0.shape != (problem.n,):
        raise _UsageError(f"--x0 has {args.x0.size} entries, problem needs {problem.n}")
    known = args.known_solution
    if known is not None and known.shape != (problem.n,):
        raise _UsageError("--known-solution length does not match the problem")

    def run(method):
        if method == "ssstar":
            return newton.solve(problem, args.x0, tol=args.tol, max_iter=args.max_iter)
        return baselines.josephy_newton(
            problem, args.x0, lam0=args.lambda0, tol=args.tol, max_iter=args.max_iter
        )

    if args.method == "compare":
        reports = {name: run(name) for name in ("ssstar", "josephy")}
        if args.output == "json":
            docs = {
                name: _render(rep, problem.n, "json", known)
                for name, rep in reports.items()
            }
            text = (
                '{\n"method": "compare",\n"ssstar": %s,\n"josephy": %s\n}'
                % (docs["ssstar"], docs["josephy"])
            )
        else:
            text = _side_by_side_csv(
                "ssstar",
                _render(reports["ssstar"], problem.n, "csv", known),
                "josephy",
                _render(reports["josephy"], problem.n, "csv", known),
            )
        _emit(text, args.out)
        return 0 if all(r.status is Status.CONVERGED for r in reports.values()) else 2

    report = run(args.method)
    _emit(_render(report, problem.n, args.output, known), args.out)
    return 0 if report.status is Status.CONVERGED else 2


def cmd_check(args):
    problem = _resolve_problem(args.problem)
    if args.x0.shape != (problem.n,):
        raise _UsageError(f"--x0 has {args.x0.size} entries, problem needs {problem.n}")
    x = args.x0
    if args.lambda0 is not None:
        if args.lambda0.shape != (problem.s,):
            raise _UsageError("--lambda0 length does not match the problem")
        lam = args.lambda0
    else:
        lam = newton.approximation_step(problem, x).lam_hat
    g0 = eval_g(problem, x)
    modulus = nondegeneracy_modulus(problem, x, g0)
    second = check_second_order(problem, x, lam)
    defect = polyhedral_defect_scan(g0, lam, problem.box)
    lines = [f"non-degeneracy modulus: {modulus!r}"]
    for face in second.faces:
        verdict = "PASS" if face.passed else "FAIL"
        members = "{" + ",".join(str(i) for i in face.index_set) + "}"
        lines.append(
            f"second-order face {members}: {verdict} (sigma_min {face.sigma_min!r})"
        )
    lines.append(f"second-order overall: {'PASS' if second.passed else 'FAIL'}")
    lines.append(f"semismooth-star defect sample max: {defect!r}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_list(_args):
    for problem in builtin_registry():
        sys.stdout.write(problem.name + "\n")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_list(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SSNewtonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else exc.code


if __name__ == "__main__":
    sys.exit(main())
