"""Per-run reports: iteration records, termination status, (de)serialization.

Records hold plain tuples of floats so that reports compare by value and
survive a JSON round trip bit-for-bit (Python floats serialize via repr,
which is exact).
"""

import json
from dataclasses import dataclass
from enum import Enum


class Status(Enum):
    CONVERGED = "CONVERGED"
    MAX_ITER = "MAX_ITER"
    QP_INFEASIBLE = "QP_INFEASIBLE"
    SINGULAR_NEWTON_SYSTEM = "SINGULAR_NEWTON_SYSTEM"
    UNSOLVABLE_SUBPROBLEM = "UNSOLVABLE_SUBPROBLEM"
    EVALUATION_FAILED = "EVALUATION_FAILED"  # a callback returned invalid output
    SUBPROBLEM_NONCONVERGENCE = "SUBPROBLEM_NONCONVERGENCE"  # e.g. the QP update cap


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x: tuple
    residual: float  # residual proxy: ||u_hat|| for the Newton driver
    step_norm: float
    lam: tuple = None
    branch: str = None  # activity summary, one letter per coordinate
    rate_estimate: float = None  # step_norm_k / step_norm_{k-1}^2


@dataclass(frozen=True)
class SolveReport:
    status: Status
    iterations: tuple
    final_x: tuple
    message: str = ""


def _record_to_dict(record):
    return {
        "k": record.k,
        "x": list(record.x),
        "residual": record.residual,
        "step_norm": record.step_norm,
        "lambda": None if record.lam is None else list(record.lam),
        "branch": record.branch,
        "rate": record.rate_estimate,
    }


def report_to_dict(report):
    return {
        "status": report.status.value,
        "iterations": [_record_to_dict(r) for r in report.iterations],
        "final_x": list(report.final_x),
        "message": report.message,
    }


def report_from_dict(doc):
    records = tuple(
        IterationRecord(
            k=r["k"],
            x=tuple(r["x"]),
            residual=r["residual"],
            step_norm=r["step_norm"],
            lam=None if r.get("lambda") is None else tuple(r["lambda"]),
            branch=r.get("branch"),
            rate_estimate=r.get("rate"),
        )
        for r in doc["iterations"]
    )
    return SolveReport(
        status=Status(doc["status"]),
        iterations=records,
        final_x=tuple(doc["final_x"]),
        message=doc.get("message", ""),
    )


def report_to_json(report, extra_columns=None):
    doc = report_to_dict(report)
    if extra_columns:
        for record, extras in zip(doc["iterations"], extra_columns):
            record.update(extras)
    return json.dumps(doc, indent=2)


def report_from_json(text):
    return report_from_dict(json.loads(text))


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report, extra_columns=None):
    """One row per iteration: k, x components, residual, step_norm, rate."""
    dim = len(report.final_x)
    header = ["k"] + [f"x{i}" for i in range(dim)] + ["residual", "step_norm", "rate"]
    extra_keys = []
    if extra_columns:
        extra_keys = sorted({key for extras in extra_columns for key in extras})
        header += extra_keys
    lines = [",".join(header)]
    for i, record in enumerate(report.iterations):
        row = [str(record.k)]
        row += [repr(v) for v in record.x]
        row += [_cell(record.residual), _cell(record.step_norm), _cell(record.rate_estimate)]
        if extra_keys:
            extras = extra_columns[i] if i < len(extra_columns) else {}
            row += [_cell(extras.get(key)) for key in extra_keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
