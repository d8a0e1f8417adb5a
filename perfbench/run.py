"""Seeded solve benchmark for ssnewton.

    python3 perfbench/run.py --workload obstacle-2d --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  One process (a closed loop with one
client) solves the workload's fixed instance list from x0 = 0, one instance
per ``ssnewton.solve`` call, cycling through the list until ``--seconds``
have passed, at least 100 solves are timed and every instance was solved once.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` solves each
instance untraced and then traced (see tracer.py) and reports the per-layer
metrics.  Every solve is checked independently of ssnewton (``kkt_check``);
repeated solves of an instance, and its traced solve, must return the same
iterate, status and iteration count bit for bit.  The last line of standard
output is one JSON object; the per-instance outcomes, the timing samples and
(with ``--trace 1``) the spans are written to ``perfbench/results/``.
"""

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_TIMED = 100  # p90 needs at least ten samples above it
SETUP_PROBES = 5
# Converging instances need at most 6 outer iterations (900 draws); the few
# vi-dense and nl-few-bounds instances that cycle never converge, and a cap of
# 50 let the number of them a seed draws dominate throughput.  They still
# count as failed at this cap.
SOLVE_OPTIONS = {"max_iter": 20}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="set up, print 'ready' and exit"
    )
    return parser.parse_args(argv)


def kkt_check(problem, x, lam):
    """Residuals of the KKT conditions at (x, lam), each over its tolerance.

    Written against the problem data only: stationarity
    ``||f + Jg^T lam||_inf``, feasibility ``g(x) in D`` and normal-cone
    membership ``lam in N_D(g(x))``.  A value <= 1 passes; NaN fails.
    """
    f, g, jg = problem.f(x), problem.g(x), problem.jg(x)
    lo, hi = problem.box.lower, problem.box.upper
    lam_tol = 1e-8 * (1.0 + np.max(np.abs(lam), initial=0.0))
    g_tol = 1e-8 * (1.0 + np.max(np.abs(g)) + np.max(np.abs(jg) @ np.abs(x), initial=0.0))
    stat_tol = 1e-8 * (1.0 + np.max(np.abs(f)) + np.max(np.abs(jg.T) @ np.abs(lam), initial=0.0))
    stationarity = np.max(np.abs(f + jg.T @ lam), initial=0.0) / stat_tol
    feasibility = max(np.max(lo - g, initial=0.0), np.max(g - hi, initial=0.0)) / g_tol
    # a positive multiplier needs g at a finite upper bound, a negative one at a lower
    gap = np.where(lam > lam_tol, np.abs(hi - g), 0.0)
    gap = np.maximum(gap, np.where(lam < -lam_tol, np.abs(g - lo), 0.0))
    complementarity = np.max(gap, initial=0.0) / g_tol
    return {
        "stationarity": float(stationarity),
        "feasibility": float(feasibility),
        "complementarity": float(complementarity),
    }


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup(workload_name, seed):
    """Import the library, build the instance list and make one warm-up solve."""
    import ssnewton
    from workloads import WORKLOADS, instances

    workload = WORKLOADS[workload_name]
    built = instances(workload, seed)
    ssnewton.solve(built[0].problem, np.zeros(workload.n), **SOLVE_OPTIONS)
    return workload, built


def probe_setup(args):
    """Seconds from starting a fresh interpreter to the end of ``setup``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def outcome(report):
    return report.status.value, len(report.iterations) - 1, report.final_x


def run(args, problems, tracer):
    """Solve the instance list in order, cycling, and check every solve.

    Returns the per-instance records of the first pass, the wall time of
    every untraced (and traced) solve, and the number of mismatches between
    repeated or traced solves and the first pass.
    """
    import ssnewton

    count = len(problems)
    x0 = np.zeros(problems[0].n)
    first, times, traced_times = [], [], []
    mismatches = 0
    start = perf_counter()
    k = 0
    while k < max(count, MIN_TIMED) or perf_counter() - start < args.seconds:
        problem = problems[k % count]
        t0 = perf_counter()
        report = ssnewton.solve(problem, x0, **SOLVE_OPTIONS)
        times.append(perf_counter() - t0)
        seen = [outcome(report)]
        if tracer is not None:
            t0 = perf_counter()
            traced = tracer.solve(problem, x0, k, **SOLVE_OPTIONS)
            traced_times.append(perf_counter() - t0)
            seen.append(outcome(traced))
        if k < count:
            first.append(report)
        mismatches += sum(o != outcome(first[k % count]) for o in seen)
        k += 1
    records = []
    for i, report in enumerate(first):
        status, iters, final_x = outcome(report)
        lam = np.array(report.iterations[-1].lam)
        check = kkt_check(problems[i], np.array(final_x), lam)
        passed = all(value <= 1.0 for value in check.values())
        records.append({"index": i, "status": status, "outer_iters": iters,
                        "check_passed": passed, **check})
    return records, times, traced_times, mismatches


def end_to_end(records, times, setup_times):
    ordered = sorted(times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_ms.p50": (1e3 * statistics.median(ordered), "ms"),
        "solve_ms.p90": (1e3 * statistics.quantiles(ordered, n=10, method="inclusive")[-1], "ms"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "outer_iters.mean": (statistics.fmean(r["outer_iters"] for r in records), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def same_data(built, regenerated):
    return all(
        a.data.keys() == b.data.keys()
        and all(a.data[key].tobytes() == b.data[key].tobytes() for key in a.data)
        for a, b in zip(built, regenerated, strict=True)
    )


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ssnewton" / "__init__.py").is_file():
        print(f"error: no ssnewton sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, built = setup(args.workload, args.seed)
    from tracer import Tracer
    from workloads import instances

    problems = [inst.problem for inst in built]
    tracer = Tracer() if args.trace else None
    records, times, traced_times, mismatches = run(args, problems, tracer)

    for r in records:
        r["failed"] = r["status"] != "CONVERGED" or not r["check_passed"]
    wrong = sum(r["status"] == "CONVERGED" and not r["check_passed"] for r in records)
    deterministic = same_data(built, instances(workload, args.seed))
    if args.trace:
        metrics, consistent = tracer.layer_metrics(len(problems))
        metrics["failed_frac"] = (statistics.fmean(r["failed"] for r in records), "fraction")
        metrics["trace.overhead_frac"] = (sum(traced_times) / sum(times) - 1.0, "fraction")
    else:
        metrics, consistent = end_to_end(records, times, setup_times), True
    correct = wrong == 0 and mismatches == 0 and deterministic and consistent

    outcomes = [(r["status"], r["outer_iters"]) for r in records]
    summary = {
        "workload": workload.name, "n": workload.n, "s": workload.s,
        "instances": len(problems), "solves": len(times),
        "failed_instances": sum(r["failed"] for r in records), "wrong": wrong,
        "mismatches": mismatches, "same_data": deterministic, "self_times_add_up": consistent,
        "outcomes_sha256": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16],
        **environment(args.seed),
    }
    detail = {"summary": summary, "records": records, "solve_s": times,
              "traced_solve_s": traced_times, "setup_s": setup_times, "metrics": metrics}
    if tracer is not None:
        detail["spans"] = tracer.spans
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))

    print("# " + json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": len(times),
        "failed": sum(records[k % len(records)]["failed"] for k in range(len(times))),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
