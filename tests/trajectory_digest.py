"""Trajectory digest: the first solves of every benchmark generator, bit for bit.

    python3 tests/trajectory_digest.py run OUT [--count 60] [--src DIR]
    python3 tests/trajectory_digest.py compare A B [--rtol R]

``run`` solves instances 0 .. count-1 of each generator in
``perfbench/workloads.py``, drawn at seed 11 and solved from x0 = 0 with
max_iter 20 and one BLAS thread, as ``perfbench/run.py`` solves them.  It
writes one line per instance: the workload, the index, the status, the
number of outer iterations, the branch string of every iteration, and the
last iteration's multiplier and ``final_x`` as exact hex floats.  ``--src``
imports ``ssnewton`` from another source tree (default: this checkout's
``src``), so two versions can be run on the same instances; the generators
always come from this checkout's ``perfbench``.

``compare`` matches the lines of two such files by (workload, index),
prints how many differ and the first of them, and exits 1 when any line
differs or either file has an instance the other lacks.  With ``--rtol R``
the status, the iteration count and the branches must still match exactly,
but the multiplier and ``final_x`` may each move by R relative to
max(1, max |before|), as ``tests/qp_sweep.py compare`` allows; it also
prints how many lines moved within R and the largest move.  Either way it
then prints, for each workload, how many of its lines moved, the largest
relative move among them, and how many changed status, iterations or
branches.

Not collected by pytest; ``test_newton.py`` runs it on a few instances.
"""

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 11
MAX_ITER = 20


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def digest(workload, i, report):
    """The line of one solve (see the module docstring)."""
    records = report.iterations
    branches = "|".join(record.branch or "-" for record in records) or "-"
    lam = (records[-1].lam if records else None) or ()
    return (f"{workload} {i} {report.status.value} {len(report.iterations) - 1} "
            f"{branches} {_hex(lam)} {_hex(report.final_x)}")


def run(out, count):
    import numpy as np
    from workloads import WORKLOADS, instance

    import ssnewton

    with open(out, "w") as fh:
        for name, workload in WORKLOADS.items():
            for i in range(count):
                problem = instance(workload, SEED, i).problem
                report = ssnewton.solve(problem, np.zeros(workload.n), max_iter=MAX_ITER)
                fh.write(digest(name, i, report) + "\n")


def _read(path):
    with open(path) as fh:
        return {tuple(line.split()[:2]): line for line in fh}


def _move(before, after):
    """The relative move of the multiplier and final_x between two lines
    (see the module docstring), or None when anything else differs."""
    old, new = before.rstrip("\n").split(" "), after.rstrip("\n").split(" ")
    if old[:5] != new[:5]:
        return None
    move = 0.0
    for field_old, field_new in zip(old[5:], new[5:]):
        was = [float.fromhex(v) for v in field_old.split(",") if v]
        now = [float.fromhex(v) for v in field_new.split(",") if v]
        if len(was) != len(now):
            return None
        if was:
            scale = max(1.0, max(abs(v) for v in was))
            move = max(move, max(abs(p - q) for p, q in zip(was, now)) / scale)
    return move


def _by_workload(old, moves):
    """One line per workload: how many of its lines moved, and by how much."""
    for workload in dict.fromkeys(key[0] for key in old):
        count = sum(key[0] == workload for key in old)
        moved = [move for key, move in moves.items() if key[0] == workload]
        line = f"  {workload}: {len(moved)} of {count} lines moved"
        sizes = [move for move in moved if move is not None]
        if sizes:
            line += f", largest move {max(sizes):.3g}"
        if len(sizes) < len(moved):
            line += f", {len(moved) - len(sizes)} in status, iterations or branches"
        print(line)


def compare(a, b, rtol=None):
    old, new = _read(a), _read(b)
    if old.keys() != new.keys():
        print(f"different instances: {len(old.keys() ^ new.keys())} keys in only one file")
        return 1
    differ = [key for key, line in old.items() if new[key] != line]
    moves = {key: _move(old[key], new[key]) for key in differ}
    if rtol is None:
        print(f"{len(old)} instances, {len(differ)} differ {differ[:20]}")
        _by_workload(old, moves)
        return 1 if differ else 0
    beyond = [key for key, move in moves.items() if move is None or move > rtol]
    largest = max((move for move in moves.values() if move is not None), default=0.0)
    print(f"{len(old)} instances, {len(beyond)} differ beyond rtol {rtol:g} {beyond[:20]}, "
          f"{len(differ) - len(beyond)} moved within it, largest move {largest:.3g}")
    _by_workload(old, moves)
    return 1 if beyond else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out")
    p_run.add_argument("--count", type=int, default=60)
    p_run.add_argument("--src", default=str(HERE.parent / "src"))
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--rtol", type=float, default=None)
    args = parser.parse_args(argv)
    if args.mode == "compare":
        return compare(args.a, args.b, args.rtol)
    sys.path[:0] = [str(Path(args.src).resolve()), str(HERE.parent / "perfbench")]
    run(args.out, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
