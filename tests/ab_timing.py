"""Interleaved two-tree timing: both versions in one process, alternating per solve.

    python3 tests/ab_timing.py run PARENT_SRC CHANGE_SRC --workload W
        [--seed 1] [--count 200] [--rounds 5]

``run`` imports ``ssnewton`` from PARENT_SRC and from CHANGE_SRC under two
package names, and builds instances 0 .. count-1 of workload W of this
checkout's ``perfbench/workloads.py`` (drawn at ``--seed``) once per tree,
with that tree's classes.  After one untimed pass per tree, each of
``--rounds`` rounds solves every instance once with each tree from x0 = 0,
with max_iter 20 and one BLAS thread as ``perfbench/run.py`` solves them;
which tree goes first alternates from solve to solve, so slow stretches of
the host hit both trees alike.  Every solve's report must be the same in
both trees bit for bit (``report_to_json``: status, every iterate, step
norm and multiplier, and ``final_x``).

It prints one JSON object: each tree's median solve time in ms, their ratio
(change over parent), the median of the per-instance ratios, and the number
of instances whose outcome differs; it exits 1 when any differs.  This is a
sizing tool, tighter than separate ``perfbench/run.py`` processes, not the
benchmark of record.

Not collected by pytest; ``test_newton.py`` runs it on 2 instances.
"""

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import statistics
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"
MAX_ITER = 20


def _load(path, name, search=None):
    """Import the module or package at ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src, name):
    """``ssnewton`` from the source tree ``src``, imported as ``name``, and
    the workloads module built on it."""
    package = Path(src).resolve() / "ssnewton"
    tree = _load(package / "__init__.py", name, [str(package)])
    saved = sys.modules.get("ssnewton")
    sys.modules["ssnewton"] = tree  # workloads.py imports BoxSet and GEProblem from it
    try:
        workloads = _load(WORKLOADS, f"{name}_workloads")
    finally:
        if saved is None:
            del sys.modules["ssnewton"]
        else:
            sys.modules["ssnewton"] = saved
    return tree, workloads


def run(parent_src, change_src, workload, seed, count, rounds):
    import numpy as np

    trees = [load_tree(parent_src, "ab_parent"), load_tree(change_src, "ab_change")]
    problems = []
    for _, workloads in trees:
        spec = workloads.WORKLOADS[workload]
        problems.append([workloads.instance(spec, seed, i).problem for i in range(count)])
    x0 = np.zeros(problems[0][0].n)

    def solve(side, i):
        tree = trees[side][0]
        start = perf_counter()
        report = tree.solve(problems[side][i], x0, max_iter=MAX_ITER)
        return perf_counter() - start, tree.reports.report_to_json(report)

    outcomes = [[solve(side, i)[1] for i in range(count)] for side in (0, 1)]
    differ = {i for i, (a, b) in enumerate(zip(*outcomes)) if a != b}
    times = [[[] for _ in range(count)] for _ in (0, 1)]
    k = 0
    for _ in range(rounds):
        for i in range(count):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                elapsed, outcome = solve(side, i)
                times[side][i].append(elapsed)
                if outcome != outcomes[0][i]:
                    differ.add(i)
            k += 1
    p50 = [1e3 * statistics.median(t for per in times[side] for t in per) for side in (0, 1)]
    per_instance = [statistics.median(b) / statistics.median(a) for a, b in zip(*times)]
    print(json.dumps({
        "workload": workload, "seed": seed, "instances": count, "rounds": rounds,
        "parent_p50_ms": round(p50[0], 4), "change_p50_ms": round(p50[1], 4),
        "ratio": round(p50[1] / p50[0], 4),
        "instance_ratio_median": round(statistics.median(per_instance), 4),
        "outcomes_differ": len(differ),
    }))
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("parent_src")
    p_run.add_argument("change_src")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--count", type=int, default=200)
    p_run.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    return run(args.parent_src, args.change_src, args.workload, args.seed, args.count,
               args.rounds)


if __name__ == "__main__":
    sys.exit(main())
