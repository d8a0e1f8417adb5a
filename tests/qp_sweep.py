"""QP verdict sweep: a fixed family of small QPs, solved cold and seeded.

    python3 tests/qp_sweep.py run OUT [--count 6000] [--src DIR]
    python3 tests/qp_sweep.py compare BEFORE AFTER

``run`` writes one digest line per solve to OUT.  Instance i is drawn from
``default_rng([2024, i])``: n <= 5 unknowns, s <= 6 rows, entries U(-2, 2)
and a box from ``helpers.random_box``; for odd i with s >= 2 the last row
lies 10^U(-13, -5) off a combination of the others; then each row of Jg,
with its entry of b and its bounds, is scaled by 10^U(-3, 3).  Each instance
is solved cold, seeded with ``violated_guess``, and, when the cold solve
returns, seeded with the cold solution's pattern, multiplier and factor.  A
line holds the index, the solve ("cold", "violated" or "carried") and either
the exception's class name or the pattern, the ``degenerate_multiplier``
flag and u and lambda as exact hex floats.  ``--src`` imports ``ssnewton``
from another source tree (default: this checkout's ``src``), so two
versions can be swept with the same instances.

``compare`` matches the lines of two such files by (index, solve).  It counts
the solves whose exception kind, pattern or flag differ and the solves whose
u or lambda moved by more than 1e-12 relative to max(1, max |before|),
with the largest such move, and exits 1 when any kind, pattern or flag
differs.

Not collected by pytest; ``test_qp.py`` runs it on a few instances.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOL = 1e-12  # relative move of u or lambda that compare reports


def instance(i):
    import numpy as np

    from helpers import random_box
    from ssnewton.cones import BoxSet
    from ssnewton.qp import QPInstance

    rng = np.random.default_rng([2024, i])
    n = int(rng.integers(1, 6))
    s = int(rng.integers(1, 7))
    c = rng.uniform(-2, 2, n)
    b = rng.uniform(-2, 2, s)
    jac = rng.uniform(-2, 2, (s, n))
    box = random_box(rng, s)
    if i % 2 and s >= 2:
        jac[-1] = rng.uniform(-1, 1, s - 1) @ jac[:-1]
        jac[-1] += 10.0 ** rng.uniform(-13, -5) * rng.standard_normal(n)
    sigma = 10.0 ** rng.uniform(-3, 3, s)
    return QPInstance(c=c, b=sigma * b, jac=sigma[:, None] * jac,
                      box=BoxSet(sigma * box.lower, sigma * box.upper))


def _digest(i, kind, solve):
    from ssnewton.cones import pattern_summary
    from ssnewton.errors import NonconvergenceError, QPInfeasibleError

    try:
        sol = solve()
    except (QPInfeasibleError, NonconvergenceError) as exc:
        return f"{i} {kind} {type(exc).__name__}", None
    values = " ".join(float(v).hex() for v in (*sol.u, *sol.lam))
    flag = int(sol.degenerate_multiplier)
    return f"{i} {kind} {pattern_summary(sol.active)} {flag} {values}", sol


def run(out, count):
    import dataclasses

    from ssnewton.qp import solve_qp, violated_guess

    with open(out, "w") as fh:
        for i in range(count):
            inst = instance(i)
            line, cold = _digest(i, "cold", lambda: solve_qp(inst))
            lines = [line]
            seeded = dataclasses.replace(inst, guess=violated_guess(inst))
            lines.append(_digest(i, "violated", lambda: solve_qp(seeded))[0])
            if cold is not None:
                guess = (cold.active, cold.lam, cold.factor)
                carried = dataclasses.replace(inst, guess=guess)
                lines.append(_digest(i, "carried", lambda: solve_qp(carried))[0])
            fh.write("".join(line + "\n" for line in lines))


def _read(path):
    digests = {}
    with open(path) as fh:
        for line in fh:
            i, kind, verdict, *rest = line.split()
            flag, values = (rest[0], [float.fromhex(v) for v in rest[1:]]) if rest else (None, [])
            digests[int(i), kind] = (verdict, flag, values)
    return digests


def compare(before, after):
    old, new = _read(before), _read(after)
    if old.keys() != new.keys():
        print(f"different solves: {len(old.keys() ^ new.keys())} keys in only one file")
        return 1
    differ, moved, largest = [], [], 0.0
    for key, (verdict, flag, values) in old.items():
        if (verdict, flag) != new[key][:2]:
            differ.append(key)
            continue
        if values:
            scale = max(1.0, max(abs(v) for v in values))
            change = max(abs(a - b) for a, b in zip(values, new[key][2])) / scale
            if change > TOL:
                moved.append(key)
                largest = max(largest, change)
    returned = sum(flag is not None for _, flag, _ in old.values())
    print(f"{len(old)} solves, {returned} returned")
    print(f"exception kind, pattern or flag differ: {len(differ)} {sorted(differ)[:20]}")
    odd = sum(i % 2 for i, _ in moved)
    print(f"u or lambda moved beyond {TOL:g} relative: {len(moved)} ({odd} at odd i), "
          f"largest {largest:.3g}")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out")
    p_run.add_argument("--count", type=int, default=6000)
    p_run.add_argument("--src", default=str(HERE.parent / "src"))
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("before")
    p_cmp.add_argument("after")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        return compare(args.before, args.after)
    sys.path[:0] = [str(Path(args.src).resolve()), str(HERE)]
    run(args.out, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
