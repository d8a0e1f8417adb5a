"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

import numpy as np

from helpers import random_qp_instance
from ssnewton.baselines import josephy_newton
from ssnewton.cones import BoxSet, polyhedral_defect_scan
from ssnewton.errors import QPInfeasibleError
from ssnewton.newton import (
    approximation_step,
    assemble_full_ab,
    closed_form_inverse,
    full_step_oracle,
    newton_step,
    newton_workspace,
    solve,
)
from ssnewton.problems import (
    AffineProblemSpec,
    builtin_registry,
    check_second_order,
    get_problem,
    nondegeneracy_modulus,
)
from ssnewton.qp import brute_force_qp, solve_qp
from ssnewton.reports import Status

NCP = get_problem("ncp-paper")


def _verdict(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_ncp_trajectory():
    start = time.perf_counter()
    report = solve(NCP, np.array([-0.1]), tol=1e-12)
    elapsed = time.perf_counter() - start
    xs = [rec.x[0] for rec in report.iterations]
    ok = (
        report.status is Status.CONVERGED
        and abs(xs[1] - 0.0125) <= 1e-12
        and abs(xs[2]) <= 1e-15
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"trajectory {xs}, one-step target 0.0125, exact zero next, {elapsed:.3f}s",
    )


def test_criterion_2_one_step_ratio():
    worst = 0.0
    for x0 in (-0.1, -0.05, -0.01):
        report = solve(NCP, np.array([x0]), tol=1e-12)
        x1 = report.iterations[1].x[0]
        worst = max(worst, abs(x1 / x0**2 - 1.0 / (1.0 + 2.0 * x0)))
    _verdict(2, worst <= 1e-10, f"max |x1/x0^2 - 1/(1+2 x0)| = {worst:.3e}")


def test_criterion_3_josephy_failure():
    ok = True
    for x0 in (0.1, -0.1, 0.5, -0.5):
        report = josephy_newton(NCP, np.array([x0]), lam0=np.zeros(1), tol=1e-12)
        ok &= report.status is Status.UNSOLVABLE_SUBPROBLEM
        ok &= report.iterations[-1].k == 0  # the very first subproblem
    _verdict(3, ok, "first linearized subproblem certified unsolvable at all four starts")


def _random_affine(rng):
    n = int(rng.integers(1, 7))
    s = int(rng.integers(1, min(n, 4) + 1))
    spec = AffineProblemSpec(
        name="rand",
        m=rng.uniform(-2, 2, (n, n)),
        q=rng.uniform(-2, 2, n),
        g_mat=rng.uniform(-2, 2, (s, n)),
        h=rng.uniform(-1, 1, s),
        lower=rng.choice([-1.0, -np.inf], s),
        upper=rng.choice([0.0, 1.0, np.inf], s),
    )
    return spec.build()


def test_criterion_4_inverse_formula():
    rng = np.random.default_rng(5)
    count, worst = 0, 0.0
    while count < 200:
        problem = _random_affine(rng)
        x = rng.uniform(-0.5, 0.5, problem.n)
        approx = approximation_step(problem, x)
        a, _ = assemble_full_ab(problem, approx)
        inv = closed_form_inverse(problem, approx)
        worst = max(worst, float(np.max(np.abs(a @ inv - np.eye(a.shape[0])))))
        count += 1
    _verdict(4, worst <= 1e-9, f"{count} instances, worst ||A A^-1 - I||_max = {worst:.3e}")


def test_criterion_5_reduced_full_equivalence():
    starts = {
        "ncp-paper": [[-0.1], [0.3], [-0.24]],
        "ncp-paper-affine": [[-0.5], [0.25]],
        "box-vi-2d": [[0.3, 0.3], [-0.2, 0.4]],
        "kojima-shindo": [[1.01, 0.01, 2.99, 0.0], [1.23, -0.01, 0.01, 0.49]],
    }
    worst, iterations = 0.0, 0
    for problem in builtin_registry():
        for x0 in starts[problem.name]:
            x = np.array(x0, dtype=float)
            for _ in range(20):
                approx = approximation_step(problem, x)
                if np.linalg.norm(approx.u_hat) <= 1e-12:
                    break
                step = newton_step(newton_workspace(problem, approx))
                gap = float(np.max(np.abs(step - full_step_oracle(problem, approx))))
                worst = max(worst, gap)
                iterations += 1
                x = x + step
    _verdict(
        5, worst <= 1e-9, f"{iterations} iterations checked, worst |reduced - full| = {worst:.3e}"
    )


def test_criterion_6_qp_oracle_equivalence():
    rng = np.random.default_rng(20250)
    worst, feasible, total = 0.0, 0, 500
    for _ in range(total):
        inst = random_qp_instance(rng)
        try:
            sol = solve_qp(inst)
            ok1 = True
        except QPInfeasibleError:
            ok1 = False
        try:
            ref = brute_force_qp(inst)
            ok2 = True
        except QPInfeasibleError:
            ok2 = False
        assert ok1 == ok2, "feasibility verdicts must agree"
        if ok1:
            worst = max(worst, float(np.max(np.abs(sol.u - ref.u))))
            feasible += 1
    _verdict(
        6,
        worst <= 1e-8,
        f"{total} instances ({feasible} feasible), verdicts agree, worst |du| = {worst:.3e}",
    )


def _reference_catalog():
    neg = (-np.inf, 0.0)
    pos = (0.0, np.inf)
    interval = (-1.0, 1.0)
    pinched = (0.0, 0.0)
    states = {
        neg: [(-1.0, 0.0), (0.0, 0.0), (0.0, 1.5)],
        pos: [(1.0, 0.0), (0.0, 0.0), (0.0, -1.5)],
        interval: [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (-1.0, 0.0), (-1.0, -0.5)],
        pinched: [(0.0, -1.0), (0.0, 0.0), (0.0, 3.0)],
    }
    catalog = []
    for bounds, sts in states.items():
        for d, lam in sts:
            catalog.append((BoxSet([bounds[0]], [bounds[1]]), np.array([d]), np.array([lam])))
    for b1, b2 in [(neg, pos), (interval, pinched), (neg, interval)]:
        box = BoxSet([b1[0], b2[0]], [b1[1], b2[1]])
        for (d1, l1), (d2, l2) in itertools.product(states[b1], states[b2]):
            catalog.append((box, np.array([d1, d2]), np.array([l1, l2])))
    return catalog


def test_criterion_7_polyhedral_exactness():
    catalog = _reference_catalog()
    assert len(catalog) >= 50
    worst = 0.0
    for box, d, lam in catalog:
        worst = max(worst, polyhedral_defect_scan(d, lam, box))
    _verdict(
        7, worst <= 1e-12, f"{len(catalog)} reference points, max sampled defect = {worst:.3e}"
    )


def test_criterion_8_assumption_checkers():
    modulus = nondegeneracy_modulus(NCP, np.zeros(1), np.zeros(1))
    report = check_second_order(NCP, np.zeros(1), np.zeros(1))
    faces = [f.index_set for f in report.faces]
    ok = modulus == 1.0 and report.passed and faces == [(), (0,)]
    _verdict(8, ok, f"modulus = {modulus}, faces {faces} all pass")


def test_criterion_9_box_vi_grid():
    problem = get_problem("box-vi-2d")
    rng = np.random.default_rng(9)
    starts = [np.zeros(2), np.array([0.5, 0.0]), np.array([0.0, -0.5]),
              np.array([0.35, -0.35])]
    while len(starts) < 25:
        x0 = rng.uniform(-0.5, 0.5, 2)
        if np.linalg.norm(x0) <= 0.5:
            starts.append(x0)
    ok = True
    for x0 in starts:
        report = solve(problem, x0, tol=1e-12, max_iter=10)
        steps = [rec.step_norm for rec in report.iterations]
        ratios = [steps[k] / steps[k - 1] for k in range(1, len(steps)) if steps[k - 1] > 0]
        ok &= report.status is Status.CONVERGED
        ok &= np.linalg.norm(report.final_x) <= 1e-10
        ok &= len(report.iterations) <= 10
        ok &= all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    _verdict(9, ok, f"{len(starts)} starting points inside the 0.5 ball all converge")


def test_criterion_10_scale_note():
    # the quantitative content is the scalar complementarity example, covered
    # exactly by criteria 1-3; the convergence theory is exercised through the
    # property suites behind criteria 5, 7 and 9
    _verdict(10, True, "no large-scale tables exist; covered by criteria 1-3, 5, 7, 9")
