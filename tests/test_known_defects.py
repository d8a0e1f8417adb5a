"""Known false verdicts, pinned as strict expected failures.

Each test asserts the true answer on the smallest reproducer of one defect
(README, "Known limitations") and is marked ``xfail(strict=True)`` with the
exception the defect raises.  So it fails the suite when the defect stops
reproducing (the fix then drops the marker) and when anything else goes
wrong.
"""

import dataclasses
import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qp_sweep
from ssnewton.cones import BoxSet
from ssnewton.errors import DegeneracyError, QPInfeasibleError
from ssnewton.newton import approximation_step, solve
from ssnewton.qp import QPInstance, solve_qp, violated_guess
from ssnewton.reports import Status


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.xfail(strict=True, raises=DegeneracyError, reason=(
    "Defect A: the rank test's floor RANK_TOL * max(1, max|C|) is absolute, so a row "
    "scaled by 1e-6 beside one scaled by 1e6 reads as rank deficient and the run ends "
    "SINGULAR_NEWTON_SYSTEM"))
def test_defect_a_a_row_scaled_obstacle_is_solved_as_the_unscaled_one():
    # obstacle-2d instance 0 at seed 11, with row i of g and its bounds
    # scaled by 10^U(-6, 6) drawn from default_rng([99, i]): the same
    # problem, so the same run.  Its rows are coordinate rows, but the
    # verdict comes from the factor's rank test, before the Newton system
    workloads = _workloads()
    problem = workloads.instance(workloads.WORKLOADS["obstacle-2d"], 11, 0).problem
    n = problem.n
    sigma = np.array([10.0 ** np.random.default_rng([99, i]).uniform(-6, 6) for i in range(n)])
    scaled = dataclasses.replace(
        problem,
        g=lambda x: sigma * problem.g(x),
        jg=lambda x: sigma[:, None] * problem.jg(x),
        box=BoxSet(sigma * problem.box.lower, sigma * problem.box.upper),
    )
    x0 = np.zeros(n)
    assert approximation_step(scaled, x0).factor.coordinates is not None
    expected = solve(problem, x0, max_iter=20)
    assert expected.status is Status.CONVERGED
    report = solve(scaled, x0, max_iter=20)
    if report.message.startswith("point is degenerate: active rows of Jg lost rank"):
        raise DegeneracyError(report.message)  # the defect's false verdict
    assert (report.status, len(report.iterations)) == (expected.status, len(expected.iterations))
    want = np.array(expected.final_x)
    move = np.max(np.abs(np.array(report.final_x) - want))
    assert move <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.xfail(strict=True, raises=QPInfeasibleError, reason=(
    "Defect B: the dual active-set loop's dependence floor max(1, ||row||^2) is absolute, "
    "so at row scale 1e-10 it reads a full step as an unbounded dual step and calls a "
    "feasible QP infeasible"))
def test_defect_b_tiny_coupled_rows_are_not_called_infeasible():
    sigma = 1e-10
    jac = sigma * np.array([[1.0, 1.0], [1.0, -1.0]])
    b = sigma * np.array([0.3, 0.0])
    inst = QPInstance(c=np.array([-0.7, 0.1]), b=b, jac=jac, box=BoxSet.nonpositive(2))
    # u = (-0.15, -0.15) meets both rows, exactly in the instance's floats
    u = (-0.15, -0.15)
    for i in range(2):
        assert Fraction(b[i]) + sum(Fraction(jac[i, j]) * Fraction(u[j]) for j in range(2)) <= 0
    sol = solve_qp(inst)
    assert np.allclose(sol.u, u, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Defect C: an unbounded dual step is taken as an infeasibility certificate without "
    "a check, so the cold solve of tests/qp_sweep.py instance 839 raises "
    "QPInfeasibleError where the seeded solve returns a point"))
def test_defect_c_cold_and_seeded_solves_agree_on_sweep_instance_839():
    # whichever of the two verdicts is the false one, they must agree
    inst = qp_sweep.instance(839)

    def kind(instance):
        try:
            solve_qp(instance)
        except QPInfeasibleError:
            return "infeasible"
        return "returned"

    seeded = dataclasses.replace(inst, guess=violated_guess(inst))
    assert kind(inst) == kind(seeded)
