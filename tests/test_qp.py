import numpy as np
import pytest

from helpers import random_qp_instance
from ssnewton.cones import Activity, BoxSet, normal_cone_membership
from ssnewton.errors import CombinatorialBlowupError, QPInfeasibleError
from ssnewton.qp import QPInstance, brute_force_qp, solve_qp

NEG1 = BoxSet.nonpositive(1)


def _ncp_instance(x):
    return QPInstance(
        c=np.array([-(x + x * x)]), b=np.array([x]), jac=np.eye(1), box=NEG1
    )


def test_ncp_interior_branch():
    sol = solve_qp(_ncp_instance(-0.1))
    assert sol.u == pytest.approx([-0.09], abs=1e-15)
    assert sol.lam == pytest.approx([0.0], abs=1e-15)
    assert sol.active == (Activity.INTERIOR,)


def test_ncp_active_branch():
    x = 0.0125
    sol = solve_qp(_ncp_instance(x))
    assert sol.u == pytest.approx([-x], abs=1e-15)
    assert sol.lam == pytest.approx([2 * x + x * x], abs=1e-15)
    assert sol.active == (Activity.AT_UPPER,)


def test_already_optimal():
    inst = QPInstance(c=np.zeros(2), b=np.array([-1.0, -2.0]), jac=np.eye(2),
                      box=BoxSet.nonpositive(2))
    sol = solve_qp(inst)
    assert np.all(sol.u == 0.0)
    assert np.all(sol.lam == 0.0)
    assert sol.iterations == 0


def test_brute_force_matches_closed_forms():
    for x in (-0.1, 0.0125):
        inst = _ncp_instance(x)
        ref = brute_force_qp(inst)
        sol = solve_qp(inst)
        assert np.max(np.abs(ref.u - sol.u)) <= 1e-10


def test_single_fixed_bound_reduces_to_linear_solve():
    box = BoxSet([1.0], [1.0])
    inst = QPInstance(c=np.array([3.0, -1.0]), b=np.array([0.0]),
                      jac=np.array([[1.0, 1.0]]), box=box)
    sol = solve_qp(inst)
    ref = brute_force_qp(inst)
    assert ref.iterations == 1  # one pattern, one KKT solve
    assert np.allclose(sol.u, ref.u, atol=1e-12)
    assert abs(sum(sol.u) - 1.0) <= 1e-12


def test_infeasible_certificate_both_solvers():
    # two pinched rows demanding u = 0 and u = -1 simultaneously
    box = BoxSet([0.0, 0.0], [0.0, 0.0])
    inst = QPInstance(c=np.zeros(1), b=np.array([0.0, 1.0]),
                      jac=np.array([[1.0], [1.0]]), box=box)
    with pytest.raises(QPInfeasibleError):
        solve_qp(inst)
    with pytest.raises(QPInfeasibleError):
        brute_force_qp(inst)


def test_degenerate_multiplier_least_norm():
    # duplicated rows: the multiplier is not unique, the least-norm one splits it
    box = BoxSet.nonpositive(2)
    inst = QPInstance(c=np.array([-1.0]), b=np.zeros(2),
                      jac=np.array([[1.0], [1.0]]), box=box)
    sol = solve_qp(inst)
    assert sol.degenerate_multiplier
    assert np.allclose(sol.u, [0.0], atol=1e-12)
    assert np.allclose(sol.lam, [0.5, 0.5], atol=1e-9)
    assert np.linalg.norm(sol.u + inst.c + inst.jac.T @ sol.lam) <= 1e-9


def test_brute_force_guard():
    box = BoxSet.nonpositive(7)
    inst = QPInstance(c=np.zeros(1), b=np.zeros(7), jac=np.zeros((7, 1)), box=box)
    with pytest.raises(CombinatorialBlowupError):
        brute_force_qp(inst)


def _solve_both(inst):
    try:
        sol = solve_qp(inst)
    except QPInfeasibleError:
        sol = None
    try:
        ref = brute_force_qp(inst)
    except QPInfeasibleError:
        ref = None
    return sol, ref


def test_oracle_equivalence_randomized():
    # wider than the acceptance sample: several seeds, scale-relative bound
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            inst = random_qp_instance(rng)
            sol, ref = _solve_both(inst)
            assert (sol is None) == (ref is None)
            if sol is None:
                continue
            scale = 1.0 + np.linalg.norm(ref.u)
            assert np.max(np.abs(sol.u - ref.u)) <= 1e-8 * scale


def test_kkt_residual_and_membership():
    rng = np.random.default_rng(7)
    for _ in range(400):
        inst = random_qp_instance(rng)
        sol, _ = _solve_both(inst)
        if sol is None:
            continue
        res = np.linalg.norm(sol.u + inst.c + inst.jac.T @ sol.lam)
        assert res <= 1e-9 * (1 + np.linalg.norm(inst.c))
        d = inst.b + inst.jac @ sol.u
        mem_tol = 1e-9 * (
            1.0
            + float(np.max(np.abs(inst.jac) @ np.abs(sol.u)))
            + float(np.max(np.abs(sol.lam)))
        )
        assert normal_cone_membership(d, sol.lam, inst.box, tol=mem_tol)


def test_objective_local_optimality():
    # feasible coordinate perturbations never improve the objective noticeably
    rng = np.random.default_rng(8)

    def objective(inst, u):
        return 0.5 * float(u @ u) + float(inst.c @ u)

    checked = 0
    while checked < 100:
        inst = random_qp_instance(rng)
        sol, _ = _solve_both(inst)
        if sol is None:
            continue
        base = objective(inst, sol.u)
        for i in range(inst.n):
            for sign in (1.0, -1.0):
                u = sol.u.copy()
                u[i] += sign * 1e-4
                d = inst.b + inst.jac @ u
                if np.any(d < inst.box.lower) or np.any(d > inst.box.upper):
                    continue
                assert objective(inst, u) >= base - 1e-9
        checked += 1
