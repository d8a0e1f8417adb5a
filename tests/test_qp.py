import re

import numpy as np
import pytest

from helpers import random_box, random_qp_instance
from ssnewton.cones import Activity, BoxSet, normal_cone_membership, pattern_admits
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


def test_narrow_box_patterns_agree_between_solvers():
    # both bounds lie within the activity tolerance of any feasible point;
    # the point takes the nearer bound, so the multiplier's sign fits it
    box = BoxSet([0.0], [5e-10])
    assert normal_cone_membership(np.array([5e-10]), np.array([1.0]), box)
    for c, kind in ((1.0, Activity.AT_LOWER), (-1.0, Activity.AT_UPPER)):
        inst = QPInstance(c=np.array([c]), b=np.zeros(1), jac=np.eye(1), box=box)
        sol, ref = solve_qp(inst), brute_force_qp(inst)
        assert sol.active == ref.active == (kind,)
        assert pattern_admits(sol.active, sol.lam)
        assert pattern_admits(ref.active, ref.lam)


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


def test_drop_path_matches_oracle():
    # row 0 is added first, then dropped by a partial step while row 1 enters
    inst = QPInstance(c=np.array([-3.0, 2.0]), b=np.array([-1.0, 1.0]),
                      jac=np.array([[2.0, -2.0], [1.0, -2.0]]), box=BoxSet.nonpositive(2))
    sol = solve_qp(inst)
    ref = brute_force_qp(inst)
    assert sol.iterations == 3
    assert sol.active == (Activity.INTERIOR, Activity.AT_UPPER)
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-14
    assert np.max(np.abs(sol.lam - ref.lam)) <= 1e-14
    assert sol.u == pytest.approx([1.4, 1.2], abs=1e-14)
    assert sol.lam == pytest.approx([0.0, 1.6], abs=1e-14)


def test_exact_add_or_drop_tie_adds_the_row():
    # once row 0 is active, row 1's full step and row 0's drop ratio are both
    # exactly 1; the tie adds row 1 and keeps row 0 at a zero multiplier in
    # two steps, where dropping row 0 first would take a third
    inst = QPInstance(c=np.array([-1.0, -3.0]), b=np.zeros(2),
                      jac=np.array([[2.0, 0.0], [1.0, 1.0]]),
                      box=BoxSet([-np.inf, -np.inf], [0.0, 2.0]))
    sol, ref = solve_qp(inst), brute_force_qp(inst)
    assert sol.iterations == _reference_path(inst)[1] == 2
    assert sol.active == ref.active == (Activity.AT_UPPER, Activity.AT_UPPER)
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-14
    assert np.max(np.abs(sol.lam - ref.lam)) <= 1e-14


def test_nearly_dependent_row_enters():
    # the rows are 1e-4 apart in angle: the second to enter keeps
    # ||z||^2 / ||n||^2 = 1e-8, far above the dependence floor
    eps = 1e-4
    inst = QPInstance(c=np.array([-2.0, -1.0 - eps]), b=np.zeros(2),
                      jac=np.array([[1.0, 0.0], [1.0, eps]]),
                      box=BoxSet([-np.inf, -np.inf], [0.0, eps]))
    sol, ref = solve_qp(inst), brute_force_qp(inst)
    assert sol.iterations == 2
    assert sol.active == ref.active == (Activity.AT_UPPER, Activity.AT_UPPER)
    # the oracle's lstsq on the nearly singular KKT system loses digits
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-10
    assert np.max(np.abs(sol.lam - ref.lam)) <= 1e-6
    assert sol.u == pytest.approx([0.0, 1.0], abs=1e-12)
    assert sol.lam == pytest.approx([1.0, 1.0], abs=1e-12)


def _feasible_instance(rng):
    """Unit rows with exact duplicates, negated copies and ~10% pinched
    coordinates; b = mid(box) - Jg u0 makes u0 a feasible point."""
    n = int(rng.integers(1, 31))
    s = int(rng.integers(1, 41))
    rows = rng.standard_normal((s, n))
    for j in range(1, s):
        pick = rng.random()
        if pick < 0.15:
            rows[j] = rows[rng.integers(0, j)]
        elif pick < 0.3:
            rows[j] = -rows[rng.integers(0, j)]
    jac = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    box = random_box(rng, s)
    lo, hi = box.lower.copy(), box.upper.copy()
    pinch = rng.random(s) < 0.1
    bound = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    lo[pinch] = hi[pinch] = bound[pinch]
    with np.errstate(invalid="ignore"):  # -inf + inf in the unused branch
        mid = np.where(
            np.isfinite(lo) & np.isfinite(hi),
            0.5 * (lo + hi),
            np.where(np.isfinite(lo), lo + 1.0, np.where(np.isfinite(hi), hi - 1.0, 0.0)),
        )
    u0 = rng.standard_normal(n)
    return QPInstance(c=rng.uniform(-2, 2, n), b=mid - jac @ u0, jac=jac, box=BoxSet(lo, hi))


def _reference_path(inst):
    """Row-by-row dual active-set loop on the normal equations B^T B rho = -B^T n.

    The loop the stacked solver replaced, kept as the reference for its
    active-set path; returns (u before the polish, number of steps).
    """
    rows = []
    for j in range(inst.s):
        if np.isfinite(inst.box.upper[j]):
            rows.append((inst.jac[j], inst.box.upper[j] - inst.b[j], j, "U"))
        if np.isfinite(inst.box.lower[j]):
            rows.append((-inst.jac[j], inst.b[j] - inst.box.lower[j], j, "L"))
    u, active, mults, steps = -inst.c.copy(), [], [], 0
    while True:
        worst, worst_violation = -1, 0.0
        for i, (normal, offset, _, _) in enumerate(rows):
            tol = 1e-11 * (1.0 + abs(offset) + float(np.abs(normal) @ np.abs(u)))
            violation = normal @ u - offset - tol
            if i not in active and violation > worst_violation:
                worst, worst_violation = i, violation
        if worst < 0:
            return u, steps
        normal, offset, coord, side = rows[worst]
        nn = max(1.0, float(normal @ normal))
        lam_target = 0.0
        while True:
            steps += 1
            if active:
                basis = np.column_stack([rows[i][0] for i in active])
                rho = -np.linalg.solve(basis.T @ basis, basis.T @ normal)
                z = normal + basis @ rho
            else:
                rho, z = np.zeros(0), normal
            znorm2 = float(z @ z)
            t_full = float(normal @ u - offset) / znorm2 if znorm2 > 1e-18 * nn else np.inf
            floor = 1e-10 * max(1.0, float(np.max(np.abs(rho))) if rho.size else 0.0)
            t_drop, drop = np.inf, -1
            for idx, r in enumerate(rho):
                if r < -floor and max(mults[idx], 0.0) / -r < t_drop:
                    t_drop, drop = max(mults[idx], 0.0) / -r, idx
            if not np.isfinite(min(t_full, t_drop)):
                raise QPInfeasibleError(
                    f"constraint {side} on coordinate {coord} cannot be "
                    "met: dual step is unbounded"
                )
            t = min(t_full, t_drop)
            if np.isfinite(t_full):
                u = u - t * z
            mults = [m + t * r for m, r in zip(mults, rho)]
            lam_target += t
            if t_full <= t_drop:
                active.append(worst)
                mults.append(lam_target)
                break
            del active[drop], mults[drop]


def test_active_set_path_matches_row_by_row_reference():
    # same verdicts, messages and step counts; u agrees up to rounding and
    # the polish, which only the stacked solver applies
    rng = np.random.default_rng(5)
    instances = [random_qp_instance(rng) for _ in range(300)]
    instances += [_feasible_instance(rng) for _ in range(100)]
    for inst in instances:
        try:
            u_ref, steps_ref = _reference_path(inst)
        except QPInfeasibleError as exc:
            with pytest.raises(QPInfeasibleError, match=re.escape(str(exc))):
                solve_qp(inst)
            continue
        sol = solve_qp(inst)
        assert sol.iterations == steps_ref
        scale = 1.0 + float(np.max(np.abs(u_ref)))
        assert np.max(np.abs(sol.u - u_ref)) <= 1e-8 * scale


def test_kkt_on_feasible_instances_with_dependent_rows():
    # beyond the brute-force guard: up to 80 rows in 30 unknowns
    rng = np.random.default_rng(11)
    dropped = 0
    for _ in range(400):
        inst = _feasible_instance(rng)
        sol = solve_qp(inst)
        dropped += sol.iterations > sum(a is not Activity.INTERIOR for a in sol.active)
        res = np.linalg.norm(sol.u + inst.c + inst.jac.T @ sol.lam)
        assert res <= 1e-9 * (1 + np.linalg.norm(inst.c))
        d = inst.b + inst.jac @ sol.u
        mem_tol = 1e-9 * (
            1.0
            + float(np.max(np.abs(inst.jac) @ np.abs(sol.u)))
            + float(np.max(np.abs(sol.lam)))
        )
        assert normal_cone_membership(d, sol.lam, inst.box, tol=mem_tol)
    assert dropped > 0  # the drop path is exercised
