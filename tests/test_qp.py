import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import has_disjoint_rows, random_box, random_qp_instance
from ssnewton.cones import (
    Activity,
    BoxSet,
    activity,
    normal_cone_membership,
    pattern_admits,
    pattern_of,
)
from ssnewton.errors import (
    CombinatorialBlowupError,
    DimensionError,
    EvaluationError,
    NonconvergenceError,
    QPInfeasibleError,
)
from ssnewton import linalg
from ssnewton import qp as qp_module
from ssnewton.linalg import coordinate_factor, factor_rows
from ssnewton.qp import QPInstance, brute_force_qp, solve_qp, violated_guess

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
    with pytest.raises(QPInfeasibleError) as info:
        solve_qp(inst)
    # from u = 0 the dual method adds u <= -1 (coordinate 1, upper); the
    # lower row of coordinate 0, u >= 0, is then dependent with no row to drop
    assert info.value.constraint == (0, "L")
    with pytest.raises(QPInfeasibleError) as info:
        brute_force_qp(inst)
    assert info.value.constraint is None


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


@pytest.mark.parametrize(
    "pattern, lam",
    [
        ((Activity.AT_UPPER,), np.zeros(2)),
        ((Activity.AT_UPPER, Activity.INTERIOR), np.zeros(1)),
        ((Activity.AT_UPPER, 4), np.zeros(2)),
        ((Activity.AT_UPPER, -1), np.zeros(2)),
        (("U", "I"), np.zeros(2)),
        ((2.0, 0.0), np.zeros(2)),
    ],
    ids=["short-pattern", "short-multiplier", "code-4", "code-minus-1", "letters", "floats"],
)
def test_a_guess_of_the_wrong_shape_or_with_a_non_code_entry_raises(pattern, lam):
    box = BoxSet.nonpositive(2)
    with pytest.raises(DimensionError):
        QPInstance(c=np.zeros(2), b=np.zeros(2), jac=np.eye(2), box=box, guess=(pattern, lam))


@pytest.mark.parametrize(
    "field, value",
    [("c", np.zeros((2, 3))), ("c", np.zeros(())), ("b", np.zeros((2, 1))), ("b", np.zeros(()))],
    ids=["c-2d", "c-0d", "b-2d", "b-0d"],
)
def test_a_linear_term_or_offset_that_is_not_a_vector_raises(field, value):
    # a (2, 3) c has as many rows as the 2 x 2 Jg has columns; it must not
    # pass on to solve_qp, where numpy's own ValueError would be raised
    fields = dict(c=np.zeros(2), b=np.zeros(2), jac=np.eye(2), box=BoxSet.nonpositive(2))
    fields[field] = value
    with pytest.raises(DimensionError, match="^inconsistent QP shapes"):
        QPInstance(**fields)


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
    # the polish, which only the stacked solver applies.  Rows with
    # disjoint supports (here s = 1) take the closed form in solve_qp
    rng = np.random.default_rng(5)
    instances = [random_qp_instance(rng) for _ in range(300)]
    instances += [_feasible_instance(rng) for _ in range(100)]
    closed = 0
    for inst in instances:
        try:
            u_ref, steps_ref = _reference_path(inst)
        except QPInfeasibleError as exc:
            with pytest.raises(QPInfeasibleError, match=re.escape(str(exc))):
                qp_module._active_set_qp(inst)
            with pytest.raises(QPInfeasibleError):
                solve_qp(inst)
            continue
        sol = qp_module._active_set_qp(inst)
        assert sol.iterations == steps_ref
        scale = 1.0 + float(np.max(np.abs(u_ref)))
        assert np.max(np.abs(sol.u - u_ref)) <= 1e-8 * scale
        closed += _assert_closed_form_matches(inst, sol)
    assert closed > 50


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


def _scan_excess(inst, u):
    """Largest violation of a bound by b + C u, in units of the scan tolerance."""
    d = inst.b + inst.jac @ u
    size = 1.0 + np.abs(inst.jac) @ np.abs(u)
    with np.errstate(invalid="ignore"):  # inf / inf at an infinite bound
        excess = np.concatenate([
            (d - inst.box.upper) / (1e-11 * (size + np.abs(inst.box.upper - inst.b))),
            (inst.box.lower - d) / (1e-11 * (size + np.abs(inst.b - inst.box.lower))),
        ])
    return float(np.max(np.nan_to_num(excess, nan=0.0)))


def test_polish_keeps_pinned_coordinates_on_their_bounds():
    # rows 0 and 2 are 1e-8 apart in angle; u = -c - B mu would cancel
    # against mu ~ 3e16 and leave coordinate 0 at -1 and coordinate 2 at 1
    inst = QPInstance(c=np.array([-1.0, 2.0]), b=np.array([-2.0, -2.0, -1.0]),
                      jac=np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 1.0027732967233898e-08]]),
                      box=BoxSet([0.0, -np.inf, 0.0], [0.0, np.inf, 0.0]))
    sol = solve_qp(inst)
    assert sol.active == (Activity.FIXED, Activity.INTERIOR, Activity.FIXED)
    assert _scan_excess(inst, sol.u) <= 1.0


def test_nearly_dependent_rows_never_leave_the_box():
    # half the rows are +-1 or 2 times an earlier row plus 10^U(-8, -4)
    # noise, ~30% of the coordinates pinched: every returned point lies in
    # D up to the tolerance of the violation scan
    rng = np.random.default_rng(21)
    solved = 0
    for _ in range(1500):
        n, s = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        rows = rng.uniform(-2, 2, (s, n))
        for j in range(1, s):
            if rng.random() < 0.5:
                noise = 10.0 ** rng.uniform(-8, -4) * rng.standard_normal(n)
                rows[j] = rng.choice([-1.0, 1.0, 2.0]) * rows[rng.integers(0, j)] + noise
        box = random_box(rng, s)
        lo, hi = box.lower.copy(), box.upper.copy()
        pinch = rng.random(s) < 0.3
        lo[pinch] = hi[pinch] = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))[pinch]
        inst = QPInstance(c=rng.uniform(-2, 2, n), b=rng.uniform(-2, 2, s), jac=rows,
                          box=BoxSet(lo, hi))
        try:
            sol = solve_qp(inst)
        except QPInfeasibleError:
            continue
        solved += 1
        assert _scan_excess(inst, sol.u) <= 1.0
    assert solved > 500


_SIDE_KIND = {"U": Activity.AT_UPPER, "L": Activity.AT_LOWER, "": Activity.INTERIOR}


def _guess(inst, sides):
    """(pattern, multiplier) that names the upper row at 'U', the lower at 'L'."""
    pinched = inst.box.lower == inst.box.upper
    lam = np.zeros(inst.s)
    pattern = []
    for j, side in enumerate(sides):
        if side and pinched[j]:
            pattern.append(Activity.FIXED)
            lam[j] = 1.0 if side == "U" else -1.0
        else:
            pattern.append(_SIDE_KIND[side])
    return tuple(pattern), lam


def _sides(inst, sol):
    """The side of every coordinate's active row in a solution."""
    kinds = {Activity.AT_UPPER: "U", Activity.AT_LOWER: "L", Activity.INTERIOR: ""}
    return [
        ("U" if lam > 0 else "L" if lam < 0 else "") if kind is Activity.FIXED else kinds[kind]
        for kind, lam in zip(sol.active, sol.lam)
    ]


def _guesses(rng, inst, cold):
    """A random row subset, all rows, the cold solution's rows, and those
    rows with one coordinate's row swapped for another choice."""
    options = [
        [""] + ["U"] * bool(np.isfinite(hi)) + ["L"] * bool(np.isfinite(lo))
        for lo, hi in zip(inst.box.lower, inst.box.upper)
    ]
    guesses = [
        _guess(inst, [opts[rng.integers(len(opts))] for opts in options]),
        _guess(inst, [opts[-1] for opts in options]),
    ]
    if cold is not None:
        guesses.append((cold.active, cold.lam))
        sides = _sides(inst, cold)
        j = int(rng.integers(inst.s))
        others = [side for side in options[j] if side != sides[j]]
        if others:
            sides[j] = others[rng.integers(len(others))]
        guesses.append(_guess(inst, sides))
    return guesses


def _assert_same_solution(warm, cold):
    assert warm.active == cold.active
    assert warm.degenerate_multiplier == cold.degenerate_multiplier
    for got, want in ((warm.u, cold.u), (warm.lam, cold.lam)):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _assert_closed_form_matches(inst, reference):
    """When ``inst``'s rows have disjoint supports, solve_qp answers it in
    closed form, with no step and no seed, within 1e-12 of ``reference``
    (an active-set solution); returns whether it did."""
    if not has_disjoint_rows(inst.jac):
        return False
    closed = solve_qp(inst)
    assert (closed.iterations, closed.warm) == (0, False)
    _assert_same_solution(closed, reference)
    return True


def test_warm_start_matches_cold_start():
    # the solution of a strictly convex QP is unique, so any guess must give
    # the cold path's verdict, message, pattern, u and multiplier
    rng = np.random.default_rng(12)
    instances = []
    for seed in range(4):  # the instances of test_oracle_equivalence_randomized
        seeded = np.random.default_rng(seed)
        instances += [random_qp_instance(seeded) for _ in range(500)]
    feasible = np.random.default_rng(13)
    instances += [_feasible_instance(feasible) for _ in range(1500)]
    warm_runs = 0
    for inst in instances:
        try:
            cold = solve_qp(inst)
            verdict = None
        except (QPInfeasibleError, NonconvergenceError) as exc:
            cold, verdict = None, exc
        for guess in _guesses(rng, inst, cold):
            guessed = dataclasses.replace(inst, guess=guess)
            if verdict is not None:
                with pytest.raises(type(verdict), match=re.escape(str(verdict))):
                    solve_qp(guessed)
                continue
            warm = solve_qp(guessed)
            warm_runs += warm.warm
            _assert_same_solution(warm, cold)
    assert warm_runs > 5000  # the seeded path is exercised


def test_exact_guess_takes_no_step():
    # coordinate 2 is pinched with a negative multiplier: its guess names
    # the lower row only
    inst = QPInstance(c=np.array([-1.0, 2.0, 3.0]), b=np.zeros(3), jac=np.eye(3),
                      box=BoxSet([-np.inf, -np.inf, 0.0], np.zeros(3)))
    cold = qp_module._active_set_qp(inst)
    assert cold.active == (Activity.AT_UPPER, Activity.INTERIOR, Activity.FIXED)
    assert cold.lam == pytest.approx([1.0, 0.0, -3.0], abs=1e-15)
    guessed = dataclasses.replace(inst, guess=(cold.active, cold.lam))
    warm = qp_module._active_set_qp(guessed)
    assert (cold.iterations, cold.warm) == (2, False)
    assert (warm.iterations, warm.warm) == (0, True)
    _assert_same_solution(warm, cold)
    assert _assert_closed_form_matches(inst, cold)
    assert _assert_closed_form_matches(guessed, warm)


def test_warm_start_drops_rows_with_wrong_sign_multipliers():
    # u = -c is feasible; holding both rows tight needs multipliers -1, -1,
    # so the seed drops both and starts from u = -c with no step to take
    inst = QPInstance(c=np.array([1.0, 1.0]), b=np.zeros(2), jac=np.eye(2),
                      box=BoxSet.nonpositive(2))
    guess = ((Activity.AT_UPPER, Activity.AT_UPPER), np.ones(2))
    guessed = dataclasses.replace(inst, guess=guess)
    warm = qp_module._active_set_qp(guessed)
    assert (warm.iterations, warm.warm) == (0, True)
    _assert_same_solution(warm, qp_module._active_set_qp(inst))
    assert np.all(warm.u == -inst.c)
    assert _assert_closed_form_matches(guessed, warm)


def test_warm_start_continues_from_a_primal_infeasible_guess():
    # the guessed row has a positive multiplier, but u leaves the other
    # bound: the loop adds that row in one step, where the cold run takes two
    inst = QPInstance(c=np.array([-1.0, -1.0]), b=np.zeros(2), jac=np.eye(2),
                      box=BoxSet.nonpositive(2))
    guess = ((Activity.AT_UPPER, Activity.INTERIOR), np.array([1.0, 0.0]))
    guessed = dataclasses.replace(inst, guess=guess)
    warm, cold = qp_module._active_set_qp(guessed), qp_module._active_set_qp(inst)
    assert (warm.iterations, cold.iterations) == (1, 2)
    assert warm.warm
    _assert_same_solution(warm, cold)
    _assert_same_solution(warm, brute_force_qp(inst))
    assert _assert_closed_form_matches(guessed, warm)


def _scaled_and_pinched(rng, inst):
    """The instance with row i of Jg, b and the bounds scaled by 10^U(-3, 3)
    and ~30% of the coordinates pinched to one of their bounds."""
    lo, hi = inst.box.lower.copy(), inst.box.upper.copy()
    pinch = rng.random(inst.s) < 0.3
    bound = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    lo[pinch] = hi[pinch] = bound[pinch]
    sigma = 10.0 ** rng.uniform(-3, 3, inst.s)
    return QPInstance(c=inst.c, b=sigma * inst.b, jac=sigma[:, None] * inst.jac,
                      box=BoxSet(sigma * lo, sigma * hi))


def test_violated_row_seed_matches_cold_start_and_oracle():
    # the rows violated at u = -c seed the QP; the answer must be the cold
    # path's (verdict, message, pattern, degeneracy flag, u and multiplier)
    # and the brute-force oracle's.  Duplicated and negated rows, and more
    # violated rows than unknowns, make the seed fall back to the cold run
    rng = np.random.default_rng(14)
    instances = [random_qp_instance(rng) for _ in range(1000)]
    instances += [_feasible_instance(rng) for _ in range(500)]
    warm_runs = oracle_runs = 0
    fallbacks = {"dependent": 0, "more rows than n": 0}
    for inst in instances:
        inst = _scaled_and_pinched(rng, inst)
        guess = violated_guess(inst)
        seeded = dataclasses.replace(inst, guess=guess)
        try:
            cold = solve_qp(inst)
        except (QPInfeasibleError, NonconvergenceError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                solve_qp(seeded)
            cold = None
        else:
            warm = solve_qp(seeded)
            if warm.warm:
                warm_runs += 1
            else:
                violated = sum(kind is not Activity.INTERIOR for kind in guess[0])
                fallbacks["more rows than n" if violated > inst.n else "dependent"] += 1
            _assert_same_solution(warm, cold)
        if inst.s <= 6:
            oracle_runs += 1
            try:
                ref = brute_force_qp(inst)
            except QPInfeasibleError:
                ref = None
            assert (cold is None) == (ref is None)
            if ref is not None:
                assert np.max(np.abs(warm.u - ref.u)) <= 1e-8 * (1.0 + np.linalg.norm(ref.u))
    assert warm_runs > 500 and oracle_runs > 500
    assert min(fallbacks.values()) > 20


def _planted_qp(rng, near_dependent):
    """A QP whose solution u0 holds m rows tight, each on one bound, with
    multipliers lam of the right sign, and two rows inactive (bounds 1 away).

    c = -u0 - Jg_tight^T lam, so u0 solves it whatever the rows; rows are
    scaled by 10^U(-3, 3), and ``near_dependent`` puts the last tight row
    10^U(-13, -6) off the span of the others.  Returns the instance, u0, the
    tight rows and lam.
    """
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2 if near_dependent else 1, n + 1))
    jac = rng.uniform(-2, 2, (m + 2, n))
    if near_dependent:
        jac[m - 1] = rng.uniform(-1, 1, m - 1) @ jac[: m - 1]
        jac[m - 1] += 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(n)
    jac *= 10.0 ** rng.uniform(-3, 3, m + 2)[:, None]
    u0 = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, m + 2)
    d = b + jac @ u0
    upper_side = rng.random(m) < 0.5
    lam = np.where(upper_side, 1.0, -1.0) * rng.uniform(0.2, 1.5, m)
    lower = np.concatenate([np.where(upper_side, -np.inf, d[:m]), d[m:] - 1.0])
    upper = np.concatenate([np.where(upper_side, d[:m], np.inf), d[m:] + 1.0])
    inst = QPInstance(c=-u0 - jac[:m].T @ lam, b=b, jac=jac, box=BoxSet(lower, upper))
    return inst, u0, jac[:m], lam


def _counting_row_factors():
    """Mocks counting the QP's factorizations: its factor_rows calls and the
    factors it builds from the indices of coordinate rows."""
    return (
        mock.patch.object(qp_module, "factor_rows", wraps=factor_rows),
        mock.patch.object(qp_module, "coordinate_factor", wraps=coordinate_factor),
    )


def _solve_counting_row_factors(inst):
    """(solution or exception, number of factorizations)."""
    counters = _counting_row_factors()
    with counters[0] as factored, counters[1] as indexed:
        try:
            result = solve_qp(inst)
        except (QPInfeasibleError, NonconvergenceError) as exc:
            result = exc
    return result, factored.call_count + indexed.call_count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    near_dependent=st.booleans(),
    change=st.sampled_from(["same", "drop", "step"]),
)
def test_carried_factor_changes_no_bit_of_the_answer(seed, near_dependent, change):
    # a QP seeded with the previous solution's factor (the seed reuses its
    # Q, R and R^-1) returns exactly what it returns with the factor
    # stripped from the guess (the seed factors the rows itself, bitwise
    # the same, and inverts its R).  The next QP keeps the rows and changes
    # c: not at all, flipping the sign of some multipliers (the seed drops
    # rows over one or more passes), or moving u0 by 10^U(-1, 1) (the loop
    # steps)
    rng = np.random.default_rng(seed)
    first, u0, tight, lam = _planted_qp(rng, near_dependent)
    prev = solve_qp(first)
    if change == "drop":
        lam = np.where(rng.random(lam.size) < 0.5, -lam, lam)
        c = -u0 - tight.T @ lam
    elif change == "step":
        c = first.c + 10.0 ** rng.uniform(-1, 1) * rng.standard_normal(first.n)
    else:
        c = first.c
    guess = (prev.active, prev.lam, prev.factor)
    hit, hit_factors = _solve_counting_row_factors(dataclasses.replace(first, c=c, guess=guess))
    miss, miss_factors = _solve_counting_row_factors(
        dataclasses.replace(first, c=c, guess=guess[:2])
    )
    # the guessed rows are the factored rows: the carried factor saves a
    # factorization (a LAPACK QR, or the closed form of a single row)
    assert hit_factors == miss_factors - 1
    if isinstance(miss, Exception):
        assert type(hit) is type(miss) and str(hit) == str(miss)
        return
    assert hit.active == miss.active
    assert hit.degenerate_multiplier == miss.degenerate_multiplier
    assert (hit.iterations, hit.warm) == (miss.iterations, miss.warm)
    assert np.array_equal(hit.u, miss.u) and np.array_equal(hit.lam, miss.lam)


def _solve_counting_factors(inst, solver=solve_qp):
    """(solution, factorizations, np.linalg.inv calls, np.linalg.qr calls)
    of one call of ``solver``."""
    counters = _counting_row_factors()
    with counters[0] as factored, counters[1] as indexed, \
            mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inverted, \
            mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        sol = solver(inst)
    factors = factored.call_count + indexed.call_count
    return sol, factors, inverted.call_count, qr.call_count


_DENSE = {"rows", "q", "r", "r_inv", "dependent"}  # a RowFactor's m x n and m x m values


@pytest.mark.parametrize("rows", ["unit", "dense"])
def test_a_warm_call_whose_guess_holds_factors_and_inverts_nothing(rows):
    # the guess carries the previous solution's factor: the seed reuses it,
    # with its R^-1, the loop takes no step, and the tight rows reuse it
    # too.  On unit rows solve_qp's closed form reads no guess: it builds
    # the tight rows' factor from indices, forming no C, Q or R, with the
    # held factor's nonzeros and verdict
    rng = np.random.default_rng(3)
    if rows == "unit":  # an obstacle: u >= psi, separable
        n = 8
        first = QPInstance(c=rng.uniform(-2, 2, n), b=np.zeros(n), jac=np.eye(n),
                           box=BoxSet(rng.uniform(-1, 1, n), np.full(n, np.inf)))
    else:
        first, *_ = _planted_qp(rng, near_dependent=False)
    prev = qp_module._active_set_qp(first)
    assert prev.factor.rows.shape[0] > 0
    guessed = dataclasses.replace(first, guess=(prev.active, prev.lam, prev.factor))
    warm, factored, inverted, _ = _solve_counting_factors(guessed, qp_module._active_set_qp)
    assert (warm.iterations, warm.warm) == (0, True)
    assert (factored, inverted) == (0, 0)
    assert warm.factor is prev.factor and warm.active == prev.active
    assert np.allclose(warm.u, prev.u, rtol=0.0, atol=1e-12)
    if rows == "unit":
        closed, factored, inverted, qrs = _solve_counting_factors(guessed)
        assert (factored, inverted, qrs) == (1, 0, 0) and not _DENSE & vars(closed.factor).keys()
        columns, entries, free = closed.factor.coordinates
        held_rows = prev.factor.rows
        assert _bits(entries) == _bits(held_rows[np.arange(len(columns)), columns])
        assert np.array_equal(columns, prev.tight) and prev.factor.coordinates is None
        assert np.array_equal(free, np.setdiff1d(np.arange(n), prev.tight))
        assert closed.factor.deficiency is None and prev.factor.deficiency is None
        assert _assert_closed_form_matches(guessed, warm)
        # rows formed on first read are the held factor's, bit for bit
        assert _bits(closed.factor.rows) == _bits(prev.factor.rows)


def test_a_violated_row_seed_of_unit_rows_factors_once_and_inverts_nothing():
    # for u >= psi the rows violated at u = -c are the answer: the seed's
    # one factor is the closed form of unit rows (no LAPACK QR) with a
    # diagonal R, so R^-1 takes no LAPACK inversion, and the tight rows are
    # the active rows in order, so their factor is the seed's.  solve_qp's
    # closed form factors the tight rows once, from indices: no LAPACK and
    # no C, Q or R formed
    rng = np.random.default_rng(4)
    n = 12
    inst = QPInstance(c=rng.uniform(-2, 2, n), b=np.zeros(n), jac=np.eye(n),
                      box=BoxSet(rng.uniform(-1, 1, n), np.full(n, np.inf)))
    seeded = dataclasses.replace(inst, guess=violated_guess(inst))
    sol, factored, inverted, qrs = _solve_counting_factors(seeded, qp_module._active_set_qp)
    assert (sol.iterations, sol.warm) == (0, True)
    assert (factored, inverted, qrs) == (1, 0, 0)
    cold = qp_module._active_set_qp(inst)
    assert sol.active == cold.active and np.array_equal(sol.u, cold.u)
    closed, factored, inverted, qrs = _solve_counting_factors(seeded)
    assert (factored, inverted, qrs) == (1, 0, 0) and not _DENSE & vars(closed.factor).keys()
    assert _assert_closed_form_matches(seeded, cold)


def test_a_dependent_guess_is_ignored_each_time_its_factor_is_reused():
    # the guessed rows are bitwise the held factor's rows, which fail the
    # dependence floor: the seed gives None (the caller starts cold) on
    # every call, from the verdict cached on the factor, with no new QR
    jac = np.array([[1.0, 2.0], [2.0, 4.0]])
    inst = QPInstance(c=np.ones(2), b=np.zeros(2), jac=jac,
                      box=BoxSet(np.full(2, -np.inf), np.full(2, -1.0)))
    held = factor_rows(jac)  # both upper rows
    seeded = dataclasses.replace(inst, guess=((Activity.AT_UPPER,) * 2, np.ones(2), held))
    finite = qp_module._finite_bounds(inst.box)
    normals, offsets, _, _ = qp_module._rows(seeded, finite)
    with mock.patch.object(qp_module, "factor_rows", wraps=factor_rows) as factored:
        for _ in range(2):
            assert qp_module._seed(seeded, finite, normals, offsets) is None
    assert factored.call_count == 0 and held.dependent
    cold = solve_qp(inst)
    for _ in range(2):
        warm = solve_qp(seeded)
        assert not warm.warm and np.array_equal(warm.u, cold.u)


def test_a_closed_form_qp_tests_the_supports_of_its_rows_once():
    # the support test also returns each coordinate row's column, so a QP
    # with a new tight set (no guess) runs one structural scan of Jg and
    # builds the tight rows' factor from indices: one factor, no LAPACK QR,
    # no C, Q or R formed and no second scan of its rows (the coordinates
    # are set when the factor is built).  Rows with disjoint supports that
    # are not all coordinate rows are factored by factor_rows, whose own
    # support test of the tight rows picks the closed form
    rng = np.random.default_rng(6)
    n = 10
    unit = QPInstance(c=rng.uniform(-2, 2, n), b=np.zeros(n), jac=np.eye(n),
                      box=BoxSet(rng.uniform(-1, 1, n), np.full(n, np.inf)))
    wide = np.zeros((n // 2, n))
    wide[np.arange(n // 2), np.arange(0, n, 2)] = 1.0
    wide[np.arange(n // 2), np.arange(1, n, 2)] = -0.5  # two nonzeros per row
    pair = QPInstance(c=rng.uniform(-2, 2, n), b=np.zeros(n // 2), jac=wide,
                      box=BoxSet(rng.uniform(-1, 1, n // 2), np.full(n // 2, np.inf)))
    for inst in (unit, pair):
        with mock.patch.object(qp_module, "disjoint_row_norms2",
                               wraps=linalg.disjoint_row_norms2) as in_qp, \
                mock.patch.object(linalg, "disjoint_row_norms2",
                                  wraps=linalg.disjoint_row_norms2) as in_linalg:
            sol, factored, inverted, qrs = _solve_counting_factors(inst)
        assert sol.tight.size > 0  # some rows are tight
        assert (in_qp.call_count, in_linalg.call_count) == (1, 0 if inst is unit else 1)
        assert (factored, inverted, qrs) == (1, 0, 0)
        held = vars(sol.factor).keys()
        if inst is unit:  # built from indices, with its coordinates
            assert not _DENSE & held and "coordinates" in held
        else:  # built from C; Q and R on first read
            assert held & _DENSE == {"rows"} and sol.factor.coordinates is None


def test_a_coordinate_factor_carried_into_a_coupled_qp_seeds_as_the_dense_factor():
    # the first QP's Jg has coordinate rows, so its factor is built from
    # indices; the next QP keeps the tight rows and couples the others, so
    # it runs the active-set loop seeded with that factor.  The seed takes
    # the held factor (its rows, formed on first read, are bitwise the
    # guessed rows) and gives the same bits as with factor_rows of those
    # rows, the dense closed form the first QP built before
    rng = np.random.default_rng(12)
    n, s = 6, 4
    for _ in range(100):
        jac = np.zeros((s, n))
        jac[np.arange(s), rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s) * \
            10.0 ** rng.uniform(-2, 2, s)
        box = BoxSet(rng.uniform(-1, 1, s), np.full(s, np.inf))
        first = QPInstance(c=rng.uniform(-2, 2, n), b=np.zeros(s), jac=jac, box=box)
        sol = solve_qp(first)
        loose = np.setdiff1d(np.arange(s), sol.tight)
        if sol.tight.size and loose.size:
            break
    assert "coordinates" in vars(sol.factor) and "rows" not in vars(sol.factor)
    dense = factor_rows(sol.tight_signs[:, None] * jac[sol.tight])
    coupled = jac.copy()
    coupled[loose] = rng.uniform(-2, 2, (loose.size, n))
    second = QPInstance(c=first.c, b=first.b, jac=coupled, box=box)
    assert linalg.disjoint_row_norms2(coupled) is None  # the active-set loop
    finite = qp_module._finite_bounds(box)
    normals, offsets, _, _ = qp_module._rows(second, finite)
    seeds, answers = [], []
    for held in (sol.factor, dense):
        inst = dataclasses.replace(second, guess=(sol.active, sol.lam, held))
        seed = qp_module._seed(inst, finite, normals, offsets)
        assert seed is not None and seed[1] is held
        seeds.append(_bits(seed[0], seed[2], seed[3]))
        warm = solve_qp(inst)
        assert warm.warm
        answers.append((warm.active, warm.iterations, _bits(warm.u, warm.lam)))
    assert seeds[0] == seeds[1] and answers[0] == answers[1]


@pytest.mark.parametrize("order", ["C", "F"])
def test_the_closed_form_factor_is_factor_rows_bit_for_bit_in_any_layout(order):
    # QPInstance holds Jg C-ordered, so the squared norms the closed form
    # holds are the tight rows' own whatever the layout Jg came in; the
    # factor is bitwise factor_rows' of the tight rows
    rng = np.random.default_rng(7)
    for _ in range(200):
        inst = _disjoint_qp(rng, "plain", max_n=30, max_s=8, exponent=3)
        inst = dataclasses.replace(inst, jac=np.asarray(inst.jac, order=order))
        sol = solve_qp(inst)
        ref = factor_rows(sol.factor.rows)
        assert np.array_equal(sol.factor.q, ref.q) and np.array_equal(sol.factor.r, ref.r)
        assert (sol.factor.deficiency is None) == (ref.deficiency is None)


def _bits(*arrays):
    """The bytes of each array, so -0.0 and 0.0 (or two NaNs) compare as they are."""
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_closed_form_answer_does_not_depend_on_the_layout_of_jg(seed):
    # rows with disjoint supports and several nonzeros each: their squared
    # norms, e = b - Jg c and b + Jg u all sum a row, so a QP or a solve
    # must give the same bits from a C- and an F-ordered Jg; the factor is
    # factor_rows' of its rows bit for bit, and its row norms are
    # np.linalg.norm's
    from ssnewton import solve
    from ssnewton.problems import GEProblem
    from ssnewton.reports import report_to_json

    rng = np.random.default_rng(seed)
    inst = _disjoint_qp(rng, "plain", max_n=30, max_s=8, exponent=3)
    norms2 = [linalg.disjoint_row_norms2(np.asarray(inst.jac, order=o))[0] for o in "CF"]
    assert _bits(norms2[0]) == _bits(norms2[1])
    answers = []
    for order in "CF":
        try:
            sol = solve_qp(dataclasses.replace(inst, jac=np.asarray(inst.jac, order=order)))
        except QPInfeasibleError as exc:
            answers.append(str(exc))
            continue
        f = sol.factor
        answers.append((sol.active, sol.degenerate_multiplier,
                        _bits(sol.u, sol.lam, f.rows, f.q, f.r, f.row_norms)))
        ref = factor_rows(f.rows)
        assert _bits(f.q, f.r) == _bits(ref.q, ref.r)
        assert _bits(f.row_norms) == _bits(np.linalg.norm(f.rows, axis=1))
    assert answers[0] == answers[1]

    n, s = inst.n, inst.s
    a = rng.uniform(-1, 1, (n, n))
    m, q = a @ a.T / n + np.eye(n), rng.uniform(-2, 2, n)
    g_mat, h = inst.jac, inst.b
    reports = []
    for jac in (g_mat, np.asfortranarray(g_mat)):
        problem = GEProblem(
            name="disjoint-rows", n=n, s=s, f=lambda x: m @ x + q, jf=lambda x: m,
            g=lambda x: g_mat @ x + h, jg=lambda x, jac=jac: jac,
            hg=lambda x, lam: np.zeros((n, n)), box=inst.box,
        )
        reports.append(report_to_json(solve(problem, np.zeros(n), max_iter=10)))
    assert reports[0] == reports[1]


def _disjoint_qp(rng, case, max_n, max_s, exponent):
    """A QP whose rows have disjoint supports, row i of Jg, b and the
    bounds scaled by 10^U(-exponent, exponent).

    Each row owns at least one column and every other column belongs to one
    row or to none; entries are +-U(0.5, 2), so row norms stay within the
    stated scales.  ``case`` constructs what random draws give rarely or
    never: "zero inside" and "zero outside" make row 0 zero with
    e_0 = b_0 inside or outside its interval, "pinched" pins about half the
    coordinates (FIXED), and "tie" puts a bound of every row exactly on e_i.
    """
    n = int(rng.integers(1, max_n + 1))
    s = int(rng.integers(1, min(n, max_s) + 1))
    owner = np.concatenate([np.arange(s), rng.integers(-1, s, n - s)])
    rng.shuffle(owner)
    jac = np.zeros((s, n))
    cols = np.flatnonzero(owner >= 0)
    jac[owner[cols], cols] = rng.choice([-1.0, 1.0], cols.size) * rng.uniform(0.5, 2, cols.size)
    box = random_box(rng, s)
    lo, hi = box.lower.copy(), box.upper.copy()
    b = rng.uniform(-2, 2, s)
    c = rng.uniform(-2, 2, n)
    if case in ("zero inside", "zero outside"):
        jac[0] = 0.0
        lo[0], hi[0] = (b[0] - 1.0, np.inf) if case == "zero inside" else (b[0] + 1.0, b[0] + 2.0)
    elif case == "pinched":
        pinch = rng.random(s) < 0.5
        lo[pinch] = hi[pinch] = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))[pinch]
    sigma = 10.0 ** rng.uniform(-exponent, exponent, s)
    jac, b, lo, hi = sigma[:, None] * jac, sigma * b, sigma * lo, sigma * hi
    if case == "tie":
        e = b - jac @ c  # the closed form's e, bit for bit
        side = rng.integers(0, 3, s)
        lo = np.where(side == 0, e, np.where(side == 1, -np.inf, e))
        hi = np.where(side == 0, np.inf, np.where(side == 1, e, e + sigma))
    return QPInstance(c=c, b=b, jac=jac, box=BoxSet(lo, hi))


_CASES = st.sampled_from(["plain", "zero inside", "zero outside", "pinched", "tie"])


def _assert_kkt(inst, sol):
    """The KKT conditions of the QP, with tolerances relative to each row's
    own scale: u + c + Jg^T lam = 0, d = b + Jg u in D, lam in N_D(d) and
    lam in the normal cone of the returned pattern.  The tolerance on d
    bounds the rounding of b + Jg (-c - Jg^T lam), whose terms may cancel."""
    jac, lam, u = inst.jac, sol.lam, sol.u
    size = np.abs(inst.c) + np.abs(jac.T) @ np.abs(lam)
    assert np.all(np.abs(u + inst.c + jac.T @ lam) <= 1e-13 * size)
    d = inst.b + jac @ u
    tol = 1e-13 * (np.abs(inst.b) + np.abs(jac) @ size)
    lo, hi = inst.box.lower, inst.box.upper
    assert np.all((d >= lo - tol) & (d <= hi + tol))
    assert np.all((lam <= 0.0) | (np.abs(d - hi) <= tol))
    assert np.all((lam >= 0.0) | (np.abs(d - lo) <= tol))
    assert pattern_admits(sol.active, lam, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), case=_CASES)
def test_separable_qp_matches_both_oracles(seed, case):
    # rows scaled by 10^U(-3, 3): the closed form gives the brute-force
    # oracle's answer (s <= 6) and the active-set method's (n <= 30), with
    # the same verdict, pattern and degeneracy flag
    rng = np.random.default_rng(seed)
    small = _disjoint_qp(rng, case, 6, 6, 3.0)
    large = _disjoint_qp(rng, case, 30, 30, 3.0)
    for inst in (small, large):
        assert has_disjoint_rows(inst.jac)
        try:
            sol = qp_module._separable_qp(inst, qp_module._offset(inst))
        except QPInfeasibleError as exc:
            assert case == "zero outside" and exc.constraint == (0, "L")
            with pytest.raises(QPInfeasibleError):
                qp_module._active_set_qp(inst)
            if inst is small:
                with pytest.raises(QPInfeasibleError):
                    brute_force_qp(inst)
            continue
        assert case != "zero outside"
        assert (sol.iterations, sol.warm) == (0, False)
        _assert_kkt(inst, sol)
        _assert_same_solution(sol, qp_module._active_set_qp(inst))
        if inst is small:
            ref = brute_force_qp(inst)
            scale = 1.0 + np.linalg.norm(ref.u)
            assert np.max(np.abs(sol.u - ref.u)) <= 1e-8 * scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), case=_CASES)
def test_separable_qp_meets_kkt_at_row_scales_from_1e_minus_8_to_1e8(seed, case):
    # beyond the oracles' reach: the KKT conditions alone, each row at its
    # own scale; only a zero row outside its interval is infeasible
    inst = _disjoint_qp(np.random.default_rng(seed), case, 30, 30, 8.0)
    e = inst.b - inst.jac @ inst.c
    zero = ~inst.jac.any(axis=1)
    outside = zero & ((e < inst.box.lower) | (e > inst.box.upper))
    if outside.any():
        i = int(np.argmax(outside))
        side = "L" if e[i] < inst.box.lower[i] else "U"
        with pytest.raises(QPInfeasibleError, match=f"constraint {side} on coordinate {i} "):
            solve_qp(inst)
        return
    sol = solve_qp(inst)
    assert (sol.iterations, sol.warm) == (0, False)
    _assert_kkt(inst, sol)
    assert np.all(sol.lam[zero] == 0.0)
    if case == "tie":
        assert np.all(sol.lam == 0.0) and np.all(sol.u == -inst.c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["random", "pinched", "infinite"]))
def test_the_closed_form_pattern_is_activity_of_its_clipped_point(seed, case):
    # the closed form classifies d = clip(e) without activity's inside test,
    # which such a d cannot fail: its pattern is activity's, also within
    # the tolerance of a bound and in intervals narrower than two tolerances
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 9))
    box = random_box(rng, s)
    lo, hi = box.lower.copy(), box.upper.copy()
    if case == "pinched":
        pinch = rng.random(s) < 0.5
        lo[pinch] = hi[pinch] = rng.uniform(-2, 2, s)[pinch]
    elif case == "infinite":
        lo = np.where(rng.random(s) < 0.5, -np.inf, rng.uniform(-2, 0, s))
        hi = np.where(rng.random(s) < 0.5, np.inf, rng.uniform(0, 2, s))
    narrow = np.isfinite(lo) & (rng.random(s) < 0.3)
    hi[narrow] = lo[narrow] + rng.uniform(0, 3e-9, s)[narrow]
    near = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    offsets = [0.0, 1e-10, -1e-10, 9e-10, -9e-10, 1.1e-9, -1.1e-9, 2e-9, -2e-9, 0.5, -3.0]
    e = near + rng.choice(offsets, s)
    jac = np.diag(rng.choice([-1.0, 1.0], s) * 10.0 ** rng.uniform(-3, 3, s))
    inst = QPInstance(c=np.zeros(s), b=e, jac=jac, box=BoxSet(lo, hi))
    d = np.clip(e, lo, hi)  # e = b - Jg 0 = b, bit for bit
    assert solve_qp(inst).active == activity(d, inst.box)
    assert pattern_of(qp_module._classify(d, inst.box)) == activity(d, inst.box)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize(
    "jac", [np.array([[10.0]]), np.array([[10.0, 10.0], [10.0, -10.0]])],
    ids=["closed-form", "active-set"],
)
def test_an_overflowing_offset_raises_evaluation_error_and_warns_nothing(jac, bounded):
    # finite c, b and Jg whose e = b - Jg c is -inf (or inf - inf): solve_qp
    # names the overflow before either solver runs, cold or seeded
    s, n = jac.shape
    box = BoxSet(-np.ones(s), np.ones(s)) if bounded else BoxSet(
        np.full(s, -np.inf), np.full(s, np.inf))
    inst = QPInstance(c=np.full(n, 1e308), b=np.zeros(s), jac=jac, box=box)
    seeded = dataclasses.replace(inst, guess=((Activity.INTERIOR,) * s, np.zeros(s)))
    for instance in (inst, seeded):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EvaluationError, match=r"^the QP's offset b - Jg c overflows at row 0$"):
                solve_qp(instance)
        assert [str(w.message) for w in caught] == []


def test_a_tiny_row_gets_its_true_multiplier():
    # c = -0.7, b = 3e-11, Jg = [[1e-10]], D = (-inf, 0]: u = -0.3 puts
    # b + Jg u on the bound with lam = 1e10; the dual active-set floor
    # called this row dependent and the QP infeasible.  Checked against the
    # KKT conditions: brute_force_qp accepts the infeasible u = 0.7 within
    # its absolute 1e-9 slack
    inst = QPInstance(c=np.array([-0.7]), b=np.array([3e-11]), jac=np.array([[1e-10]]),
                      box=BoxSet.nonpositive(1))
    sol = solve_qp(inst)
    assert sol.u == pytest.approx([-0.3], rel=1e-15)
    assert sol.lam == pytest.approx([1e10], rel=1e-15)
    assert sol.active == (Activity.AT_UPPER,)
    _assert_kkt(inst, sol)


def test_qp_sweep_script_runs_and_compares(tmp_path):
    # the checked-in verdict sweep, on its first 50 instances: every
    # instance gives a cold and a violated-row line, and a run compared
    # with itself differs nowhere
    script = Path(__file__).resolve().parent / "qp_sweep.py"
    out = tmp_path / "sweep.txt"

    def sweep(*args):
        return subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True, timeout=120)

    ran = sweep("run", str(out), "--count", "50")
    assert ran.returncode == 0, ran.stderr
    lines = out.read_text().splitlines()
    kinds = [line.split()[1] for line in lines]
    assert kinds.count("cold") == kinds.count("violated") == 50
    assert 0 < kinds.count("carried") < 50
    compared = sweep("compare", str(out), str(out))
    assert compared.returncode == 0, compared.stdout
    assert "exception kind, pattern or flag differ: 0 []" in compared.stdout
    assert f"{len(lines)} solves" in compared.stdout
