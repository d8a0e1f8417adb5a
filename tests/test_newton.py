import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import counting_callbacks, has_disjoint_rows, random_affine_problem, random_box
from ssnewton import linalg, newton
from ssnewton import qp as qp_module
from ssnewton.baselines import josephy_newton
from ssnewton.cones import (
    Activity,
    BoxSet,
    basis_for_pattern,
    normal_cone_membership,
    regular_coderivative_nd,
)
from ssnewton.errors import (
    DegeneracyError,
    DimensionError,
    InvalidOptionError,
    NonconvergenceError,
    QPInfeasibleError,
    RankDeficiencyError,
    SingularMatrixError,
)
from ssnewton.linalg import RowFactor, nullspace_basis
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
    GEProblem,
    builtin_registry,
    check_second_order,
    get_problem,
    lagrangian_jacobian,
    nondegeneracy_modulus,
)
from ssnewton.qp import solve_qp
from ssnewton.reports import Status, report_from_json, report_to_json

NCP = get_problem("ncp-paper")
BOXVI = get_problem("box-vi-2d")


def test_approximation_step_interior_branch():
    ap = approximation_step(NCP, np.array([-0.1]))
    assert np.allclose(ap.u_hat, [-0.09], atol=1e-15)
    assert np.allclose(ap.d_hat, [-0.19], atol=1e-15)
    assert np.allclose(ap.lam_hat, [0.0])
    assert np.allclose(ap.p_star, [0.09], atol=1e-15)
    assert np.allclose(ap.y_hat, [0.09, 0.09], atol=1e-15)
    assert ap.pattern == (Activity.INTERIOR,)


def test_approximation_step_active_branch():
    x = 0.0125
    ap = approximation_step(NCP, np.array([x]))
    assert np.allclose(ap.u_hat, [-x], atol=1e-15)
    assert abs(ap.d_hat[0]) <= 1e-16
    assert np.allclose(ap.lam_hat, [2 * x + x * x], atol=1e-15)
    assert ap.pattern == (Activity.AT_UPPER,)


def test_approximation_step_at_solution():
    ap = approximation_step(NCP, np.zeros(1))
    assert np.allclose(ap.u_hat, [0.0])
    assert np.allclose(ap.y_hat, [0.0, 0.0])
    assert np.allclose(ap.d_hat, [0.0])


def test_approximation_step_invariants():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_affine_problem(rng, max_n=4, max_s=3)
        x = rng.uniform(-0.5, 0.5, p.n)
        ap = approximation_step(p, x)
        jac = p.jg(x)
        assert np.array_equal(ap.x_hat, x)
        assert np.allclose(ap.d_hat, p.g(x) + jac @ ap.u_hat, atol=1e-12)
        assert np.linalg.norm(ap.u_hat + ap.p_star) <= 1e-9
        assert np.allclose(ap.y_hat[: p.n], -ap.u_hat, atol=1e-9)
        assert np.allclose(ap.y_hat[p.n :], -(jac @ ap.u_hat), atol=1e-9)
        mtol = 1e-9 * (1 + float(np.max(np.abs(ap.lam_hat), initial=0.0)))
        assert normal_cone_membership(ap.d_hat, ap.lam_hat, p.box, tol=mtol)


def test_workspace_interior_branch():
    ap = approximation_step(NCP, np.array([-0.1]))
    ws = newton_workspace(NCP, ap)
    assert basis_for_pattern(ap.pattern).shape == (1, 0)
    assert ap.factor.q.shape == (1, 0)
    assert np.allclose(ws.reduced_matrix, [[-0.8]], atol=1e-15)
    assert np.allclose(ws.reduced_rhs, [-0.09], atol=1e-15)
    assert newton_step(ws) == pytest.approx([0.1125], abs=1e-15)


def test_workspace_active_branch():
    # the one row C = [1] is active, so Q1 = [+-1], Z is empty and M is the
    # border alpha D^{-1} C alone, with alpha = max(1, |JL|) = 1.025
    ap = approximation_step(NCP, np.array([0.0125]))
    ws = newton_workspace(NCP, ap)
    assert np.allclose(basis_for_pattern(ap.pattern), [[1.0]])
    assert np.allclose(np.abs(ap.factor.q), [[1.0]])
    assert np.allclose(ws.reduced_matrix, [[1.025]], atol=1e-15)
    assert np.allclose(ws.reduced_rhs, [-1.025 * 0.0125], atol=1e-15)
    assert newton_step(ws) == pytest.approx([-0.0125], abs=1e-15)


def test_workspace_both_bounds_active():
    # C = I: Q1 is orthogonal, every column is a tight row's, so no column
    # is free and there is no matrix to solve: s = -(W^T y_g) / C[i, i]
    ap = approximation_step(BOXVI, np.array([0.3, 0.3]))
    assert ap.pattern == (Activity.AT_UPPER, Activity.AT_UPPER)
    assert np.all(ap.lam_hat > 0)
    ws = newton_workspace(BOXVI, ap)
    assert np.allclose(basis_for_pattern(ap.pattern), np.eye(2))
    q1 = ap.factor.q
    assert np.max(np.abs(q1.T @ q1 - np.eye(2))) <= 1e-15
    assert np.max(np.abs(q1 @ q1.T - np.eye(2))) <= 1e-15
    assert ws.free.size == 0 and ws.reduced_matrix.shape == (0, 0)
    assert np.array_equal(ws.columns, [0, 1]) and ws.jac_l.shape == (2, 2)
    step = newton_step(ws)
    assert np.array_equal(step, ws.column_step)
    assert np.allclose(step, ap.d_hat - BOXVI.g(ap.x_hat), atol=1e-12)


def _recording_qr(monkeypatch):
    """Patch np.linalg.qr to record the rows B^T of every B it factors, and
    np.linalg.svd to fail."""
    factored = []
    original = np.linalg.qr

    def recording(a, mode="reduced"):
        factored.append(np.array(a).T.copy())
        return original(a, mode=mode)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "qr", recording)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    return factored


def _recording_solve_and_inv(monkeypatch):
    """Patch np.linalg.solve to record the (file, function) frames of the
    stack of every call, np.linalg.inv to record every matrix it inverts,
    and np.linalg.qr to keep every R it returns."""
    solve_stacks, inverted, factored_r = [], [], []
    original_solve, original_inv, original_qr = np.linalg.solve, np.linalg.inv, np.linalg.qr

    def recording_solve(a, b):
        frames = traceback.extract_stack()[:-1]
        solve_stacks.append([(frame.filename, frame.name) for frame in frames])
        return original_solve(a, b)

    def recording_inv(a):
        inverted.append(a)
        return original_inv(a)

    def recording_qr(a, mode="reduced"):
        q, r = original_qr(a, mode=mode)
        factored_r.append(r)
        return q, r

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return solve_stacks, inverted, factored_r


def test_newton_workspace_takes_no_qr_and_a_solve_of_coordinate_rows_none(monkeypatch):
    # the QP factors its tight rows once and the Newton workspace takes its
    # verdict from that factor: no QR and no null-space basis of its own
    spec = AffineProblemSpec(
        name="one-active",
        m=np.eye(2),
        q=np.array([-1.0, 1.0]),
        g_mat=np.eye(2),
        h=np.zeros(2),
        lower=np.full(2, -np.inf),
        upper=np.zeros(2),
    )
    p = spec.build()
    ap = approximation_step(p, np.array([0.3, -0.5]))

    def forbidden(c):
        raise AssertionError("the Newton workspace took a null-space basis")

    factored = _recording_qr(monkeypatch)
    monkeypatch.setattr(newton, "nullspace_basis", forbidden)
    ws = newton_workspace(p, ap)
    assert ap.factor.q.shape == (2, 1)
    assert factored == []
    # over a whole solve with g(x) = x, every QP is the closed form and
    # builds its tight rows' factor from indices (coordinate_factor), which
    # forms no C, Q or R: no factor_rows, no dense closed form, no LAPACK
    # QR, no inversion and no SVD.  From this x0 the Kojima-Shindo run
    # passes through three active sets in six QPs
    problem = get_problem("kojima-shindo")
    built = []

    def recording_coordinate_factor(*args):
        built.append(linalg.coordinate_factor(*args))
        return built[-1]

    def dense(*args):
        raise AssertionError("a dense factor was formed")

    monkeypatch.setattr(qp_module, "coordinate_factor", recording_coordinate_factor)
    monkeypatch.setattr(qp_module, "factor_rows", dense)
    solve_stacks, inverted, factored_r = _recording_solve_and_inv(monkeypatch)
    report = solve(problem, np.array([1.0, 0.5, 0.5, 0.5]))
    assert report.status is Status.CONVERGED
    assert factored == factored_r == [] and inverted == []
    assert len(built) == len(report.iterations)  # one factor per QP call
    tight_sets = {factor.coordinates[0].tobytes() for factor in built}
    assert 1 < len(tight_sets) < len(built)  # some QPs repeat a row set
    assert not any({"rows", "q", "r", "r_inv", "dependent"} & vars(f).keys() for f in built)
    # the QP makes no LU solve: every np.linalg.solve is the Newton step's
    # solve_dense, one per step
    assert not any(path == qp_module.__file__ for stack in solve_stacks for path, _ in stack)
    assert all((linalg.__file__, "solve_dense") in stack for stack in solve_stacks)
    assert len(solve_stacks) == len(report.iterations) - 1


def _planted_problem(rng, case):
    """An affine problem whose QP at x = 0 has a planted solution u0.

    Tight rows sit on a bound at u0 with multipliers of the right sign and
    c = -u0 - G^T lam, so u0 solves the QP whatever the rows; rows are
    scaled by 10^U(-3, 3).  ``case`` adds: a near-dependent row
    (10^U(-13, -6) off the span of the others), an exact duplicate, more
    tight rows than n, a pinched coordinate held by its lower row (its
    sign differs from basis_for_pattern's +1), or a coordinate 10^U(-13,
    -10) inside its bound with multiplier 0 (tight in the pattern, not in
    the QP's active set).
    """
    n = int(rng.integers(1, 6))
    m = n + int(rng.integers(1, 3)) if case == "more rows than n" else int(rng.integers(1, n + 1))
    if case in ("near-dependent", "duplicate"):
        m = max(m, 2)
    g_mat = rng.uniform(-2, 2, (m + 2, n))  # two more rows, inactive
    if case == "near-dependent":
        g_mat[m - 1] = rng.uniform(-1, 1, m - 1) @ g_mat[: m - 1]
        g_mat[m - 1] += 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(n)
    elif case == "duplicate":
        g_mat[m - 1] = g_mat[rng.integers(m - 1)]
    g_mat *= 10.0 ** rng.uniform(-3, 3, m + 2)[:, None]
    u0 = rng.uniform(-1, 1, n)
    h = rng.uniform(-1, 1, m + 2)
    d = h + g_mat @ u0
    upper_side = rng.random(m) < 0.5
    lam = np.where(upper_side, 1.0, -1.0) * rng.uniform(0.2, 1.5, m)
    lower = np.concatenate([np.where(upper_side, -np.inf, d[:m]), d[m:] - 1.0])
    upper = np.concatenate([np.where(upper_side, d[:m], np.inf), d[m:] + 1.0])
    if case == "fixed lower row":
        lower[0] = upper[0] = d[0]
        lam[0] = -abs(lam[0])
    elif case == "barely tight":
        upper[m] = d[m] + 10.0 ** rng.uniform(-13, -10)
    lam = np.concatenate([lam, np.zeros(2)])
    spec = AffineProblemSpec(
        name="planted",
        m=rng.uniform(-2, 2, (n, n)),
        q=-u0 - g_mat.T @ lam,
        g_mat=g_mat,
        h=h,
        lower=lower,
        upper=upper,
    )
    return spec.build()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(
        ["near-dependent", "duplicate", "more rows than n", "fixed lower row", "barely tight"]
    ),
)
def test_degenerate_multiplier_flag_is_the_newton_steps_degeneracy_verdict(seed, case):
    # the QP's flag and the Newton step's DegeneracyError come from one rank
    # test on one factor of the tight rows, so they agree on every draw: for
    # the QP seeded with the violated rows and for the one seeded with its
    # result and factor, also where the factor is not reused (a sign or set
    # mismatch)
    p = _planted_problem(np.random.default_rng(seed), case)
    solutions = []

    def recording(instance):
        solutions.append(solve_qp(instance))
        return solutions[-1]

    approx = None
    for _ in range(2):
        with mock.patch.object(newton, "solve_qp", recording):
            try:
                approx = approximation_step(p, np.zeros(p.n), approx)
            except (QPInfeasibleError, NonconvergenceError):
                assume(False)
        try:
            newton_workspace(p, approx)
            raised = False
        except DegeneracyError as exc:
            raised = True
            assert str(exc).startswith("point is degenerate: active rows of Jg lost rank (")
        assert solutions[-1].degenerate_multiplier == raised


def _nonlinear_g_problem():
    """f(x) = M x + q and g(x) = (x1 + 0.3 x2^2 + 0.1 x3, x3 + 0.2 sin x1) <= 0.

    The rows of Jg(x) change with every iterate.
    """
    m = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 2.0]])
    q = np.array([1.1, 1.9, -0.4])
    return GEProblem(
        name="nonlinear-g", n=3, s=2,
        f=lambda x: m @ x + q,
        jf=lambda x: m,
        g=lambda x: np.array([x[0] + 0.3 * x[1] ** 2 + 0.1 * x[2], x[2] + 0.2 * np.sin(x[0])]),
        jg=lambda x: np.array([[1.0, 0.6 * x[1], 0.1], [0.2 * np.cos(x[0]), 0.0, 1.0]]),
        hg=lambda x, lam: np.diag([-0.2 * np.sin(x[0]) * lam[1], 0.6 * lam[0], 0.0]),
        box=BoxSet(np.full(2, -np.inf), np.zeros(2)),
    )


def test_carried_factor_misses_when_jg_changes_and_changes_nothing(monkeypatch):
    # with a nonlinear g the guessed rows of each QP differ from the rows
    # the previous QP factored, so every seed factors its own rows; a run
    # whose carried factors are stripped at the solve_qp seam takes as many
    # factorizations and the same path
    problem = _nonlinear_g_problem()
    original_solve_qp = newton.solve_qp
    runs = []
    for strip in (False, True):
        factored = []

        def recording_factor_rows(c, factored=factored):
            factored.append(c)
            return linalg.factor_rows(c)

        monkeypatch.setattr(qp_module, "factor_rows", recording_factor_rows)
        qrs_per_call = []

        def recording(instance, strip=strip):
            if strip:
                instance = dataclasses.replace(instance, guess=instance.guess[:2])
            before = len(factored)
            sol = original_solve_qp(instance)
            qrs_per_call.append(len(factored) - before)
            return sol

        monkeypatch.setattr(newton, "solve_qp", recording)
        runs.append((solve(problem, np.array([0.5, 0.8, -0.8])), len(factored), qrs_per_call))
    (report, qrs, per_call), (expected, stripped_qrs, _) = runs
    assert report.status is Status.CONVERGED
    assert all(r.branch != "II" for r in report.iterations)  # rows to factor at every QP
    assert min(per_call) >= 1 and qrs == stripped_qrs
    assert (report.status, len(report.iterations)) == (expected.status, len(expected.iterations))
    want = np.array(expected.final_x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.array(report.final_x) - want)) <= 1e-12 * scale


def test_workspace_matrix_is_the_out_of_place_expression_bit_for_bit():
    # M is formed in place and alpha read from max and min of JL; both must
    # give the bits of the plain expression, for alpha = 1 and alpha > 1 and
    # whichever sign JL's largest entry has
    rng = np.random.default_rng(7)
    seen = Counter()
    for k in range(120):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, n + 1))
        m_scale = (0.1, 3.0)[k % 2]
        spec = AffineProblemSpec(
            name="random-affine",
            m=m_scale * rng.uniform(-1, 1, (n, n)),
            q=rng.uniform(-2, 2, n),
            g_mat=rng.uniform(-2, 2, (s, n)),
            h=rng.uniform(-1, 1, s),
            lower=rng.choice([-1.0, -np.inf], s),
            upper=rng.choice([0.0, 1.0, np.inf], s),
        )
        p = spec.build()
        x = rng.uniform(-0.5, 0.5, n)
        ap = approximation_step(p, x)
        ws = newton_workspace(p, ap)
        jac_l = lagrangian_jacobian(p, ap.x_hat, ap.lam_hat)
        c, q1 = ap.factor.rows, ap.factor.q
        alpha = max(1.0, float(np.max(np.abs(jac_l))))
        scale = alpha / np.linalg.norm(c, axis=1)
        want = jac_l - q1 @ (q1.T @ jac_l - scale[:, None] * c)
        assert np.array_equal(ws.reduced_matrix, want)
        if c.shape[0]:
            seen[alpha == 1.0, jac_l.max() < -jac_l.min()] += 1
    assert seen[True, False] and seen[True, True] and seen[False, False] and seen[False, True]


def test_a_solve_refills_one_matrix_and_writes_no_callback_array(monkeypatch):
    # an obstacle-pins-style membrane: 6 x 6 grid, x^3 term, held at 3 nodes
    k = 6
    n = k * k
    lap1 = 2 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    lap = (np.kron(lap1, np.eye(k)) + np.kron(np.eye(k), lap1)) * (k + 1) ** 2
    rows = np.array([8, 15, 27])
    basis = np.eye(n)[rows]
    membrane = GEProblem(
        name="pins",
        n=n,
        s=rows.size,
        f=lambda x: lap @ x + x**3 + 20.0,
        jf=lambda x: lap + np.diag(3.0 * x**2),
        g=lambda x: x[rows],
        jg=lambda x: basis,
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(np.full(rows.size, -0.05), np.full(rows.size, np.inf)),
    )
    buffers = []

    def recording(workspace):
        buffers.append(workspace.jac_l)
        assert workspace.free is not None  # the pins are coordinate rows
        assert not np.shares_memory(workspace.reduced_matrix, workspace.jac_l)
        return newton_step(workspace)

    monkeypatch.setattr(newton, "newton_step", recording)
    report = solve(membrane, np.zeros(n))
    assert report.status is Status.CONVERGED
    assert len(buffers) >= 3 and all(m.shape == (n, n) for m in buffers)
    assert all(np.shares_memory(m, buffers[0]) for m in buffers[1:])
    monkeypatch.undo()

    # without out, each call returns an array of its own
    ap = approximation_step(membrane, np.zeros(n))
    first, second = (newton_workspace(membrane, ap).jac_l for _ in range(2))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)

    # jf of a built affine problem returns its stored M; a solve leaves it as it was
    spec = AffineProblemSpec(
        name="stored-m",
        m=np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 1.5]]),
        q=np.array([-1.0, 2.0, -0.5]),
        g_mat=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
        h=np.zeros(2),
        lower=np.array([-np.inf, -0.2]),
        upper=np.array([0.1, 0.2]),
    )
    stored = spec.m.tobytes()
    problem = spec.build()
    assert problem.jf(np.zeros(3)) is spec.m
    matrices, bordered = [], []

    def recording_bordered(workspace):
        matrices.append(workspace.reduced_matrix)
        bordered.append(workspace.free is None)
        return newton_step(workspace)

    monkeypatch.setattr(newton, "newton_step", recording_bordered)
    report = solve(problem, np.array([1.0, -1.0, 1.0]))
    assert report.status is Status.CONVERGED and len(report.iterations) >= 2
    assert spec.m.tobytes() == stored
    # a tight coupled row takes the bordered form, whose M overwrites JL in
    # the one buffer (as JL[F, F] = JL is that buffer when no row is tight)
    assert any(bordered) and all(np.shares_memory(m, matrices[0]) for m in matrices)


def test_workspace_orthogonality_invariants():
    # Q1 is an orthonormal basis of range(C^T), C = W^T Jg.  With Z from
    # nullspace_basis, the bordered system has [Z Q1]^T M =
    # [Z^T JL; alpha D^{-1} C] and [Z Q1]^T rhs = [-Z^T y_p; -alpha D^{-1} W^T y_g].
    # A Jg of coordinate rows (here n = 1) has Z = I[:, F]: the
    # workspace holds JL[F, F] exactly, s_T solves C s = -W^T y_g and the
    # rhs is -y_p[F] - JL[F, T] s_T
    rng = np.random.default_rng(1)
    active = 0
    forms = Counter()
    for _ in range(50):
        p = random_affine_problem(rng, max_n=5, max_s=3)
        x = rng.uniform(-0.5, 0.5, p.n)
        ap = approximation_step(p, x)
        ws = newton_workspace(p, ap)
        w = basis_for_pattern(ap.pattern)
        c = w.T @ p.jg(x)
        m = c.shape[0]
        active += m > 0
        q1 = ap.factor.q
        assert q1.shape == (p.n, m)
        assert np.max(np.abs(q1.T @ q1 - np.eye(m)), initial=0.0) <= 1e-14
        assert np.max(np.abs(c - (c @ q1) @ q1.T), initial=0.0) <= 1e-14 * np.max(
            np.abs(c), initial=1.0
        )
        jac_l = lagrangian_jacobian(p, x, ap.lam_hat)
        y_p, y_g = ap.y_hat[: p.n], ap.y_hat[p.n :]
        size = 1.0 + np.max(np.abs(ap.y_hat))
        forms[ws.free is None, m > 0] += 1
        if ws.free is not None:
            t, f = ws.columns, ws.free
            assert np.array_equal(np.sort(np.concatenate([t, f])), np.arange(p.n))
            assert np.array_equal(ws.reduced_matrix, jac_l[np.ix_(f, f)])
            s_t = np.zeros(p.n)
            s_t[t] = ws.column_step
            assert np.max(np.abs(c @ s_t + w.T @ y_g), initial=0.0) <= 1e-15 * size
            want_rhs = -y_p[f] - jac_l[np.ix_(f, t)] @ ws.column_step
            scale = 1.0 + np.max(np.abs(jac_l)) * np.max(np.abs(s_t))
            assert np.max(np.abs(ws.reduced_rhs - want_rhs), initial=0.0) <= 1e-14 * scale * size
            continue
        alpha = max(1.0, np.max(np.abs(jac_l)))
        border = alpha * c / np.linalg.norm(c, axis=1)[:, None]
        z = nullspace_basis(c)
        u = np.hstack([z, q1])
        want = np.vstack([z.T @ jac_l, border])
        assert np.max(np.abs(u.T @ ws.reduced_matrix - want)) <= 1e-14 * alpha
        want_rhs = np.concatenate(
            [-(z.T @ y_p), -alpha * (w.T @ y_g) / np.linalg.norm(c, axis=1)]
        )
        assert np.max(np.abs(u.T @ ws.reduced_rhs - want_rhs)) <= 1e-14 * alpha * size
    assert 10 <= active < 50
    # both forms, each with and without tight rows: a coupled Jg takes the
    # bordered form even where no row is tight
    assert all(forms[bordered, tight] for bordered in (True, False) for tight in (True, False))


def _scaled_problem(rng, near_dependent):
    # random affine problem, s <= n, with F scaled by 10^j for j in [-2, 7]
    # and row i of g and its bounds scaled by 10^k_i for k_i in [-4, 4];
    # optionally the last row nearly depends on the others
    n = int(rng.integers(1, 7))
    s = int(rng.integers(1, n + 1))
    g_mat = rng.uniform(-2, 2, (s, n))
    if near_dependent and s >= 2:
        g_mat[-1] = rng.uniform(-1, 1, s - 1) @ g_mat[:-1]
        g_mat[-1] += 10.0 ** rng.uniform(-8, -2) * rng.standard_normal(n)
    sigma = 10.0 ** rng.integers(-4, 5, s)
    scale = 10.0 ** rng.integers(-2, 8)
    spec = AffineProblemSpec(
        name="scaled",
        m=scale * rng.uniform(-2, 2, (n, n)),
        q=scale * rng.uniform(-2, 2, n),
        g_mat=sigma[:, None] * g_mat,
        h=sigma * rng.uniform(-1, 1, s),
        lower=sigma * rng.choice([-1.0, -np.inf], s),
        upper=sigma * rng.choice([0.0, 1.0, np.inf], s),
    )
    return spec.build()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), near_dependent=st.booleans())
def test_newton_step_does_not_depend_on_the_nullspace_basis(seed, near_dependent):
    # the workspace's step equals the reduced system
    # [Z^T JL; C] s = [-Z^T y1; -W^T y2] for a randomly rotated Z, and the
    # full-pair oracle; errors are measured against the conditioning each
    # path goes through
    rng = np.random.default_rng(seed)
    p = _scaled_problem(rng, near_dependent)
    x = rng.uniform(-0.5, 0.5, p.n)
    try:
        ap = approximation_step(p, x)
        step = newton_step(newton_workspace(p, ap))
    except (QPInfeasibleError, DegeneracyError, SingularMatrixError):
        assume(False)
    size = 1.0 + np.max(np.abs(step))
    w = basis_for_pattern(ap.pattern)
    c = w.T @ ap.jac_g
    z = nullspace_basis(c)
    k = z.shape[1]
    z = z @ np.linalg.qr(rng.standard_normal((k, k)))[0]
    reduced = np.vstack([z.T @ p.jf(x), c])
    rhs = np.concatenate([-(z.T @ ap.y_hat[: p.n]), -(w.T @ ap.y_hat[p.n :])])
    kappa = np.linalg.cond(reduced)
    assert np.max(np.abs(np.linalg.solve(reduced, rhs) - step)) <= 1e-13 * kappa * size
    try:
        oracle = full_step_oracle(p, ap)
    except (RankDeficiencyError, SingularMatrixError):
        return  # singular C C^T or reduced Lagrangian block: no oracle
    kappa_c = np.linalg.cond(c) if c.size else 1.0
    assert np.max(np.abs(oracle - step)) <= 1e-13 * kappa * kappa_c * size


def _f_scaled_problem(rng, near_singular):
    # random affine problem, s <= n, with F scaled by 10^U(-2, 7); with
    # near_singular, sigma_min(Jf) is 10^U(-16, -8) times sigma_max(Jf)
    n = int(rng.integers(1, 7))
    s = int(rng.integers(1, n + 1))
    scale = 10.0 ** rng.uniform(-2, 7)
    m = rng.uniform(-2, 2, (n, n))
    if near_singular:
        u, sv, vt = np.linalg.svd(m)
        sv[-1] = 10.0 ** rng.uniform(-16, -8) * sv[0]
        m = (u * sv) @ vt
    spec = AffineProblemSpec(
        name="f-scaled",
        m=scale * m,
        q=scale * rng.uniform(-2, 2, n),
        g_mat=rng.uniform(-2, 2, (s, n)),
        h=rng.uniform(-1, 1, s),
        lower=rng.choice([-1.0, -np.inf], s),
        upper=rng.choice([0.0, 1.0, np.inf], s),
    )
    return spec.build()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), near_singular=st.booleans())
def test_newton_step_and_its_verdict_do_not_depend_on_the_row_scale(seed, near_singular):
    # scaling row i of g, its bounds and the approximation step's graph
    # point by sigma_i = 10^U(-8, 8) (lam_i by 1/sigma_i) leaves the problem
    # as it is: neither the step nor its singular verdict may change.  The
    # rank test still depends on the row scale (draws it calls degenerate
    # on either side are skipped).  Over 3,000 draws of this generator, a
    # system bordered by C itself changed the singular verdict on 82 and
    # the row-equilibrated border on none.
    rng = np.random.default_rng(seed)
    p = _f_scaled_problem(rng, near_singular)
    x = rng.uniform(-0.5, 0.5, p.n)
    try:
        ap = approximation_step(p, x)
    except QPInfeasibleError:
        assume(False)
    sigma = 10.0 ** rng.uniform(-8, 8, p.s)
    tight = np.array([kind is not Activity.INTERIOR for kind in ap.pattern])
    scaled = dataclasses.replace(
        ap,
        jac_g=sigma[:, None] * ap.jac_g,
        factor=RowFactor(sigma[tight][:, None] * ap.factor.rows, ap.factor.q, ap.factor.r,
                         ap.factor.deficiency),
        lam_hat=ap.lam_hat / sigma,
        d_hat=sigma * ap.d_hat,
        y_hat=np.concatenate([ap.y_hat[: p.n], sigma * ap.y_hat[p.n :]]),
    )
    steps = []
    for approx in (ap, scaled):
        try:
            ws = newton_workspace(p, approx)
            steps.append(newton_step(ws))
        except DegeneracyError:
            assume(False)
        except SingularMatrixError:
            steps.append(None)
    step, scaled_step = steps
    assert (step is None) == (scaled_step is None)
    if step is not None:
        # 1e-12 relative, loosened by the conditioning of the solved matrix
        # once it passes 100 (none is solved when no column is free): the
        # two systems differ by rounding in forming them
        solved = ws.reduced_matrix
        rel = max(1e-12, 1e-14 * np.linalg.cond(solved)) if solved.size else 1e-12
        assert np.max(np.abs(scaled_step - step)) <= rel * np.max(np.abs(step))


def test_nearly_dependent_active_rows_stay_solvable():
    # C = W^T G has sigma_min about 2e-10: above the rank floor; the reduced
    # system keeps C as its own rows, while a system squaring C's
    # conditioning (bordered with C itself) would see 3e-19 and call it
    # singular
    spec = AffineProblemSpec(
        name="near-dependent",
        m=np.eye(2),
        q=np.array([-2.0, -1.0]),
        g_mat=np.array([[1.0, 0.0], [1.0, 3e-10]]),
        h=np.zeros(2),
        lower=np.full(2, -np.inf),
        upper=np.zeros(2),
    )
    report = solve(spec.build(), np.array([-1.0, -1.0]))
    assert report.status is Status.CONVERGED
    assert len(report.iterations) == 3
    # only the second row binds: x2 = 1 - 3e-10 (2 - x1) and x1 = -3e-10 x2
    x2 = 1.0 - 6e-10
    assert np.allclose(report.final_x, [-3e-10 * x2, x2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_large_jacobian_with_every_row_active_converges(n):
    # F(x) = 1e7 (x - 1), x <= 0: every row binds at the solution x = 0, so
    # Z is empty and the reduced matrix is C alone; the scale of JL must not
    # enter the regularity test
    spec = AffineProblemSpec(
        name="stiff",
        m=1e7 * np.eye(n),
        q=-1e7 * np.ones(n),
        g_mat=np.eye(n),
        h=np.zeros(n),
        lower=np.full(n, -np.inf),
        upper=np.zeros(n),
    )
    report = solve(spec.build(), -np.ones(n))
    assert report.status is Status.CONVERGED
    assert np.max(np.abs(report.final_x)) <= 1e-12


def test_more_active_rows_than_unknowns_is_degenerate():
    # two copies of the row x <= 0 for one unknown: the active rows cannot
    # be independent, and every layer says so without raising anything else
    spec = AffineProblemSpec(
        name="doubled-row",
        m=np.eye(1),
        q=-np.ones(1),
        g_mat=np.array([[1.0], [1.0]]),
        h=np.zeros(2),
        lower=np.full(2, -np.inf),
        upper=np.zeros(2),
    )
    p = spec.build()
    report = solve(p, np.array([-1.0]))
    assert report.status is Status.SINGULAR_NEWTON_SYSTEM
    assert report.message.startswith("point is degenerate: active rows of Jg lost rank")
    assert nondegeneracy_modulus(p, np.zeros(1), np.zeros(2)) == 0.0
    with pytest.raises(DegeneracyError):
        check_second_order(p, np.zeros(1), np.array([0.5, 0.5]))


def test_one_iteration_evaluates_f_once_and_jg_once():
    calls = []
    p = counting_callbacks(BOXVI, calls)
    newton_workspace(p, approximation_step(p, np.array([0.3, 0.3])))
    assert Counter(calls) == Counter(f=1, g=1, jg=1, jf=1, hg=1)


def test_newton_step_examples():
    ws = newton_workspace(NCP, approximation_step(NCP, np.array([-0.1])))
    step = newton_step(ws)
    assert step == pytest.approx([0.1125], abs=1e-15)
    ws = newton_workspace(NCP, approximation_step(NCP, np.array([0.0125])))
    assert newton_step(ws) == pytest.approx([-0.0125], abs=1e-15)
    ws = newton_workspace(NCP, approximation_step(NCP, np.zeros(1)))
    assert newton_step(ws) == pytest.approx([0.0], abs=1e-15)


def test_full_ab_interior():
    a, b = assemble_full_ab(NCP, approximation_step(NCP, np.array([-0.1])))
    assert np.allclose(a, [[-0.8, 0.0], [1.0, -1.0]], atol=1e-15)
    assert np.allclose(b, np.eye(2))


def test_full_ab_active():
    a, b = assemble_full_ab(NCP, approximation_step(NCP, np.array([0.0125])))
    assert np.allclose(a, [[1.0, 0.0], [1.0, -1.0]])
    assert np.allclose(b, [[0.0, 1.0], [0.0, 1.0]])


def test_full_ab_shapes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = random_affine_problem(rng, max_n=5, max_s=3)
        x = rng.uniform(-0.5, 0.5, p.n)
        a, b = assemble_full_ab(p, approximation_step(p, x))
        assert a.shape == (p.n + p.s, p.n + p.s)
        assert b.shape == a.shape


def test_closed_form_inverse_example():
    inv = closed_form_inverse(NCP, approximation_step(NCP, np.array([-0.1])))
    assert np.allclose(inv, [[-1.25, 0.0], [-1.25, -1.0]], atol=1e-12)


def test_closed_form_inverse_identity_block():
    # f = x + 2, g identity: at an interior point Z = I and G = I
    spec = AffineProblemSpec(
        name="shifted",
        m=np.eye(1),
        q=np.array([2.0]),
        g_mat=np.eye(1),
        h=np.zeros(1),
        lower=np.array([-np.inf]),
        upper=np.zeros(1),
    )
    p = spec.build()
    ap = approximation_step(p, np.array([-3.0]))
    assert ap.pattern == (Activity.INTERIOR,)
    inv = closed_form_inverse(p, ap)
    assert np.allclose(inv[:1, :1], np.eye(1))


def test_closed_form_inverse_singular_g():
    spec = AffineProblemSpec(
        name="flat",
        m=np.zeros((1, 1)),
        q=np.array([1.0]),
        g_mat=np.eye(1),
        h=np.zeros(1),
        lower=np.array([-np.inf]),
        upper=np.zeros(1),
    )
    p = spec.build()
    ap = approximation_step(p, np.array([-5.0]))  # interior, so G = 0
    with pytest.raises(SingularMatrixError):
        closed_form_inverse(p, ap)


def test_full_step_oracle_matches_reduced():
    for x in ([-0.1], [0.0125], [-0.24]):
        ap = approximation_step(NCP, np.array(x))
        s_reduced = newton_step(newton_workspace(NCP, ap))
        s_full = full_step_oracle(NCP, ap)
        assert np.max(np.abs(s_reduced - s_full)) <= 1e-9


def test_full_step_oracle_zero_at_solution():
    ap = approximation_step(BOXVI, np.zeros(2))
    assert np.allclose(ap.y_hat, 0.0, atol=1e-15)
    assert np.allclose(full_step_oracle(BOXVI, ap), 0.0, atol=1e-12)


def test_ab_rows_are_coderivative_elements():
    # every row triple of (A, B) must satisfy the coderivative membership
    rng = np.random.default_rng(3)
    cases = [(NCP, np.array([-0.1])), (NCP, np.array([0.0125])),
             (BOXVI, np.array([0.3, 0.3]))]
    for _ in range(20):
        p = random_affine_problem(rng, max_n=4, max_s=3)
        cases.append((p, rng.uniform(-0.5, 0.5, p.n)))
    for p, x in cases:
        ap = approximation_step(p, x)
        a, b = assemble_full_ab(p, ap)
        jac = p.jg(x)
        for i in range(p.n + p.s):
            p_i = b[i, : p.n]
            q_i = b[i, p.n :]
            d_i = a[i, p.n :]
            assert regular_coderivative_nd(
                ap.d_hat, ap.lam_hat, jac @ p_i, d_i + q_i, p.box, tol=1e-8
            )


def test_solve_ncp_trajectory():
    report = solve(NCP, np.array([-0.1]), tol=1e-12)
    assert report.status is Status.CONVERGED
    assert len(report.iterations) <= 3
    xs = [rec.x[0] for rec in report.iterations]
    assert xs[0] == -0.1
    assert abs(xs[1] - 0.0125) <= 1e-12
    assert abs(xs[2]) <= 1e-15


def test_solve_ncp_positive_start():
    report = solve(NCP, np.array([0.3]), tol=1e-12)
    assert report.status is Status.CONVERGED
    assert abs(report.iterations[1].x[0]) <= 1e-15


def test_solve_exact_start():
    report = solve(NCP, np.zeros(1), tol=1e-12)
    assert report.status is Status.CONVERGED
    assert len(report.iterations) == 1
    assert report.iterations[0].step_norm == 0.0


def test_solve_rate_estimates():
    report = solve(NCP, np.array([-0.2]), tol=1e-12)
    steps = [rec.step_norm for rec in report.iterations]
    for k in range(1, len(report.iterations)):
        rate = report.iterations[k].rate_estimate
        if rate is not None:
            assert rate == pytest.approx(steps[k] / steps[k - 1] ** 2)


def test_solve_singular_newton_system():
    spec = AffineProblemSpec(
        name="flat",
        m=np.zeros((1, 1)),
        q=np.array([1.0]),
        g_mat=np.eye(1),
        h=np.zeros(1),
        lower=np.array([-np.inf]),
        upper=np.zeros(1),
    )
    report = solve(spec.build(), np.array([-1.0]), tol=1e-12)
    assert report.status is Status.SINGULAR_NEWTON_SYSTEM
    assert report.message


def test_solve_qp_infeasible_status():
    spec = AffineProblemSpec(
        name="pinched",
        m=np.eye(1),
        q=np.zeros(1),
        g_mat=np.array([[1.0], [1.0]]),
        h=np.array([0.0, 1.0]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([0.0, 0.0]),
    )
    report = solve(spec.build(), np.array([0.5]), tol=1e-12)
    assert report.status is Status.QP_INFEASIBLE


@pytest.mark.parametrize("g", [1e-9, 2e-10])
def test_a_tiny_constraint_row_is_solved_not_called_infeasible(g):
    # f(x) = x - 1 and g(x) = G x <= 0 from x0 = 0.3, G tiny: the solution
    # is x = 0 with lam = 1/G.  The dual active-set floor called the row
    # dependent and the first QP infeasible; the closed form solves it, and
    # one Newton step lands on x = 0.  Checked against the KKT conditions.
    # At G = 1e-10 the row's R equals the rank test's absolute tolerance
    # RANK_TOL x max(1, max |C|), so that run still ends in
    # SINGULAR_NEWTON_SYSTEM at the first Newton step
    spec = AffineProblemSpec(
        name="tiny-row",
        m=np.eye(1),
        q=np.array([-1.0]),
        g_mat=np.array([[g]]),
        h=np.zeros(1),
        lower=np.array([-np.inf]),
        upper=np.zeros(1),
    )
    report = solve(spec.build(), np.array([0.3]))
    assert report.status is Status.CONVERGED
    assert len(report.iterations) - 1 == 1
    (x,), (lam,) = report.final_x, report.iterations[-1].lam
    assert abs(x) <= 1e-15  # the solution x = 0, up to rounding
    assert lam > 0.0 and abs((x - 1.0) + g * lam) <= 1e-15


def test_solve_max_iter():
    report = solve(NCP, np.array([-0.1]), tol=1e-12, max_iter=1)
    assert report.status is Status.MAX_ITER


def test_superlinear_step_collapse():
    # recorded step norms collapse: ratios strictly decrease below 0.1,
    # counting the terminal zero step emitted on convergence
    for x0 in (-0.25, -0.2, -0.1, -0.05, 0.2):
        report = solve(NCP, np.array([x0]), tol=1e-12)
        assert report.status is Status.CONVERGED
        steps = [rec.step_norm for rec in report.iterations]
        ratios = [steps[k] / steps[k - 1] for k in range(1, len(steps)) if steps[k - 1] > 0]
        assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
        assert ratios[-1] < 0.1


def test_per_iteration_membership():
    # every approximation along a run stays on the graph of the inclusion
    for p, x0 in ((NCP, [-0.1]), (NCP, [0.3]), (BOXVI, [0.3, 0.3])):
        x = np.array(x0)
        for _ in range(5):
            ap = approximation_step(p, x)
            assert normal_cone_membership(ap.d_hat, ap.lam_hat, p.box, tol=1e-9)
            assert np.allclose(ap.y_hat[: p.n], -ap.u_hat, atol=1e-12)
            if np.linalg.norm(ap.u_hat) <= 1e-12:
                break
            x = x + newton_step(newton_workspace(p, ap))


def test_solve_reports_nonfinite_callback_as_status():
    # the first Newton step from x0 = -10 lands near x = 4.4e4, where exp overflows
    exp_problem = GEProblem(
        name="exp",
        n=1,
        s=1,
        f=lambda x: np.exp(x) - 2.0,
        jf=lambda x: np.diag(np.exp(x)),
        g=lambda x: x.copy(),
        jg=lambda x: np.eye(1),
        hg=lambda x, lam: np.zeros((1, 1)),
        box=BoxSet(np.array([-np.inf]), np.array([np.inf])),
    )
    for method in (solve, josephy_newton):
        with np.errstate(over="ignore"):
            report = method(exp_problem, np.array([-10.0]))
        assert report.status is Status.EVALUATION_FAILED
        assert report.message == (
            "approximation step at iteration 1: exp: f is non-finite at entry (0,)"
        )
        assert len(report.iterations) == 1
        assert report_from_json(report_to_json(report)) == report


def test_solve_reports_direction_evaluation_failure():
    bad_hessian = dataclasses.replace(NCP, hg=lambda x, lam: np.full((1, 1), np.nan))
    report = solve(bad_hessian, np.array([-0.1]))
    assert report.status is Status.EVALUATION_FAILED
    assert report.message.startswith("direction step at iteration 0: ")
    assert report.iterations[-1].step_norm == 0.0


def _huge_problem(n, hg_entry):
    """One active row under Jf = 1e308 everywhere and a constant Hg."""
    row = np.ones((1, n))
    return GEProblem(
        name="huge",
        n=n,
        s=1,
        f=lambda x: x - 1.0,
        jf=lambda x: np.full((n, n), 1e308),
        g=lambda x: row @ x,
        jg=lambda x: row,
        hg=lambda x, lam: np.full((n, n), hg_entry),
        box=BoxSet(np.array([-np.inf]), np.zeros(1)),
    )


@pytest.mark.parametrize(
    "n, hg_entry, message",
    [
        # Jf + Hg of two finite arrays overflows to +inf
        (2, 1e308, "huge: Jf + Hg overflows"),
        # JL is finite, but Q1^T JL sums four entries of 1e308 along the active row
        (4, 0.0, "Newton system overflows: matrix entries must be finite"),
    ],
    ids=["lagrangian", "projection"],
)
def test_an_overflowing_newton_system_ends_evaluation_failed(n, hg_entry, message):
    # callbacks near the float range must end the run with a status, not raise
    # from solve_dense
    problem = _huge_problem(n, hg_entry)
    x0 = np.full(n, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        ap = approximation_step(problem, x0)
        assert ap.factor.rows.shape == (1, n)  # the row is active
        assert np.isfinite(lagrangian_jacobian(problem, x0, ap.lam_hat)).all() == (n == 4)
        report = solve(problem, x0)
    assert report.status is Status.EVALUATION_FAILED
    assert report.message == f"direction step at iteration 0: {message}"
    assert len(report.iterations) == 1 and report.iterations[0].step_norm == 0.0


@pytest.mark.parametrize(
    "n, hg_entry, josephy_status",
    [(2, 1e308, Status.EVALUATION_FAILED), (4, 0.0, Status.UNSOLVABLE_SUBPROBLEM)],
    ids=["lagrangian", "projection"],
)
def test_an_overflowing_newton_system_warns_nothing(n, hg_entry, josephy_status):
    # the overflow becomes a status; no RuntimeWarning of numpy leaks out
    problem, x0 = _huge_problem(n, hg_entry), np.full(n, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ours, theirs = solve(problem, x0), josephy_newton(problem, x0)
    assert [str(w.message) for w in caught] == []
    assert (ours.status, theirs.status) == (Status.EVALUATION_FAILED, josephy_status)


def test_josephy_newton_ends_an_overflowing_subproblem_at_its_direction_step():
    # Jf + Hg overflows to +inf: the subproblem matrix is rejected before the
    # enumeration, which would otherwise accept a NaN solution
    problem, x0 = _huge_problem(2, 1e308), np.full(2, 0.5)
    report = josephy_newton(problem, x0)
    assert report.status is Status.EVALUATION_FAILED
    assert report.message == "direction step at iteration 0: huge: Jf + Hg overflows"
    assert len(report.iterations) == 1 and report.iterations[0].step_norm == 0.0


def _overflowing_offset(jac, bounded):
    """f = 1e308 everywhere and g(x) = Jg x with Jg of entries 10: finite
    values whose QP offset b - Jg c overflows at x0 = 0."""
    s, n = jac.shape
    return GEProblem(
        name="offset", n=n, s=s,
        f=lambda x: np.full(n, 1e308), jf=lambda x: np.zeros((n, n)),
        g=lambda x: jac @ x, jg=lambda x: jac, hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(np.full(s, -1.0), np.ones(s)) if bounded else BoxSet(
            np.full(s, -np.inf), np.full(s, np.inf)),
    )


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize(
    "jac", [np.array([[10.0]]), np.array([[10.0, 10.0], [10.0, -10.0]])],
    ids=["closed-form", "active-set"],
)
def test_an_overflowing_qp_offset_ends_evaluation_failed(jac, bounded):
    # e = b - Jg c is -inf (or inf - inf) for finite f, g and Jg: the run
    # ends at iteration 0 naming the overflow, with no warning, on either
    # QP path; it used to raise InfeasiblePointError or warn from the QP
    problem = _overflowing_offset(jac, bounded)
    for method in (solve, josephy_newton):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = method(problem, np.zeros(problem.n))
        assert [str(w.message) for w in caught] == []
        assert report.status is Status.EVALUATION_FAILED
        assert report.message == (
            "approximation step at iteration 0: the QP's offset b - Jg c overflows at row 0"
        )
        assert report.iterations == ()


X0 = np.array([0.3, 0.3])  # box-vi-2d converges from here in one step


def _poisoned(problem, name, entry, value, iteration):
    """``problem`` whose callback ``name`` puts ``value`` at ``entry`` at
    iteration 0 (x = X0) or at every later one (x != X0); an entry of None
    makes the callback return one value too many instead."""
    fn = getattr(problem, name)

    def poisoned(*args):
        out = np.array(fn(*args), dtype=float)
        if np.array_equal(args[0], X0) == (iteration == 0):
            if entry is None:
                return np.append(out, 0.0)
            out[entry] = value
        return out

    return dataclasses.replace(problem, **{name: poisoned})


def _solve_recording_warnings(problem, x0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve(problem, x0)
    assert [str(w.message) for w in caught] == []
    return report


def _huge_asymmetric():
    """Jf = 1e308 everywhere and an asymmetric Hg: the sum overflows."""
    return dataclasses.replace(
        _huge_problem(2, 0.0), hg=lambda x, lam: np.array([[1e308, 1e308], [0.0, 1e308]])
    )


@pytest.mark.parametrize(
    "faults, where, message",
    [
        # f, g and Jg: checked once, by QPInstance, then named by the callback
        ([("f", (1,), np.nan)], 0, "approximation step at iteration 0: box-vi-2d: f is "
         "non-finite at entry (1,)"),
        ([("f", (0,), np.inf)], 1, "approximation step at iteration 1: box-vi-2d: f is "
         "non-finite at entry (0,)"),
        ([("g", (1,), -np.inf)], 0, "approximation step at iteration 0: box-vi-2d: g is "
         "non-finite at entry (1,)"),
        ([("g", (0,), np.nan)], 1, "approximation step at iteration 1: box-vi-2d: g is "
         "non-finite at entry (0,)"),
        ([("jg", (0, 1), np.nan)], 0, "approximation step at iteration 0: box-vi-2d: jg is "
         "non-finite at entry (0, 1)"),
        ([("jg", (1, 0), np.inf)], 1, "approximation step at iteration 1: box-vi-2d: jg is "
         "non-finite at entry (1, 0)"),
        # an earlier callback's non-finite value comes before a later one's
        # fault, and a wrong shape before anything later
        ([("g", (0,), np.nan), ("f", (1,), np.inf)], 0, "approximation step at iteration 0: "
         "box-vi-2d: f is non-finite at entry (1,)"),
        ([("f", (0,), np.nan), ("g", None, None)], 0, "approximation step at iteration 0: "
         "box-vi-2d: f is non-finite at entry (0,)"),
        ([("g", (1,), np.nan), ("jg", None, None)], 1, "approximation step at iteration 1: "
         "box-vi-2d: g is non-finite at entry (1,)"),
        ([("f", None, None), ("g", (0,), np.nan)], 0, "approximation step at iteration 0: "
         "box-vi-2d: f returned shape (3,), expected (2,)"),
        # Jf and Hg: checked through their sum, then named as eval_jf and
        # eval_hg name them
        ([("jf", (0, 1), np.nan)], 0, "direction step at iteration 0: box-vi-2d: jf is "
         "non-finite at entry (0, 1)"),
        ([("hg", (1, 0), np.inf)], 0, "direction step at iteration 0: box-vi-2d: hg is "
         "non-finite at entry (1, 0)"),
        ([("hg", (1, 1), np.nan), ("jf", (1, 1), np.inf)], 0, "direction step at iteration "
         "0: box-vi-2d: jf is non-finite at entry (1, 1)"),
        ([("hg", (0, 0), -np.inf), ("jf", (0, 0), np.inf)], 0, "direction step at iteration "
         "0: box-vi-2d: jf is non-finite at entry (0, 0)"),
        ([("jf", (1, 0), np.nan), ("hg", None, None)], 0, "direction step at iteration 0: "
         "box-vi-2d: jf is non-finite at entry (1, 0)"),
    ],
    ids=["f-0", "f-1", "g-0", "g-1", "jg-0", "jg-1", "g-and-f", "f-and-g-shape",
         "g-and-jg-shape-1", "f-shape-and-g", "jf", "hg", "hg-and-jf", "jf-plus-hg-nan",
         "jf-and-hg-shape"],
)
def test_a_non_finite_callback_value_keeps_its_status_and_message(faults, where, message):
    problem = BOXVI
    for name, entry, value in faults:
        problem = _poisoned(problem, name, entry, value, where)
    report = _solve_recording_warnings(problem, X0)
    assert report.status is Status.EVALUATION_FAILED
    assert report.message == message
    # a failed direction step leaves a zero-step record of its iterate
    assert len(report.iterations) == where + message.startswith("direction")


@pytest.mark.parametrize(
    "problem, x0, message",
    [
        # Hg's symmetry is tested before the overflow of Jf + Hg is reported
        (_huge_asymmetric(), np.full(2, 0.5), "huge: hg is not symmetric"),
        (_huge_problem(2, 1e308), np.full(2, 0.5), "huge: Jf + Hg overflows"),
        # a finite JL whose projection overflows gives a non-finite Newton matrix
        (_huge_problem(4, 0.0), np.full(4, 0.5),
         "Newton system overflows: matrix entries must be finite"),
    ],
    ids=["asymmetric", "overflow", "newton-matrix"],
)
def test_an_overflowing_direction_step_keeps_its_status_and_message(problem, x0, message):
    report = _solve_recording_warnings(problem, x0)
    assert report.status is Status.EVALUATION_FAILED
    assert report.message == f"direction step at iteration 0: {message}"


def test_the_newton_workspace_builds_no_normal_basis():
    # W^T y_g is read from the pattern's signs, so no dense W is built on
    # the solve path; W itself still gives the same C as the factor
    problem = get_problem("kojima-shindo")
    with mock.patch.object(newton, "basis_for_pattern", wraps=basis_for_pattern) as basis:
        report = solve(problem, np.array([1.0, 0.5, 0.5, 0.5]))
        ap = approximation_step(BOXVI, X0)
        ws = newton_workspace(BOXVI, ap)
    assert report.status is Status.CONVERGED and len(report.iterations) > 2
    assert basis.call_count == 0
    w = basis_for_pattern(ap.pattern)
    assert np.array_equal(w.T @ ap.jac_g, ap.factor.rows)
    y_g = ap.y_hat[BOXVI.n :]
    signs = np.diagonal(w)  # both coordinates are at their upper bound
    assert np.array_equal(w.T @ y_g, signs * y_g) and ap.factor.q.shape == (2, 2)


def _small_obstacle(k=4):
    """The obstacle problem on a k x k grid: f(x) = A x + x^3 + 1 with A the
    5-point Laplacian, g(x) = x and D = [psi, +inf), a zero Hg; from x0 = 0
    the membrane leaves the obstacle at the corners (k = 4)."""
    n = k * k
    h = 1.0 / (k + 1)
    tri = (2 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)) / h**2
    lap = np.kron(tri, np.eye(k)) + np.kron(np.eye(k), tri)
    t = h * np.arange(1, k + 1)
    px, py = np.meshgrid(t, t, indexing="ij")
    psi = 0.05 - 0.5 * ((px.ravel() - 0.5) ** 2 + (py.ravel() - 0.5) ** 2)
    return GEProblem(
        name="obstacle-4x4", n=n, s=n,
        f=lambda x: lap @ x + x**3 + 1.0, jf=lambda x: lap + np.diag(3.0 * x**2),
        g=lambda x: x.copy(), jg=lambda x: np.eye(n),
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(psi, np.full(n, np.inf)),
    )


def test_an_obstacle_solve_rederives_nothing_and_calls_no_numpy_wrapper():
    # one structural scan of Jg per QP call, which also finds its coordinate
    # rows, and a tight factor built from their indices: no C, Q or R is
    # formed, no held factor is compared, and the signs come from the
    # classifier's codes (no normal_signs).  No np.clip, np.linalg.norm,
    # np.column_stack, np.array_equal or np.flatnonzero anywhere, the zero
    # Hg passes its symmetry test with no transposed compare, and no ssnewton
    # frame enters numpy's Python-level all/any/max/min (ufunc reductions)
    problem = _small_obstacle()
    phases = []  # the phase of each counted call, in order
    counted = ("clip", "column_stack", "array_equal", "flatnonzero")

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            phases.append((name, current[-1] if current else None))
            return fn(*args, **kwargs)
        return recorded

    current = []

    def phase(name, fn):
        def entered(*args, **kwargs):
            current.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                current.pop()
        return entered

    signs = recorder("normal_signs", qp_module.normal_signs)
    disjoint = recorder("disjoint_row_norms2", qp_module.disjoint_row_norms2)
    factors = []
    original_workspace = newton.newton_workspace

    def workspace(problem, approx, out=None):
        factors.append(approx.factor)
        return original_workspace(problem, approx, out)

    def dense(*args):
        raise AssertionError("a dense factor was formed")

    package = os.path.dirname(linalg.__file__)
    reductions = Counter()

    def profile(frame, event, arg):
        code, caller = frame.f_code, frame.f_back
        if (event == "call" and code.co_name in ("_all", "_any", "_amax", "_amin")
                and os.path.basename(code.co_filename) == "_methods.py"
                and caller is not None and caller.f_code.co_filename.startswith(package)):
            reductions[code.co_name, caller.f_code.co_name] += 1

    with mock.patch.object(np.linalg, "norm", recorder("norm", np.linalg.norm)), \
            mock.patch.multiple(np, **{name: recorder(name, getattr(np, name)) for name in counted}), \
            mock.patch.object(qp_module, "normal_signs", signs), \
            mock.patch("ssnewton.cones.normal_signs", signs), \
            mock.patch.object(qp_module, "disjoint_row_norms2", disjoint), \
            mock.patch.object(linalg, "disjoint_row_norms2", disjoint), \
            mock.patch.object(qp_module, "factor_rows", dense), \
            mock.patch.object(newton, "solve_qp", phase("qp", newton.solve_qp)), \
            mock.patch.object(newton, "newton_workspace", phase("workspace", workspace)):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = solve(problem, np.zeros(problem.n))
        finally:
            sys.setprofile(previous)
    assert report.status is Status.CONVERGED
    qp_calls = len(report.iterations)
    steps = qp_calls - 1
    assert steps >= 2 and all(0 < record.branch.count("L") < problem.s
                              for record in report.iterations[1:])
    assert phases == [("disjoint_row_norms2", "qp")] * qp_calls
    assert not reductions
    # every step is on the free coordinates, from a factor holding only
    # what the closed form and the step read: no m x n or m x m value
    assert len(factors) == steps and len({id(factor) for factor in factors}) == steps
    assert all("coordinates" in vars(factor) for factor in factors)
    assert not any({"rows", "q", "r", "r_inv", "dependent"} & vars(f).keys() for f in factors)


def _coordinate_row_problem(rng):
    """Affine f and g(x) = G x + h whose rows each have one signed nonzero,
    10^U(-8, 8), on a random subset of the coordinates; bounds from
    ``random_box`` (one-sided, two-sided, pinched and free)."""
    n = int(rng.integers(1, 7))
    s = int(rng.integers(1, n + 1))
    g_mat = np.zeros((s, n))
    g_mat[np.arange(s), rng.choice(n, s, replace=False)] = (
        rng.choice([-1.0, 1.0], s) * 10.0 ** rng.uniform(-8, 8, s)
    )
    box = random_box(rng, s)
    return AffineProblemSpec(
        name="coordinate-rows", m=rng.uniform(-2, 2, (n, n)), q=rng.uniform(-2, 2, n),
        g_mat=g_mat, h=rng.uniform(-1, 1, s), lower=box.lower, upper=box.upper,
    ).build()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_coordinate_row_step_is_the_full_step_oracle(seed):
    # the free-coordinate system gives the step of the full (A, B) pair.
    # The oracle pseudo-inverts C C^T, which rows of unequal scale make
    # singular, so it runs on the same graph point with each row of g and
    # y_g divided by its scale: the step does not change, up to rounding
    rng = np.random.default_rng(seed)
    p = _coordinate_row_problem(rng)
    x = rng.uniform(-1, 1, p.n)
    try:
        ap = approximation_step(p, x)
        ws = newton_workspace(p, ap)
        step = newton_step(ws)
    except (DegeneracyError, SingularMatrixError):
        assume(False)
    assert ws.free is not None and ws.free.size + ws.columns.size == p.n
    sigma = np.abs(p.jg(x)).sum(axis=1)
    unit = dataclasses.replace(
        ap, jac_g=ap.jac_g / sigma[:, None],
        y_hat=np.concatenate([ap.y_hat[: p.n], ap.y_hat[p.n :] / sigma]),
    )
    oracle = full_step_oracle(p, unit)
    block = ws.reduced_matrix
    cond = np.linalg.cond(block) if block.size else 1.0
    size = 1.0 + np.max(np.abs(oracle))
    assert np.max(np.abs(step - oracle)) <= 1e-10 * max(1.0, cond) * size


def test_a_step_with_every_column_tight_calls_no_lapack_solve(monkeypatch):
    # g(x) = x with both coordinates tight: s is -(W^T y_g) / C[i, i], with
    # no np.linalg.solve; the obstacle solve's first step is the same
    calls = []
    original = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape)
        return original(a, b)

    problem = _small_obstacle()
    cases = [(BOXVI, approximation_step(BOXVI, np.array([0.3, 0.3]))),
             (problem, approximation_step(problem, np.zeros(problem.n)))]
    assert all(ap.factor.rows.shape == (p.n, p.n) for p, ap in cases)  # every row tight
    monkeypatch.setattr(np.linalg, "solve", counting)
    steps = [newton_step(newton_workspace(p, ap)) for p, ap in cases]
    assert calls == []
    monkeypatch.undo()
    for (p, ap), step in zip(cases, steps):
        assert np.max(np.abs(step - full_step_oracle(p, ap))) <= 1e-14


def _one_pinned_row(m):
    """f(x) = M x + (-1, -1) and g(x) = x_0 <= 0: from x0 = (1, 1) the row
    is tight and F = {1}, so the step solves JL[F, F] = M[1, 1]."""
    return AffineProblemSpec(
        name="one-pin", m=np.array(m, dtype=float), q=np.array([-1.0, -1.0]),
        g_mat=np.array([[1.0, 0.0]]), h=np.zeros(1), lower=np.array([-np.inf]),
        upper=np.zeros(1),
    ).build()


def test_an_exactly_singular_free_block_is_a_singular_newton_system():
    p = _one_pinned_row([[1.0, 0.0], [0.0, 0.0]])
    ap = approximation_step(p, np.ones(2))
    ws = newton_workspace(p, ap)
    assert np.array_equal(ws.free, [1]) and np.array_equal(ws.reduced_matrix, [[0.0]])
    with pytest.raises(SingularMatrixError):
        newton_step(ws)
    report = solve(p, np.ones(2))
    assert report.status is Status.SINGULAR_NEWTON_SYSTEM
    assert report.message.startswith("matrix is singular: sigma_min <= ")


def test_a_singular_jacobian_with_a_regular_free_block_still_steps():
    # JL = diag(0, 1) is singular, but the tight row fixes s_0 and the
    # free block JL[F, F] = [[1]] is regular: the Newton system is
    p = _one_pinned_row([[0.0, 0.0], [0.0, 1.0]])
    assert np.linalg.matrix_rank(p.jf(np.ones(2))) == 1
    ap = approximation_step(p, np.ones(2))
    step = newton_step(newton_workspace(p, ap))
    assert np.max(np.abs(step - full_step_oracle(p, ap))) <= 1e-15
    report = solve(p, np.ones(2))
    assert report.status is Status.CONVERGED
    assert report.final_x == (0.0, 1.0)


def test_coupled_tight_rows_keep_the_bordered_system():
    # a tight row with two nonzeros, alone or beside a coordinate row, and a
    # lone tight coordinate row of a coupled Jg: the workspace holds the
    # n x n bordered M, formed in the JL buffer
    membrane = dict(m=np.diag([2.0, 3.0, 1.5]), q=np.full(3, -10.0), lower=[-np.inf],
                    upper=[0.0], x=np.ones(3))
    cases = [
        dict(membrane, g_mat=[[1.0, 1.0, 0.0]], tight=[0]),
        dict(membrane, g_mat=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], lower=[-np.inf] * 2,
             upper=[0.0] * 2, tight=[0, 1]),
        dict(m=[[2.0, 0.5], [0.5, 1.0]], q=[1.0, -1.0], g_mat=[[1.0, 0.0], [1.0, 1.0]],
             lower=[0.0, -10.0], upper=[np.inf, 10.0], x=np.array([0.3, 0.2]), tight=[0]),
    ]
    for case in cases:
        g_mat = np.array(case["g_mat"])
        s, n = g_mat.shape
        p = AffineProblemSpec(
            name="coupled", m=np.array(case["m"]), q=np.array(case["q"]), g_mat=g_mat,
            h=np.zeros(s), lower=np.array(case["lower"]), upper=np.array(case["upper"]),
        ).build()
        ap = approximation_step(p, case["x"])
        assert np.array_equal(ap.tight, case["tight"])
        assert ap.factor.rows.shape == (ap.tight.size, n) and ap.factor.coordinates is None
        buffer = np.empty((n, n))
        ws = newton_workspace(p, ap, buffer)
        assert ws.free is None and ws.reduced_matrix is ws.jac_l is buffer
        assert ws.reduced_matrix.shape == (n, n)
        step = newton_step(ws)
        assert np.max(np.abs(step - full_step_oracle(p, ap))) <= 1e-14


def test_residuals_and_step_norms_are_np_linalg_norm_bit_for_bit(monkeypatch):
    # the report's ||u_hat|| and ||s|| are computed as np.linalg.norm
    # computes them, also for a step that is a strided column of
    # solve_dense's solution (BLAS sums a strided vector in another order)
    steps, approximations = [], []

    def recording_step(workspace):
        steps.append(newton_step(workspace))
        return steps[-1]

    def recording_approximation(problem, x, guess):
        approximations.append(approximation_step(problem, x, guess))
        return approximations[-1]

    monkeypatch.setattr(newton, "newton_step", recording_step)
    rng = np.random.default_rng(12)
    strided = 0
    for _ in range(20):
        n, s = int(rng.integers(20, 60)), int(rng.integers(1, 10))
        a = rng.standard_normal((n, n))
        spec = AffineProblemSpec(
            name="monotone", m=a @ a.T / n + np.eye(n), q=rng.standard_normal(n),
            g_mat=rng.standard_normal((s, n)), h=rng.standard_normal(s),
            lower=-np.ones(s), upper=np.ones(s),
        )
        steps.clear()
        approximations.clear()
        report = solve(spec.build(), np.zeros(n), approximation=recording_approximation)
        records = report.iterations
        strided += sum(not step.flags.c_contiguous for step in steps)
        assert [r.step_norm for r in records[: len(steps)]] == [
            float(np.linalg.norm(step)) for step in steps
        ]
        assert [r.residual for r in records] == [
            float(np.linalg.norm(ap.u_hat)) for ap in approximations
        ]
    assert strided > 20


def test_ab_timing_script_times_two_trees_and_checks_their_outcomes(tmp_path):
    # the interleaved two-tree timing on 2 instances: this checkout against
    # itself times both trees and finds no outcome that differs; against a
    # copy whose solve stops at another tolerance it reports the instances
    # that differ and exits 1
    script = Path(__file__).resolve().parent / "ab_timing.py"
    src = Path(linalg.__file__).resolve().parents[1]
    other = tmp_path / "src"
    shutil.copytree(src / "ssnewton", other / "ssnewton",
                    ignore=shutil.ignore_patterns("__pycache__"))
    newton_py = other / "ssnewton" / "newton.py"
    text = newton_py.read_text()
    assert text.count("def solve(problem, x0, tol=1e-10,") == 1
    newton_py.write_text(text.replace("def solve(problem, x0, tol=1e-10,", "def solve(problem, x0, tol=1e-3,"))

    def timing(change):
        ran = subprocess.run([sys.executable, str(script), "run", str(src), str(change),
                              "--workload", "obstacle-2d", "--count", "2", "--rounds", "1"],
                             capture_output=True, text=True, timeout=120)
        return ran.returncode, json.loads(ran.stdout.splitlines()[-1])

    code, same = timing(src)
    assert code == 0 and same["instances"] == 2 and same["outcomes_differ"] == 0
    assert same["parent_p50_ms"] > 0 and same["change_p50_ms"] > 0
    code, changed = timing(other)
    assert code == 1 and changed["outcomes_differ"] >= 2


def test_trajectory_digest_script_runs_and_compares(tmp_path):
    # the checked-in trajectory digest on 2 instances of each benchmark
    # generator: one line per instance, a run compared with itself differs
    # nowhere, and one changed bit of final_x is reported.  With --rtol, a
    # 1e-14 relative move of final_x passes (and fails without it), and a
    # changed branch fails
    script = Path(__file__).resolve().parent / "trajectory_digest.py"
    out, edited = tmp_path / "digest.txt", tmp_path / "edited.txt"

    def digest(*args):
        return subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True, timeout=120)

    ran = digest("run", str(out), "--count", "2")
    assert ran.returncode == 0, ran.stderr
    lines = out.read_text().splitlines()
    assert [line.split()[:2] for line in lines] == [
        [name, str(i)]
        for name in ("vi-dense", "obstacle-2d", "obstacle-pins", "nl-few-bounds")
        for i in range(2)
    ]
    assert all(line.split()[2] == "CONVERGED" for line in lines)
    same = digest("compare", str(out), str(out))
    assert same.returncode == 0 and "8 instances, 0 differ" in same.stdout
    head, last = lines[-1].rsplit(",", 1)
    flipped = float.fromhex(last)
    flipped = np.nextafter(flipped, np.inf).item()
    edited.write_text("\n".join([*lines[:-1], f"{head},{flipped.hex()}"]) + "\n")
    changed = digest("compare", str(out), str(edited))
    assert changed.returncode == 1
    assert "8 instances, 1 differ [('nl-few-bounds', '1')]" in changed.stdout
    x = [float.fromhex(v) for v in lines[-1].split()[-1].split(",")]
    moved = x[-1] + 1e-14 * max(1.0, max(abs(v) for v in x))
    edited.write_text("\n".join([*lines[:-1], f"{head},{moved.hex()}"]) + "\n")
    within = digest("compare", str(out), str(edited), "--rtol", "1e-12")
    assert within.returncode == 0, within.stdout
    assert "8 instances, 0 differ beyond rtol 1e-12 [], 1 moved within it" in within.stdout
    # and one line per workload: how many of its lines moved, and how far
    assert "\n  vi-dense: 0 of 2 lines moved\n" in within.stdout
    assert "\n  nl-few-bounds: 1 of 2 lines moved, largest move " in within.stdout
    exact = digest("compare", str(out), str(edited))
    assert exact.returncode == 1 and "8 instances, 1 differ" in exact.stdout
    fields = lines[0].split(" ")
    fields[4] += "|II"
    edited.write_text("\n".join([" ".join(fields), *lines[1:]]) + "\n")
    branch = digest("compare", str(out), str(edited), "--rtol", "1e-12")
    assert branch.returncode == 1
    assert "8 instances, 1 differ beyond rtol 1e-12 [('vi-dense', '0')]" in branch.stdout
    assert "\n  vi-dense: 1 of 2 lines moved, 1 in status, iterations or branches\n" in branch.stdout


def test_solve_reports_qp_update_cap_as_status():
    calls = []

    def capped_after_one(problem, x, guess=None):
        calls.append(x)
        if len(calls) > 1:
            raise NonconvergenceError("active-set update cap 200 exceeded (scale issues?)")
        return approximation_step(problem, x, guess)

    report = solve(NCP, np.array([-0.1]), approximation=capped_after_one)
    assert report.status is Status.SUBPROBLEM_NONCONVERGENCE
    assert report.message == (
        "approximation step at iteration 1: active-set update cap 200 exceeded (scale issues?)"
    )
    assert report_from_json(report_to_json(report)) == report


def test_warm_started_solve_matches_cold_solve(monkeypatch):
    # solve seeds its first QP with the rows violated at u = -c and each
    # later QP with the previous iteration's active rows; a run whose QPs
    # drop the guess starts every QP cold and must take the same path, up
    # to rounding.  A QP whose rows have disjoint supports takes the closed
    # form, with no step and no seed, and records "closed"
    warm_flags = []
    original_solve_qp = newton.solve_qp

    def recording(drop_guess):
        def record(instance):
            if drop_guess:
                instance = dataclasses.replace(instance, guess=None)
            sol = original_solve_qp(instance)
            if has_disjoint_rows(instance.jac):
                assert (sol.iterations, sol.warm) == (0, False)
                warm_flags.append("closed")
            else:
                warm_flags.append(sol.warm)
            return sol

        return record

    rng = np.random.default_rng(19)
    cases = [(p, rng.uniform(-0.5, 0.5, p.n)) for p in builtin_registry() for _ in range(6)]
    for _ in range(50):
        p = random_affine_problem(rng)
        cases.append((p, rng.uniform(-1, 1, p.n)))
    seeded = first_warm = first_coupled = 0
    for problem, x0 in cases:
        warm_flags.clear()
        monkeypatch.setattr(newton, "solve_qp", recording(drop_guess=True))
        expected = solve(problem, x0)
        assert True not in warm_flags
        warm_flags.clear()
        monkeypatch.setattr(newton, "solve_qp", recording(drop_guess=False))
        report = solve(problem, x0)
        assert all(flag in (True, "closed") for flag in warm_flags[1:])
        seeded += warm_flags[1:].count(True)
        first_warm += warm_flags[:1] == [True]
        first_coupled += warm_flags[:1] != ["closed"]
        assert (report.status, len(report.iterations), report.message) == (
            expected.status, len(expected.iterations), expected.message
        )
        want = np.array(expected.final_x)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(np.array(report.final_x) - want)) <= 1e-12 * scale
    assert seeded > 50
    # the violated-row seed of every first QP with coupled rows is
    # independent and kept
    assert first_warm == first_coupled > 20


def test_first_qp_of_a_solve_is_seeded_and_takes_no_step(monkeypatch):
    # obstacle problem on a 1-d grid: f(x) = A x + 0.01 with A the 3-point
    # Laplacian, g(x) = x, D = [psi, inf).  At x0 = 0 the QP is separable,
    # so the rows violated at u = -c are exactly its contact set: the
    # active-set method's seeded first call is an exact hit, where its cold
    # call adds them one by one.  solve_qp answers in closed form, no step
    n = 12
    h = 1.0 / (n + 1)
    lap = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    t = h * np.arange(1, n + 1)
    psi = 0.05 - 0.5 * (t - 0.5) ** 2
    problem = GEProblem(
        name="obstacle-1d", n=n, s=n,
        f=lambda x: lap @ x + 0.01, jf=lambda x: lap,
        g=lambda x: x.copy(), jg=lambda x: np.eye(n),
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(psi, np.full(n, np.inf)),
    )
    calls = []
    original_solve_qp = newton.solve_qp

    def recording(instance):
        calls.append((instance, original_solve_qp(instance)))
        return calls[-1][1]

    monkeypatch.setattr(newton, "solve_qp", recording)
    report = solve(problem, np.zeros(n))
    assert report.status is Status.CONVERGED
    instance, first = calls[0]
    contact = np.flatnonzero(psi > -0.01)
    assert 0 < len(contact) < n
    seeded = qp_module._active_set_qp(instance)
    assert (seeded.iterations, seeded.warm) == (0, True)
    cold = qp_module._active_set_qp(dataclasses.replace(instance, guess=None))
    assert (cold.iterations, cold.warm) == (len(contact), False)
    assert seeded.active == cold.active
    assert [j for j, a in enumerate(seeded.active) if a is Activity.AT_LOWER] == list(contact)
    assert (first.iterations, first.warm) == (0, False) and first.active == cold.active
    for got, want in ((first.u, cold.u), (first.lam, cold.lam)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_solve_rejects_a_wrong_length_x0_before_any_callback():
    calls = []
    traced = counting_callbacks(BOXVI, calls)
    for x0 in ([0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]], 0.5):
        with pytest.raises(DimensionError, match="x0 has shape"):
            solve(traced, np.array(x0))
    assert calls == []


def test_solve_rejects_a_bad_tol_or_max_iter_before_any_callback():
    calls = []
    traced = counting_callbacks(BOXVI, calls)
    for options in (dict(tol=np.nan), dict(tol=np.inf), dict(tol=0.0), dict(max_iter=-1)):
        with pytest.raises(InvalidOptionError):
            solve(traced, np.array([0.3, 0.3]), **options)
    assert calls == []
    # from x0 = 0.5 the residual is exactly 0 at k = 1; a NaN tol used to
    # report that as MAX_ITER.  max_iter = 0 stays legal
    assert solve(NCP, np.array([0.5])).iterations[-1].residual == 0.0
    assert solve(NCP, np.array([0.5]), max_iter=0).status is Status.MAX_ITER


def test_solve_calls_the_module_globals_the_benchmark_tracer_patches():
    # perfbench/tracer.py times these layers by replacing the module globals
    # of ssnewton.newton and by passing solve's approximation= argument; the
    # Newton workspace takes no null-space basis, which only the oracles
    # (here assemble_full_ab) take through the global nullspace_basis
    calls = Counter()

    def counting(name):
        fn = getattr(newton, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("solve_qp", "newton_workspace", "nullspace_basis", "newton_step")
    assert all(callable(getattr(newton, name, None)) for name in names)
    saved = {name: getattr(newton, name) for name in names}
    try:
        for name in names:
            setattr(newton, name, counting(name))
        report = solve(NCP, np.array([-0.1]), approximation=counting("approximation_step"))
        called = ("solve_qp", "newton_workspace", "newton_step", "approximation_step")
        assert all(calls[name] > 0 for name in called)
        assert calls["nullspace_basis"] == 0
        assemble_full_ab(NCP, approximation_step(NCP, np.array([0.0125])))
        assert calls["nullspace_basis"] >= 1
    finally:
        for name, fn in saved.items():
            setattr(newton, name, fn)
    assert report.status is Status.CONVERGED


def test_benchmark_tracer_solve_matches_solve_bit_for_bit():
    # the traced solve of perfbench/tracer.py patches the module globals for
    # one solve; its report must equal the untraced one bit for bit, and the
    # globals must be restored afterwards
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    saved = {name: getattr(newton, name) for name in tracer.PATCHED}
    traced = tracer.Tracer()
    for solve_id, x0 in enumerate((-0.1, 0.3, 0.0125)):
        expected = solve(NCP, np.array([x0]))
        report = traced.solve(NCP, np.array([x0]), solve_id)
        assert report_to_json(report) == report_to_json(expected)
        assert report == expected
    assert {name: getattr(newton, name) for name in tracer.PATCHED} == saved
    metrics, consistent = traced.layer_metrics(3)
    assert consistent
    assert metrics["linalg.nullspace_calls"] == (0.0, "count")
    assert metrics["qp.calls"][0] > 0


def test_import_does_not_load_scipy():
    # the benchmark's setup_s times a fresh import; scipy.linalg alone costs
    # about 0.3 s there, so the package must run on numpy only
    src = str(Path(newton.__file__).resolve().parents[1])
    check = "import sys, ssnewton; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
