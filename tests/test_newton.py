import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import random_affine_problem
from ssnewton import newton
from ssnewton.baselines import josephy_newton
from ssnewton.cones import Activity, BoxSet, normal_cone_membership, regular_coderivative_nd
from ssnewton.errors import DegeneracyError, NonconvergenceError, SingularMatrixError
from ssnewton.linalg import nullspace_basis
from ssnewton.newton import (
    approximation_step,
    assemble_full_ab,
    closed_form_inverse,
    full_step_oracle,
    newton_step,
    newton_workspace,
    solve,
)
from ssnewton.problems import AffineProblemSpec, GEProblem, get_problem
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
    ws = newton_workspace(NCP, approximation_step(NCP, np.array([-0.1])))
    assert ws.w.shape == (1, 0)
    assert np.allclose(ws.z, [[1.0]])
    assert np.allclose(ws.reduced_matrix, [[-0.8]], atol=1e-15)
    assert np.allclose(ws.reduced_rhs, [-0.09], atol=1e-15)


def test_workspace_active_branch():
    ap = approximation_step(NCP, np.array([0.0125]))
    ws = newton_workspace(NCP, ap)
    assert np.allclose(ws.w, [[1.0]])
    assert ws.z.shape == (1, 0)
    assert np.allclose(ws.reduced_matrix, [[1.0]])
    assert np.allclose(ws.reduced_rhs, [-0.0125], atol=1e-15)


def test_workspace_both_bounds_active():
    ap = approximation_step(BOXVI, np.array([0.3, 0.3]))
    assert ap.pattern == (Activity.AT_UPPER, Activity.AT_UPPER)
    assert np.all(ap.lam_hat > 0)
    ws = newton_workspace(BOXVI, ap)
    assert np.allclose(ws.w, np.eye(2))
    assert ws.z.shape == (2, 0)
    step = newton_step(ws)
    assert np.allclose(step, ap.d_hat - BOXVI.g(ap.x_hat), atol=1e-12)


def test_workspace_orthogonality_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_affine_problem(rng, max_n=5, max_s=3)
        x = rng.uniform(-0.5, 0.5, p.n)
        ws = newton_workspace(p, approximation_step(p, x))
        k = ws.z.shape[1]
        if k:
            assert np.max(np.abs(ws.z.T @ ws.z - np.eye(k))) <= 1e-12
        if ws.w.shape[1] and k:
            assert np.max(np.abs(ws.w.T @ p.jg(x) @ ws.z)) <= 1e-10


def test_newton_step_does_not_depend_on_the_nullspace_basis(monkeypatch):
    # Z is continuous in C only away from inputs where a reduced column of the
    # LQ factorization lies on +e1, so the step must not depend on the basis
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(100):
        p = random_affine_problem(rng, max_n=6, max_s=3)
        approx = approximation_step(p, rng.uniform(-0.5, 0.5, p.n))
        try:
            ws = newton_workspace(p, approx)
            step = newton_step(ws)
        except (DegeneracyError, SingularMatrixError):
            continue
        k = ws.z.shape[1]
        if k < 2:
            continue
        rotation, _ = np.linalg.qr(rng.standard_normal((k, k)))
        monkeypatch.setattr(newton, "nullspace_basis", lambda c: nullspace_basis(c) @ rotation)
        rotated = newton_step(newton_workspace(p, approx))
        monkeypatch.undo()
        assert np.max(np.abs(rotated - step)) <= 1e-12 * (1.0 + np.max(np.abs(step)))
        checked += 1
    assert checked >= 30


def test_one_iteration_evaluates_f_once_and_jg_once():
    calls = Counter()

    def counted(name):
        fn = getattr(BOXVI, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    p = dataclasses.replace(
        BOXVI, **{name: counted(name) for name in ("f", "jf", "g", "jg", "hg")}
    )
    newton_workspace(p, approximation_step(p, np.array([0.3, 0.3])))
    assert calls == Counter(f=1, g=1, jg=1, jf=1, hg=1)


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


def test_solve_reports_qp_update_cap_as_status():
    calls = []

    def capped_after_one(problem, x):
        calls.append(x)
        if len(calls) > 1:
            raise NonconvergenceError("active-set update cap 200 exceeded (scale issues?)")
        return approximation_step(problem, x)

    report = solve(NCP, np.array([-0.1]), approximation=capped_after_one)
    assert report.status is Status.SUBPROBLEM_NONCONVERGENCE
    assert report.message == (
        "approximation step at iteration 1: active-set update cap 200 exceeded (scale issues?)"
    )
    assert report_from_json(report_to_json(report)) == report


def test_solve_calls_the_module_globals_the_benchmark_tracer_patches():
    # perfbench/tracer.py times these layers by replacing the module globals
    # of ssnewton.newton and by passing solve's approximation= argument
    calls = Counter()

    def counting(name):
        fn = getattr(newton, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("solve_qp", "newton_workspace", "nullspace_basis", "newton_step")
    saved = {name: getattr(newton, name) for name in names}
    try:
        for name in names:
            setattr(newton, name, counting(name))
        report = solve(NCP, np.array([-0.1]), approximation=counting("approximation_step"))
    finally:
        for name, fn in saved.items():
            setattr(newton, name, fn)
    assert report.status is Status.CONVERGED
    assert all(calls[name] > 0 for name in (*names, "approximation_step"))


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
