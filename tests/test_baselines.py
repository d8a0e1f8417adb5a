import numpy as np
import pytest

from helpers import counting_callbacks
from ssnewton.baselines import (
    AVIInstance,
    NonsmoothSystem,
    josephy_newton,
    nonsmooth_newton,
    solve_avi_enumerate,
)
from ssnewton.cones import BoxSet
from ssnewton.errors import CombinatorialBlowupError, DimensionError, InvalidOptionError
from ssnewton.newton import solve
from ssnewton.problems import AffineProblemSpec, get_problem
from ssnewton.reports import Status

NCP = get_problem("ncp-paper")
BOXVI = get_problem("box-vi-2d")


def _smooth_square():
    return NonsmoothSystem(
        n=1,
        eval=lambda x: np.array([x[0] ** 2 - 1.0]),
        jacobian_element=lambda x: np.array([[2.0 * x[0]]]),
    )


def test_newton_on_smooth_system():
    report = nonsmooth_newton(_smooth_square(), np.array([2.0]), tol=1e-12)
    assert report.status is Status.CONVERGED
    xs = [rec.x[0] for rec in report.iterations]
    assert xs[:3] == pytest.approx([2.0, 1.25, 1.025], abs=1e-12)
    assert report.final_x[0] == pytest.approx(1.0, abs=1e-12)


def test_newton_quadratic_convergence():
    report = nonsmooth_newton(_smooth_square(), np.array([2.0]), tol=1e-12)
    errors = [abs(rec.x[0] - 1.0) for rec in report.iterations]
    ratios = [
        errors[k + 1] / errors[k] ** 2
        for k in range(len(errors) - 1)
        if errors[k] > 1e-8
    ]
    assert ratios and max(ratios) <= 1.0


def test_newton_piecewise_linear_one_step():
    system = NonsmoothSystem(
        n=1,
        eval=lambda x: np.array([min(x[0], 2.0 * x[0])]),
        jacobian_element=lambda x: np.array([[1.0 if x[0] >= 0 else 2.0]]),
    )
    for x0 in (1.0, -1.0):
        report = nonsmooth_newton(system, np.array([x0]), tol=1e-14)
        assert report.status is Status.CONVERGED
        assert len(report.iterations) == 2  # one Newton step, then the zero
        assert report.final_x[0] == 0.0


def test_newton_zero_start():
    report = nonsmooth_newton(_smooth_square(), np.array([1.0]), tol=1e-12)
    assert report.status is Status.CONVERGED
    assert len(report.iterations) == 1


def test_newton_rejects_a_wrong_length_x0():
    # a 1-d system broadcasts its step over a longer x0: no run may start
    for x0 in ([2.0, 2.0], [[2.0]], 2.0):
        with pytest.raises(DimensionError, match="x0 has shape"):
            nonsmooth_newton(_smooth_square(), np.array(x0))


BAD_OPTIONS = [
    dict(tol=np.nan), dict(tol=np.inf), dict(tol=0.0), dict(tol=-1e-10), dict(max_iter=-1)
]


def test_newton_rejects_a_bad_tol_or_max_iter_before_any_callback():
    calls = []
    system = NonsmoothSystem(
        n=1,
        eval=lambda x: calls.append("eval") or np.array([x[0] ** 2 - 1.0]),
        jacobian_element=lambda x: calls.append("jac") or np.array([[2.0 * x[0]]]),
    )
    for options in BAD_OPTIONS:
        with pytest.raises(InvalidOptionError):
            nonsmooth_newton(system, np.array([1.0]), **options)
    assert calls == []
    # max_iter = 0 stays legal: the run measures x0 and stops
    report = nonsmooth_newton(system, np.array([2.0]), max_iter=0)
    assert report.status is Status.MAX_ITER and len(report.iterations) == 1


def test_newton_singular_jacobian():
    system = NonsmoothSystem(
        n=1,
        eval=lambda x: np.array([x[0] + 1.0]),
        jacobian_element=lambda x: np.zeros((1, 1)),
    )
    report = nonsmooth_newton(system, np.array([1.0]), tol=1e-12)
    assert report.status is Status.SINGULAR_NEWTON_SYSTEM


def test_newton_reports_overflowing_system_as_status():
    # the first step from x0 = -10 lands near x = 4.4e4, where exp overflows
    system = NonsmoothSystem(
        n=1,
        eval=lambda x: np.exp(x) - 2.0,
        jacobian_element=lambda x: np.diag(np.exp(x)),
    )
    with np.errstate(over="ignore"):
        report = nonsmooth_newton(system, np.array([-10.0]))
    assert report.status is Status.EVALUATION_FAILED
    assert report.message.startswith("approximation step at iteration 1: ")
    assert len(report.iterations) == 1


def test_newton_reports_invalid_jacobian_element_as_status():
    system = NonsmoothSystem(
        n=1,
        eval=lambda x: x + 1.0,
        jacobian_element=lambda x: np.full((1, 1), np.nan),
    )
    report = nonsmooth_newton(system, np.array([1.0]))
    assert report.status is Status.EVALUATION_FAILED
    assert report.message.startswith("direction step at iteration 0: jacobian element is invalid")
    assert len(report.iterations) == 1
    assert report.final_x == (1.0,)


def _ncp_avi(x):
    return AVIInstance(
        q=np.array([-x - x * x]),
        mat=np.array([[-1.0 - 2.0 * x]]),
        jac=np.eye(1),
        g0=np.array([x]),
        box=BoxSet.nonpositive(1),
        base=np.array([x]),
    )


def test_avi_unsolvable_near_zero():
    # the linearized subproblem has no solution anywhere in 0 < |x| <= 1/2
    for x in (0.1, -0.1, 0.5, -0.5, 0.3):
        assert solve_avi_enumerate(_ncp_avi(x)) is None


def test_avi_rejects_a_nan_solution():
    # an infinite M makes every pattern's solution NaN; a NaN residual is
    # never within tolerance, so no pattern is accepted
    inst = AVIInstance(
        q=np.array([-0.5, -0.5]),
        mat=np.full((2, 2), np.inf),
        jac=np.ones((1, 2)),
        g0=np.array([1.0]),
        box=BoxSet.nonpositive(1),
    )
    assert solve_avi_enumerate(inst) is None


def test_avi_monotone_instance():
    inst = AVIInstance(
        q=np.array([-1.0, -1.0]),
        mat=np.eye(2),
        jac=np.eye(2),
        g0=np.zeros(2),
        box=BoxSet.nonpositive(2),
    )
    sol = solve_avi_enumerate(inst)
    assert sol is not None
    x_plus, lam_plus, _ = sol
    assert np.allclose(x_plus, [0.0, 0.0], atol=1e-12)
    assert np.allclose(lam_plus, [1.0, 1.0], atol=1e-12)


def test_avi_guard():
    inst = AVIInstance(
        q=np.zeros(1),
        mat=np.eye(1),
        jac=np.zeros((7, 1)),
        g0=np.zeros(7),
        box=BoxSet.nonpositive(7),
    )
    with pytest.raises(CombinatorialBlowupError):
        solve_avi_enumerate(inst)


def test_avi_completeness_on_constructed_solutions():
    # build (w, lam) with a valid pattern first, derive q, then re-solve
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        s = int(rng.integers(1, 4))
        mat = rng.uniform(-2, 2, (n, n))
        jac = rng.uniform(-2, 2, (s, n))
        lo = rng.choice([-1.0, -np.inf], s)
        hi = rng.choice([0.0, 1.0, np.inf], s)
        box = BoxSet(lo, hi)
        w = rng.uniform(-1, 1, n)
        g_w = jac @ w
        g0 = np.zeros(s)
        lam = np.zeros(s)
        for j in range(s):
            kind = rng.integers(0, 3)
            if kind == 0 and np.isfinite(hi[j]):  # at upper with lam >= 0
                g0[j] = hi[j] - g_w[j]
                lam[j] = rng.uniform(0, 2)
            elif kind == 1 and np.isfinite(lo[j]):  # at lower with lam <= 0
                g0[j] = lo[j] - g_w[j]
                lam[j] = -rng.uniform(0, 2)
            else:  # interior
                base = lo[j] + 0.5 if np.isfinite(lo[j]) else hi[j] - 0.5
                if np.isfinite(lo[j]) and np.isfinite(hi[j]):
                    base = 0.5 * (lo[j] + hi[j])
                g0[j] = base - g_w[j]
        q = -(mat @ w + jac.T @ lam)
        inst = AVIInstance(q=q, mat=mat, jac=jac, g0=g0, box=box)
        sol = solve_avi_enumerate(inst)
        assert sol is not None
        x_plus, lam_plus, _ = sol
        residual = q + mat @ x_plus + jac.T @ lam_plus
        scale = 1.0 + np.linalg.norm(x_plus) + np.linalg.norm(lam_plus)
        assert np.linalg.norm(residual) <= 1e-9 * scale


def test_josephy_fails_on_ncp():
    report = josephy_newton(NCP, np.array([0.1]), lam0=np.zeros(1), tol=1e-12)
    assert report.status is Status.UNSOLVABLE_SUBPROBLEM
    assert report.iterations[-1].k == 0
    assert "iteration 0" in report.message


def test_josephy_rejects_more_than_six_bounds_before_any_callback():
    n = 7
    spec = AffineProblemSpec(
        name="nonpositive-7",
        m=np.eye(n),
        q=-np.ones(n),
        g_mat=np.eye(n),
        h=np.zeros(n),
        lower=np.full(n, -np.inf),
        upper=np.zeros(n),
    )
    problem = spec.build()
    calls = []
    traced = counting_callbacks(problem, calls)
    x0 = np.full(n, 0.3)
    with pytest.raises(CombinatorialBlowupError):
        josephy_newton(traced, x0)
    assert calls == []
    report = solve(problem, x0)
    assert report.status is Status.CONVERGED
    assert np.max(np.abs(report.final_x)) <= 1e-10


def test_josephy_rejects_a_wrong_length_multiplier_before_any_callback():
    calls = []
    traced = counting_callbacks(BOXVI, calls)
    for lam0 in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
        with pytest.raises(DimensionError):
            josephy_newton(traced, np.array([0.5, 0.5]), lam0=lam0)
    assert calls == []


def test_josephy_rejects_a_wrong_length_x0_before_any_callback():
    calls = []
    traced = counting_callbacks(BOXVI, calls)
    for x0 in ([0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]], 0.5):
        with pytest.raises(DimensionError, match="x0 has shape"):
            josephy_newton(traced, np.array(x0))
    assert calls == []


def test_josephy_rejects_a_bad_tol_or_max_iter_before_any_callback():
    calls = []
    traced = counting_callbacks(BOXVI, calls)
    for options in BAD_OPTIONS:
        with pytest.raises(InvalidOptionError):
            josephy_newton(traced, np.array([0.3, 0.3]), **options)
    assert calls == []


def test_josephy_on_affine_problem():
    report = josephy_newton(BOXVI, np.array([0.3, 0.3]), tol=1e-10)
    assert report.status is Status.CONVERGED
    assert np.linalg.norm(report.final_x) <= 1e-10
    assert len(report.iterations) <= 3


def test_josephy_exact_start():
    report = josephy_newton(BOXVI, np.zeros(2), tol=1e-10)
    assert report.status is Status.CONVERGED
    assert len(report.iterations) <= 2


def test_methods_agree_when_both_converge():
    tol = 1e-10
    cases = [
        (BOXVI, np.array([0.3, 0.3])),
        (BOXVI, np.array([-0.2, 0.4])),
        (get_problem("ncp-paper-affine"), np.array([-0.4])),
    ]
    for problem, x0 in cases:
        ours = solve(problem, x0, tol=tol)
        theirs = josephy_newton(problem, x0, tol=tol)
        assert ours.status is Status.CONVERGED
        assert theirs.status is Status.CONVERGED
        gap = np.linalg.norm(np.array(ours.final_x) - np.array(theirs.final_x))
        assert gap <= 10 * tol
