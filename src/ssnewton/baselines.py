"""Comparison methods: classical nonsmooth Newton and Josephy-Newton.

The Josephy subproblem (the partial linearization that keeps the normal-cone
map unlinearized) is an affine variational inequality.  At desk scale we
solve it by enumerating activity patterns, which doubles as a certificate:
when no pattern admits a KKT point, the subproblem provably has no solution.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import (
    BoxSet,
    enumerate_box_patterns,
    guard_pattern_enumeration,
    pattern_admits,
    pattern_summary,
)
from .errors import DimensionError, EvaluationError, UnsolvableSubproblemError
from .linalg import solve_dense
from .newton import approximation_step, drive
from .problems import eval_f, eval_g, eval_jg, lagrangian_jacobian


@dataclass(frozen=True, eq=False)
class NonsmoothSystem:
    """A Lipschitz system F(x) = 0 with a selectable generalized Jacobian."""

    n: int
    eval: Callable
    jacobian_element: Callable  # x -> one element of the generalized Jacobian


def nonsmooth_newton(system, x0, tol=1e-10, max_iter=50):
    """Iterate x+ = x - A^{-1} F(x) with A drawn from the generalized Jacobian.

    An invalid F(x) or Jacobian element (wrong shape, non-finite entries)
    ends the run with status EVALUATION_FAILED, a singular A with
    SINGULAR_NEWTON_SYSTEM; nothing is raised.  Only an x0 not of shape (n,)
    raises, :class:`DimensionError`, and a tol that is not finite and
    positive or a max_iter below 0, :class:`InvalidOptionError`, all at
    entry (see :func:`ssnewton.newton.drive`).
    """

    def measure(x):
        fx = np.asarray(system.eval(x), dtype=float)
        if fx.shape != (system.n,) or not np.isfinite(fx).all():
            raise EvaluationError(f"system value is invalid: {fx!r}")
        return float(np.linalg.norm(fx)), None, None, (x, fx)

    def direction(state, k):
        x, fx = state
        jx = np.asarray(system.jacobian_element(x), dtype=float)
        if jx.shape != (system.n, system.n) or not np.isfinite(jx).all():
            raise EvaluationError(f"jacobian element is invalid: {jx!r}")
        return solve_dense(jx, -fx)

    return drive(x0, system.n, measure, direction, tol, max_iter)


@dataclass(frozen=True, eq=False)
class AVIInstance:
    """Linearized inclusion 0 = q + M(x+ - x) + Jg^T lam+, lam+ in N_D(g0 + Jg(x+ - x))."""

    q: np.ndarray
    mat: np.ndarray  # M, n x n
    jac: np.ndarray  # Jg, s x n
    g0: np.ndarray
    box: BoxSet
    base: np.ndarray = None  # the linearization point x; zeros when omitted

    def __post_init__(self):
        base = np.zeros(self.q.shape[0]) if self.base is None else np.asarray(self.base, float)
        object.__setattr__(self, "base", base)


def solve_avi_enumerate(instance, tol=1e-9):
    """First activity pattern (in deterministic order) with a valid KKT point.

    Returns (x_plus, lam_plus, pattern) or None when no pattern is accepted,
    which certifies that the affine subproblem has no solution.  Singular
    pattern systems, and those whose residual is not at most 1e-8 x scale
    (a NaN residual included), are skipped, not errors.
    """
    n = instance.q.shape[0]
    s = instance.g0.shape[0]
    scale = max(
        1.0,
        float(np.max(np.abs(instance.q))),
        float(np.max(np.abs(instance.mat))),
        float(np.max(np.abs(instance.jac))) if instance.jac.size else 0.0,
    )
    for combo in enumerate_box_patterns(instance.box):
        pattern = tuple(kind for kind, _ in combo)
        act = np.flatnonzero(pattern)
        size = n + len(act)
        kkt = np.zeros((size, size))
        rhs = np.zeros(size)
        kkt[:n, :n] = instance.mat
        kkt[:n, n:] = instance.jac[act].T
        kkt[n:, :n] = instance.jac[act]
        rhs[:n] = -instance.q
        rhs[n:] = [combo[j][1] - instance.g0[j] for j in act]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.max(np.abs(kkt @ sol - rhs)) <= 1e-8 * scale:
            continue  # nearly singular system, numerically untrustworthy (or NaN)
        w = sol[:n]
        lam = np.zeros(s)
        lam[act] = sol[n:]
        if not pattern_admits(pattern, lam, tol):
            continue
        d = instance.g0 + instance.jac @ w
        if np.any(d < instance.box.lower - tol) or np.any(d > instance.box.upper + tol):
            continue
        return instance.base + w, lam, pattern
    return None


def josephy_newton(problem, x0, lam0=None, tol=1e-10, max_iter=50):
    """Josephy-Newton on the multiplier formulation of the inclusion.

    Each iteration linearizes only the single-valued part and solves the
    resulting affine variational inequality by enumeration.  When the
    subproblem is certified unsolvable the run stops with status
    UNSOLVABLE_SUBPROBLEM; like every solver-level failure it is reported,
    never raised.  A subproblem matrix Jf + Hg that overflows ends the run
    EVALUATION_FAILED, as in :func:`ssnewton.newton.newton_workspace`.
    lam0 defaults to the approximation-step multiplier at x0; later iterates
    carry the subproblem's multiplier.

    Precondition: the subproblem is solved by enumerating activity patterns,
    so the box may have at most 6 coordinates.  A larger box raises
    :class:`CombinatorialBlowupError` at entry, before any callback runs; it
    is a size limit of this baseline, not a solver-level failure.  An x0 not
    of shape (n,) or a lam0 not of shape (s,) raises :class:`DimensionError`
    there too, and a tol or max_iter out of its domain raises
    :class:`InvalidOptionError`.  Each approximation step's QP is seeded
    with its violated rows (see :func:`ssnewton.newton.approximation_step`).
    """
    guard_pattern_enumeration(problem.box)
    lam = None if lam0 is None else np.asarray(lam0, dtype=float)
    if lam is not None and lam.shape != (problem.s,):
        raise DimensionError(f"lam0 has shape {lam.shape}, expected ({problem.s},)")

    def measure(x):
        nonlocal lam
        approx = approximation_step(problem, x)
        if lam is None:
            lam = approx.lam_hat
        return float(np.linalg.norm(approx.u_hat)), lam, pattern_summary(approx.pattern), x

    def direction(x, k):
        nonlocal lam
        mat = lagrangian_jacobian(problem, x, lam)
        if not np.isfinite(mat).all():  # a sum of finite arrays overflows to +-inf
            raise EvaluationError(f"{problem.name}: Jf + Hg overflows")
        avi = AVIInstance(
            q=eval_f(problem, x),
            mat=mat,
            jac=eval_jg(problem, x),
            g0=eval_g(problem, x),
            box=problem.box,
            base=x,
        )
        sol = solve_avi_enumerate(avi)
        if sol is None:
            raise UnsolvableSubproblemError(
                f"the affine subproblem at iteration {k} has no solution"
            )
        x_new, lam, _ = sol
        return x_new - x  # x + (x_new - x) == x_new except in rare rounding ties

    return drive(x0, problem.n, measure, direction, tol, max_iter)
