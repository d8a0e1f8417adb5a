"""The semismooth* Newton method for box generalized equations.

One outer iteration is: (1) an approximation step, the strictly convex QP
that projects the current iterate onto the graph of the reformulated
inclusion and delivers a multiplier, then (2) a Newton step solving one
n x n linear system.  With W a basis of the normal-cone span at the
predicted point, C = W^T Jg its active rows and Z an orthonormal basis of
ker C, that system is [Z^T JL; C] s = [-Z^T y_p; -W^T y_g] up to a scaling
of each C row.  It is assembled without Z: Q1 from the reduced QR
C^T = Q1 R projects JL onto range(C^T) and replaces that part by the
row-equilibrated border alpha D^{-1} C, where D holds the row norms of C
and alpha = max(1, max |JL|).  C and its QR are the QP's: the QP's
:class:`ssnewton.linalg.RowFactor` of its tight rows holds both, its
rank verdict serves both the QP's degeneracy flag and the step's, and the
next QP's seed reuses it while the rows stay the same, so one active set
costs one factorization.  The outer loop,
:func:`drive`, is shared with the baselines: each method supplies only how
to measure an iterate and how to step from it.

The module also assembles the full (n+s)-dimensional linearization pair
(A, B) and its closed-form inverse from Z (:func:`nullspace_basis`).  These
are redundant for solving -- the n x n system is algebraically equivalent --
and serve as cross-check oracles for it.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .cones import basis_for_pattern, pattern_summary
from .errors import (
    DegeneracyError,
    DimensionError,
    EvaluationError,
    InvalidOptionError,
    NonconvergenceError,
    QPInfeasibleError,
    RankDeficiencyError,
    SingularMatrixError,
    UnsolvableSubproblemError,
)
from .linalg import RowFactor, nullspace_basis, pseudo_inverse_full_row_rank, solve_dense
from .problems import eval_f, eval_g, eval_jg, lagrangian_jacobian
from .qp import QPInstance, solve_qp, violated_guess
from .reports import IterationRecord, SolveReport, Status


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """A point on the graph of the reformulated inclusion, with multiplier.

    ``y_hat`` stacks the two residual blocks (Lagrangian value, g(x) - d);
    by the QP optimality conditions it equals (-u_hat, -Jg(x) u_hat).
    ``pattern`` is the exact activity pattern reported by the QP solver,
    ``jac_g`` the Jg(x) the QP was built from and ``factor`` the QP's
    active rows C = W^T Jg with their reduced QR (``QPSolution.factor``).
    """

    x_hat: np.ndarray
    d_hat: np.ndarray
    lam_hat: np.ndarray
    p_star: np.ndarray
    y_hat: np.ndarray
    u_hat: np.ndarray
    pattern: tuple
    jac_g: np.ndarray
    factor: RowFactor

    @property
    def q1(self):
        """Orthonormal basis Q1 of range(C^T), the Q of the QP's C^T = Q1 R.

        Raises :class:`DegeneracyError` when the QP's rank test
        (:func:`ssnewton.linalg.require_full_row_rank`) found C rank
        deficient, that is exactly when ``QPSolution.degenerate_multiplier``
        was set; no second rank test is made.
        """
        if self.factor.deficiency is not None:
            raise _degeneracy(self.factor.deficiency) from self.factor.deficiency
        return self.factor.q


@dataclass(frozen=True, eq=False)
class NewtonWorkspace:
    w: np.ndarray  # basis of span N_D(d_hat), one signed unit per active coord
    q1: np.ndarray  # orthonormal basis of range((w^T Jg)^T)
    reduced_matrix: np.ndarray
    reduced_rhs: np.ndarray


def approximation_step(problem, x, guess=None):
    """Solve QP(x) and package the induced graph point and multiplier.

    ``guess``, an earlier :class:`ApproxResult` (in :func:`solve`, the
    previous iterate's), seeds the QP's active set with its pattern and
    multiplier; without one, the QP is seeded with the rows violated at its
    unconstrained minimum (:func:`violated_guess`).  The guess's factor goes
    with it, so the seed reuses that QR when the guessed rows have not
    changed.  The QP's solution does not depend on the seed.
    """
    x = np.asarray(x, dtype=float)
    c = eval_f(problem, x)
    b = eval_g(problem, x)
    jac = eval_jg(problem, x)
    seed = None if guess is None else (guess.pattern, guess.lam_hat, guess.factor)
    instance = QPInstance(c=c, b=b, jac=jac, box=problem.box, guess=seed)
    if guess is None:
        instance = dataclasses.replace(instance, guess=violated_guess(instance))
    qp = solve_qp(instance)
    d_hat = b + jac @ qp.u
    p_star = c + jac.T @ qp.lam
    return ApproxResult(
        x_hat=x,
        d_hat=d_hat,
        lam_hat=qp.lam,
        p_star=p_star,
        y_hat=np.concatenate([p_star, b - d_hat]),
        u_hat=qp.u,
        pattern=qp.active,
        jac_g=jac,
        factor=qp.factor,
    )


def _degeneracy(exc):
    """The :class:`DegeneracyError` for a rank deficiency of the active rows."""
    return DegeneracyError(f"point is degenerate: active rows of Jg lost rank ({exc})")


def _geometry(problem, approx):
    """W, Z = nullspace_basis(W^T Jg), Jg and JL for the oracles."""
    jac_g = approx.jac_g
    jac_l = lagrangian_jacobian(problem, approx.x_hat, approx.lam_hat)
    w = basis_for_pattern(approx.pattern)
    try:
        z = nullspace_basis(w.T @ jac_g)
    except RankDeficiencyError as exc:
        raise _degeneracy(exc) from exc
    return w, z, jac_g, jac_l


def newton_workspace(problem, approx, out=None):
    """The n x n Newton system M s = rhs at the output of the approximation step.

    With C = W^T Jg, C^T = Q1 R, D = diag(||C_i||) and
    alpha = max(1, max |JL|):
    M = JL - Q1 (Q1^T JL - alpha D^{-1} C) and
    rhs = Q1 (Q1^T y_p - alpha D^{-1} W^T y_g) - y_p.
    For U = [Z Q1], U^T M = [Z^T JL; alpha D^{-1} C] and
    U^T rhs = [-Z^T y_p; -alpha D^{-1} W^T y_g]: the reduced system with
    each C row rescaled, so the step is the same.  Its singular values do
    not depend on the row scale of C, and the border is scaled to JL, so
    rounding in the projection of JL does not swamp a small C row.  C and
    Q1 (``approx.q1``) come from the QP's factor: no QR is taken here, and
    a :class:`DegeneracyError` is raised exactly when the QP set
    ``degenerate_multiplier``.  alpha is read from max and min of JL (no
    |JL| copy); a JL that overflowed to +-inf raises
    :class:`EvaluationError`.  JL is summed into ``out`` when one is given
    (see :func:`lagrangian_jacobian`), and M overwrites JL in that array
    with the operations of the out-of-place expression, in the same order.
    """
    n = problem.n
    jac_l = lagrangian_jacobian(problem, approx.x_hat, approx.lam_hat, out)
    w = basis_for_pattern(approx.pattern)
    c = approx.factor.rows
    q1 = approx.q1
    alpha = max(1.0, float(max(jac_l.max(), -jac_l.min())))
    if alpha == np.inf:  # a sum of finite arrays overflows to +-inf, never NaN
        raise EvaluationError(f"{problem.name}: Jf + Hg overflows")
    scale = alpha / np.linalg.norm(c, axis=1)
    y_p = approx.y_hat[:n]
    with np.errstate(over="ignore", invalid="ignore"):  # newton_step checks M
        matrix = np.subtract(jac_l, q1 @ (q1.T @ jac_l - scale[:, None] * c), out=jac_l)
    rhs = q1 @ (q1.T @ y_p - scale * (w.T @ approx.y_hat[n:])) - y_p
    return NewtonWorkspace(w=w, q1=q1, reduced_matrix=matrix, reduced_rhs=rhs)


def newton_step(workspace):
    """Direction s solving the Newton system; raises on a singular system.

    A non-finite M, which projecting a finite JL near the float range can
    give, raises :class:`EvaluationError`.
    """
    try:
        return solve_dense(workspace.reduced_matrix, workspace.reduced_rhs)
    except DimensionError as exc:  # the workspace's shapes agree by construction
        raise EvaluationError(f"Newton system overflows: {exc}") from exc


def assemble_full_ab(problem, approx):
    """The (n+s) x (n+s) linearization pair (A, B), assembled blockwise."""
    n, s = problem.n, problem.s
    w, z, jac_g, jac_l = _geometry(problem, approx)
    m = w.shape[1]
    a = np.zeros((n + s, n + s))
    b = np.zeros((n + s, n + s))
    a[: n - m, :n] = z.T @ jac_l
    a[n - m : n, :n] = w.T @ jac_g
    a[n:, :n] = jac_g
    a[n:, n:] = -np.eye(s)
    b[: n - m, :n] = z.T
    b[n - m : n, n:] = w.T
    b[n:, n:] = np.eye(s)
    return a, b


def closed_form_inverse(problem, approx):
    """Explicit inverse of the linearization matrix A.

    Valid whenever the reduced Lagrangian block G = Z^T JL Z is regular and
    the active rows W^T Jg have full row rank; built from G^{-1} and the
    Moore-Penrose inverse of W^T Jg.
    """
    n, s = problem.n, problem.s
    w, z, jac_g, jac_l = _geometry(problem, approx)
    m = w.shape[1]
    g_mat = z.T @ jac_l @ z
    try:
        g_inv = solve_dense(g_mat, np.eye(n - m))
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"reduced Lagrangian block is singular: {exc}") from exc
    c_dag = pseudo_inverse_full_row_rank(w.T @ jac_g)
    top_left = z @ g_inv
    top_mid = (np.eye(n) - top_left @ z.T @ jac_l) @ c_dag
    inv = np.zeros((n + s, n + s))
    inv[:n, : n - m] = top_left
    inv[:n, n - m : n] = top_mid
    inv[n:, : n - m] = jac_g @ top_left
    inv[n:, n - m : n] = jac_g @ top_mid
    inv[n:, n:] = -np.eye(s)
    return inv


def full_step_oracle(problem, approx):
    """Newton direction computed as -(A^{-1} B y)_x; equals the reduced path."""
    _, b = assemble_full_ab(problem, approx)
    inv = closed_form_inverse(problem, approx)
    full = -(inv @ (b @ approx.y_hat))
    return full[: problem.n]


# solver-level errors and the status each one ends a run with
_STATUS_OF = {
    QPInfeasibleError: Status.QP_INFEASIBLE,
    DegeneracyError: Status.SINGULAR_NEWTON_SYSTEM,
    SingularMatrixError: Status.SINGULAR_NEWTON_SYSTEM,
    UnsolvableSubproblemError: Status.UNSOLVABLE_SUBPROBLEM,
    EvaluationError: Status.EVALUATION_FAILED,
    NonconvergenceError: Status.SUBPROBLEM_NONCONVERGENCE,
}


def _failure(phase, k, exc):
    """Status and message for a solver-level error raised in one phase.

    Invalid callback output and a capped subproblem do not say where they
    happened, so their message names the phase and iteration.
    """
    status = next(s for kind, s in _STATUS_OF.items() if isinstance(exc, kind))
    if isinstance(exc, (EvaluationError, NonconvergenceError)):
        return status, f"{phase} step at iteration {k}: {exc}"
    return status, str(exc)


def drive(x0, n, measure, direction, tol, max_iter):
    """The outer iteration shared by every method.

    ``measure(x)`` returns (residual, multiplier or None, branch or None,
    state) at the iterate; ``direction(state, k)`` returns the step.  The run
    stops when the residual is at most tol, at max_iter, or when either call
    raises a solver-level error (infeasible QP, singular or degenerate
    Newton system, unsolvable subproblem, invalid callback output, QP update
    cap): that error becomes the report's status and is not raised.  An x0
    not of shape (n,) is a caller error: it raises :class:`DimensionError`
    before the first call.  So do a tol that is not finite and positive
    (``residual <= nan`` never holds, so a NaN tol would turn an exact
    solution into MAX_ITER) and a max_iter below 0: they raise
    :class:`InvalidOptionError`.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise DimensionError(f"x0 has shape {x.shape}, expected ({n},)")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidOptionError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise InvalidOptionError(f"max_iter must be at least 0, got {max_iter!r}")
    records = []
    prev_step = 0.0
    message = ""
    k = 0
    while True:
        try:
            residual, lam, branch, state = measure(x)
        except tuple(_STATUS_OF) as exc:
            status, message = _failure("approximation", k, exc)
            break
        if lam is not None:
            lam = tuple(float(v) for v in lam)
        step = None
        if residual <= tol:
            status = Status.CONVERGED
        elif k >= max_iter:
            status = Status.MAX_ITER
        else:
            try:
                step = direction(state, k)
            except tuple(_STATUS_OF) as exc:
                status, message = _failure("direction", k, exc)
        if step is None:  # the run ends here, with a zero-step record
            records.append(
                IterationRecord(k, tuple(map(float, x)), residual, 0.0, lam, branch)
            )
            break
        step_norm = float(np.linalg.norm(step))
        rate = step_norm / prev_step**2 if prev_step > 0 else None
        records.append(
            IterationRecord(
                k, tuple(map(float, x)), residual, step_norm, lam, branch, rate
            )
        )
        x = x + step
        prev_step = step_norm
        k += 1
    return SolveReport(
        status=status,
        iterations=tuple(records),
        final_x=tuple(float(v) for v in x),
        message=message,
    )


def solve(problem, x0, tol=1e-10, max_iter=50, approximation=approximation_step):
    """Run the Newton iteration from x0 until ||u_hat|| <= tol.

    The residual proxy ||u_hat|| vanishes exactly at solutions of the
    inclusion, so it doubles as the stopping test.  Solver-level failures
    are reported in the returned status, never raised (see :func:`drive`).
    ``approximation(problem, x, guess)`` replaces the approximation step,
    e.g. to trace it; it is called with three positional arguments, the
    guess being the previous iteration's result (None at the first), so a
    replacement that drops the guess seeds every QP with its violated rows
    (see :func:`approximation_step`).  An x0 that is not of shape (n,)
    raises :class:`DimensionError` before any callback runs, and a tol or
    max_iter out of its domain raises :class:`InvalidOptionError` there.
    Each step refills the previous step's M with JL and then M
    (:func:`newton_workspace`), so a solve keeps one n x n array for both:
    freeing and regrowing one per step made glibc trim the heap and fault
    it back in at every step.  Callback arrays are never written into.
    """
    previous = matrix = None

    def measure(x):
        nonlocal previous
        approx = previous = approximation(problem, x, previous)
        residual = float(np.linalg.norm(approx.u_hat))
        return residual, approx.lam_hat, pattern_summary(approx.pattern), approx

    def direction(approx, k):
        nonlocal matrix
        workspace = newton_workspace(problem, approx, matrix)
        matrix = workspace.reduced_matrix
        return newton_step(workspace)

    return drive(x0, problem.n, measure, direction, tol, max_iter)
