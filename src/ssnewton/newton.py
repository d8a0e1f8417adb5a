"""The semismooth* Newton method for box generalized equations.

One outer iteration is: (1) an approximation step, the strictly convex QP
that projects the current iterate onto the graph of the reformulated
inclusion and delivers a multiplier, then (2) a Newton step solving one
n x n linear system.  With W a basis of the normal-cone span at the
predicted point, C = W^T Jg its active rows and Z an orthonormal basis of
ker C, that system is [Z^T JL; C] s = [-Z^T y_p; -W^T y_g] up to a scaling
of each C row.

When every row of C has exactly one nonzero, C[i, t_i], in distinct
columns T = {t_i} (coordinate rows, as for g(x) = x in the NCP and obstacle
class), Z = I[:, F] is known exactly, F being the other columns, and the
system splits: s_T = -(W^T y_g)_i / C[i, t_i] and
JL[F, F] s_F = -y_p[F] - JL[F, T] s_T.  JL[F, F] is the block
:func:`ssnewton.problems.check_second_order` and :func:`closed_form_inverse`
take as the regularity object; the step solves it with
:func:`ssnewton.linalg.solve_dense`, whose probes certify it, and makes no
LAPACK call when F is empty.  Any other C is solved in the bordered form
below.

The bordered system is assembled without Z: Q1 from the reduced QR
C^T = Q1 R projects JL onto range(C^T) and replaces that part by the
row-equilibrated border alpha D^{-1} C, where D holds the row norms of C
and alpha = max(1, max |JL|).  C and its QR are the QP's: the QP's
:class:`ssnewton.linalg.RowFactor` of its tight rows holds both, its
rank verdict serves both the QP's degeneracy flag and the step's, and the
next QP's seed reuses it while the rows stay the same, so one active set
costs one factorization.  W is not formed on the solve path: W^T y is the
tight entries of y times their signs, and D is the factor's cached row
norms; the tight entries and their signs are the QP's
(``QPSolution.tight``), so no pattern is read again.  Each value is
checked once per iteration: f, g and Jg for
finiteness by the QP instance, Jf and Hg through the max and min of JL
that alpha needs, and M through the max and min of its pivot tolerance;
only a failed check reads the values again, to name the callback and its
first bad entry.  The outer loop,
:func:`drive`, is shared with the baselines: each method supplies only how
to measure an iterate and how to step from it.

The module also assembles the full (n+s)-dimensional linearization pair
(A, B) and its closed-form inverse from Z (:func:`nullspace_basis`).  These
are redundant for solving -- the n x n system is algebraically equivalent --
and serve as cross-check oracles for it.
"""

import math
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
from .problems import _check_reads, _lagrangian_jacobian_and_max, _read, lagrangian_jacobian
from .qp import QPInstance, _violated_guess, solve_qp
from .reports import IterationRecord, SolveReport, Status


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """A point on the graph of the reformulated inclusion, with multiplier.

    ``y_hat`` stacks the two residual blocks (Lagrangian value, g(x) - d);
    by the QP optimality conditions it equals (-u_hat, -Jg(x) u_hat).
    ``pattern`` is the exact activity pattern reported by the QP solver,
    ``jac_g`` the Jg(x) the QP was built from and ``factor`` the QP's
    active rows C = W^T Jg with their reduced QR (``QPSolution.factor``).
    ``tight`` and ``tight_signs`` are the QP's tight coordinates and their
    normal signs, so W^T y = tight_signs * y[tight].
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
    tight: np.ndarray
    tight_signs: np.ndarray

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
    q1: np.ndarray  # orthonormal basis of range(C^T), C = W^T Jg the tight rows
    reduced_matrix: np.ndarray  # M (n x n), or JL[F, F] on coordinate rows
    reduced_rhs: np.ndarray
    jac_l: np.ndarray  # the n x n array JL was summed into (and M written over)
    # on coordinate rows, the free columns F, the tight rows' columns T and
    # s_T; None for the bordered system
    free: np.ndarray = None
    columns: np.ndarray = None
    column_step: np.ndarray = None


def approximation_step(problem, x, guess=None):
    """Solve QP(x) and package the induced graph point and multiplier.

    ``guess``, an earlier :class:`ApproxResult` (in :func:`solve`, the
    previous iterate's), seeds the QP's active set with its pattern and
    multiplier; without one, the QP is seeded with the rows violated at its
    unconstrained minimum (:func:`violated_guess`).  The guess's factor goes
    with it, so the seed reuses that QR when the guessed rows have not
    changed.  The QP's solution does not depend on the seed.

    f, g and Jg are checked once: each shape as its callback returns, and
    their finiteness by :class:`QPInstance`.  When it rejects them, they
    are read again in that order by the checks of ``eval_f``, ``eval_g``
    and ``eval_jg``, so the error names the callback and its first
    non-finite entry as those do.
    """
    x = np.asarray(x, dtype=float)
    reads = _read(problem, ("f", "g", "jg"), x)
    c, b, jac = (value for value, _, _ in reads)
    if guess is None:
        with np.errstate(over="ignore", invalid="ignore"):  # used only if QPInstance accepts
            seed = _violated_guess(c, b, jac, problem.box)
    else:
        seed = (guess.pattern, guess.lam_hat, guess.factor)
    try:
        instance = QPInstance(c=c, b=b, jac=jac, box=problem.box, guess=seed)
    except DimensionError:
        _check_reads(reads)
        raise
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
        tight=qp.tight,
        tight_signs=qp.tight_signs,
    )


def _norm(v):
    """np.linalg.norm of a vector, bit for bit and without its overhead.

    Like it, this is the BLAS dot product of a contiguous copy: BLAS sums a
    strided vector, such as a column of :func:`solve_dense`'s solution, in
    another order.
    """
    v = v.ravel()
    return math.sqrt(v @ v)


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
    """The Newton system at the output of the approximation step.

    With C = W^T Jg, C^T = Q1 R, D = diag(||C_i||) and
    alpha = max(1, max |JL|), the bordered system is M s = rhs with
    M = JL - Q1 (Q1^T JL - alpha D^{-1} C) and
    rhs = Q1 (Q1^T y_p - alpha D^{-1} W^T y_g) - y_p.
    For U = [Z Q1], U^T M = [Z^T JL; alpha D^{-1} C] and
    U^T rhs = [-Z^T y_p; -alpha D^{-1} W^T y_g]: the reduced system with
    each C row rescaled, so the step is the same.  Its singular values do
    not depend on the row scale of C, and the border is scaled to JL, so
    rounding in the projection of JL does not swamp a small C row.  When
    every row of C has one nonzero
    (:attr:`ssnewton.linalg.RowFactor.coordinates`), the workspace holds
    the free-coordinate system of the module docstring instead: JL[F, F],
    its rhs and s_T, with no n x n product.  C and Q1 (``approx.q1``) come
    from the QP's factor: no QR is taken here, and a
    :class:`DegeneracyError` is raised exactly when the QP set
    ``degenerate_multiplier``.  alpha is read from the max and min of JL
    that also check Jf and Hg for finiteness (no |JL| copy); a JL that
    overflowed to +-inf raises :class:`EvaluationError`.  Both verdicts
    come before either system is formed.  D comes from the
    factor (:attr:`ssnewton.linalg.RowFactor.row_norms`), and W^T y_g is
    read from the QP's tight indices and signs (``approx.tight``,
    ``approx.tight_signs``), with no dense W.  JL is summed into
    ``out`` when one is given (see :func:`lagrangian_jacobian`), and M
    overwrites JL in that array with the operations of the out-of-place
    expression, in the same order; JL[F, F] is a copy, gathered rows first.
    """
    n = problem.n
    jac_l, top = _lagrangian_jacobian_and_max(problem, approx.x_hat, approx.lam_hat, out)
    q1 = approx.q1
    alpha = max(1.0, top)
    if alpha == np.inf:  # a sum of finite arrays overflows to +-inf, never NaN
        raise EvaluationError(f"{problem.name}: Jf + Hg overflows")
    y_p, y_g = approx.y_hat[:n], approx.y_hat[n:]
    w_y = approx.tight_signs * y_g[approx.tight]  # W^T y_g
    coordinates = approx.factor.coordinates
    if coordinates is not None:
        columns, entries, free = coordinates
        rows = matrix = jac_l  # no row is tight: JL[F, F] is JL
        if free.size < n:
            rows = jac_l[free]
            matrix = rows[:, free]
        with np.errstate(over="ignore", invalid="ignore"):  # the step is the caller's to check
            shift = w_y / entries  # -s_T
            rhs = rows[:, columns] @ shift - y_p[free]
        return NewtonWorkspace(q1=q1, reduced_matrix=matrix, reduced_rhs=rhs, jac_l=jac_l,
                               free=free, columns=columns, column_step=-shift)
    c, scale = approx.factor.rows, alpha / approx.factor.row_norms
    with np.errstate(over="ignore", invalid="ignore"):  # newton_step checks M
        matrix = np.subtract(jac_l, q1 @ (q1.T @ jac_l - scale[:, None] * c), out=jac_l)
    rhs = q1 @ (q1.T @ y_p - scale * w_y) - y_p
    return NewtonWorkspace(q1=q1, reduced_matrix=matrix, reduced_rhs=rhs, jac_l=jac_l)


def newton_step(workspace):
    """Direction s solving the Newton system; raises on a singular system.

    On coordinate rows s_T is known and JL[F, F] s_F = rhs is solved, with
    no LAPACK call when F is empty; the two are scattered into one s.  A
    non-finite M, which projecting a finite JL near the float range can
    give, raises :class:`EvaluationError`.
    """
    free = workspace.free
    if free is None:
        try:
            return solve_dense(workspace.reduced_matrix, workspace.reduced_rhs)
        except DimensionError as exc:  # the workspace's shapes agree by construction
            raise EvaluationError(f"Newton system overflows: {exc}") from exc
    step = np.empty(workspace.jac_l.shape[0])
    step[workspace.columns] = workspace.column_step
    if free.size:  # JL[F, F] is a block of a checked JL: finite and square
        step[free] = solve_dense(workspace.reduced_matrix, workspace.reduced_rhs)
    return step


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
            lam = tuple(np.asarray(lam, dtype=float).tolist())
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
                IterationRecord(k, tuple(x.tolist()), residual, 0.0, lam, branch)
            )
            break
        step_norm = _norm(step)
        rate = step_norm / prev_step**2 if prev_step > 0 else None
        records.append(
            IterationRecord(
                k, tuple(x.tolist()), residual, step_norm, lam, branch, rate
            )
        )
        x = x + step
        prev_step = step_norm
        k += 1
    return SolveReport(
        status=status,
        iterations=tuple(records),
        final_x=tuple(x.tolist()),
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
    Each step refills the previous step's n x n array with JL, and the
    bordered system's M overwrites it (:func:`newton_workspace`), so a
    solve keeps one such array: freeing and regrowing one per step made
    glibc trim the heap and fault it back in at every step.  Callback
    arrays are never written into.
    """
    previous = jac_l = None

    def measure(x):
        nonlocal previous
        approx = previous = approximation(problem, x, previous)
        residual = _norm(approx.u_hat)
        return residual, approx.lam_hat, pattern_summary(approx.pattern), approx

    def direction(approx, k):
        nonlocal jac_l
        workspace = newton_workspace(problem, approx, jac_l)
        jac_l = workspace.jac_l
        return newton_step(workspace)

    return drive(x0, problem.n, measure, direction, tol, max_iter)
