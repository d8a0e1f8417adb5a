"""Strictly convex box-constrained QP: min 0.5||u||^2 + c.u  s.t.  b + C u in D.

Two solvers serve :func:`solve_qp`, chosen by the structure of C.  When
its rows have disjoint supports (each column of C has at most one nonzero,
as for g(x) = x and for coordinate constraints), the rows are exactly
orthogonal and the QP separates by row: with e = b - C c and
d = clip(e, lower, upper), row i's multiplier is (e_i - d_i) / ||C_i||^2
and u = -c - C^T lam (:func:`_separable_qp`).  That is the step of the
primal-dual active-set method of Hintermueller, Ito and Kunisch (SIAM J.
Optim. 13, 2002) being exact: no loop, no QR and no inversion.  A zero
row is infeasible exactly when e_i lies outside its interval, and that row
is the certificate.  Coupled rows, and rows whose squared norms leave the
normal floats, go to the second solver.

The second solver (:func:`_active_set_qp`) is a dual active-set method in
the Goldfarb-Idnani mold, specialized to an identity Hessian.  Cold, it
starts from the unconstrained minimum u = -c (always dual feasible),
repeatedly adds the most violated constraint with full dual updates, and
therefore needs no phase-1 point; an unbounded dual step doubles as an
infeasibility certificate.

Every finite bound is one row of a stacked matrix of upper-bound rows
(normal . u <= offset), built once per call, so the search for the most
violated row is one matrix-vector product with a per-row tolerance.  The
active normals B are kept as B = Q R with Q orthonormal, together with
R^-1: adding a row projects it out of Q twice (classical Gram-Schmidt with
reorthogonalization) and borders R^-1, both in O(n q); dropping a row
refactors the remaining rows.  The terminal subproblem is re-solved from a
fresh factor of the active rows (the polish), so the returned point
carries no error accumulated along the path.  The polish forms u in
range-space form, so nearly dependent rows with huge multipliers do not
cancel it off its bounds.  The returned pattern comes from
:func:`ssnewton.cones.activity` at b + C u, clipped to the box, with the
coordinate of every active row placed on its bound.

Every QR of active rows is a :class:`ssnewton.linalg.RowFactor` from
:func:`ssnewton.linalg.factor_rows`, and an equality point applies its
R^-1 as a product, so the QP makes no LU solve; for rows with disjoint
supports the factor has a closed form with R diagonal and R^-1 its
reciprocal diagonal, so it makes no QR and no inversion either.  Where a
factor is at hand whose rows are bitwise the rows wanted, it is used
instead of a new one (:func:`_factor_of`).  The tight rows of
the returned pattern, in coordinate order and signed by
:func:`ssnewton.cones.normal_signs` as the columns of
:func:`ssnewton.cones.basis_for_pattern` (-1 at a lower bound, +1 at an
upper bound or fixed), are the solution's factor in both solvers: the
guess's held factor when its rows are those (closed form), the polish's or
the seed's when its rows are those (known without comparing rows when the
active rows are the tight coordinates in order, with their signs), else a
new one.  Its verdict from
the one rank test, :func:`ssnewton.linalg.require_full_row_rank`, is
``degenerate_multiplier``, and the Newton step takes C, Q1 and its
degeneracy verdict from the same factor, so the two cannot disagree; it
takes the tight coordinates and their signs from the solution too
(``QPSolution.tight``, ``tight_signs``).  ``QPInstance`` holds Jg
C-ordered, so no product with it depends on the layout it came in.

Warm start (the active-set solver; the closed form needs no start and
reads only the guess's factor): an instance may carry a guess, the pattern
and multiplier of a nearby QP's solution (in the Newton method, the
previous iterate's).
Goldfarb and Idnani allow the dual method to start from any independent
active set whose equality subproblem has nonnegative multipliers, so the
guessed rows are solved as in the polish, rows with negative multipliers
are dropped, and the unchanged add/drop loop continues from there; it
still checks every row for violation.  When the guess's set is also the
answer, no step is taken and the guess's factor serves as the polish: the
call costs one violation scan and one equality point, since the loop's Q
and R^-1 buffers are made, and the seed's factor copied into them, only
at the first violated row, and the dependence floor is a verdict the
factor keeps (:attr:`ssnewton.linalg.RowFactor.dependent`), so a reused
factor is not tested again.  A guess with dependent rows, or with more
rows than unknowns, is ignored.
A guess may carry the factor of the solution it came from, which the seed
uses when the guessed rows are bitwise its rows, as they are for an
affine g whose pattern holds.
Only if the seeded run raises is the cold run made and its verdict
returned (which row certifies infeasibility depends on the path); a seeded
point is returned even where nearly dependent rows make the cold run raise.

Where no nearby solution is at hand, :func:`violated_guess` supplies one:
the rows violated at the cold start u = -c, with zero multipliers.  That
is one step of the Hintermueller-Ito-Kunisch method, itself a semismooth
Newton method (exact for disjoint rows, as above), and once the seed drops
its rows with negative multipliers it is a valid Goldfarb-Idnani start.
The Newton methods seed every QP that has no previous result this way; ``solve_qp`` without a guess still starts cold.

``brute_force_qp`` solves the same problem by enumerating every activity
pattern and serves as the independent oracle in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .cones import (
    Activity,
    BoxSet,
    _classify,
    activity,
    enumerate_box_patterns,
    normal_signs,
    pattern_admits,
    pattern_codes,
    pattern_of,
)
from .errors import DimensionError, EvaluationError, NonconvergenceError, QPInfeasibleError
from .linalg import DEP_REL_TOL, RowFactor, _disjoint_factor, disjoint_row_norms2, factor_rows


@dataclass(frozen=True, eq=False)
class QPInstance:
    c: np.ndarray  # linear term, f(x)
    b: np.ndarray  # constraint offset, g(x)
    jac: np.ndarray  # constraint matrix, Jg(x), shape (s, n)
    box: BoxSet
    # (activity pattern, box multiplier[, factor]) of a nearby QP's solution,
    # e.g. the previous outer iteration's; it only seeds the active set.  The
    # factor is that solution's RowFactor, stored as None when not given
    guess: tuple = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        jac = np.asarray(self.jac, dtype=float, order="C")  # so no product depends on its layout
        if jac.shape != (b.shape[0], c.shape[0]) or b.shape[0] != self.box.dim:
            raise DimensionError(
                f"inconsistent QP shapes: c {c.shape}, b {b.shape}, jac {jac.shape}"
            )
        for arr, label in ((c, "c"), (b, "b"), (jac, "jac")):
            if arr.size and not np.isfinite(arr).all():
                raise DimensionError(f"QP field {label} has non-finite entries")
            object.__setattr__(self, label, arr)
        if self.guess is not None:
            pattern, lam, factor = (*self.guess, None)[:3]
            if type(pattern) is not tuple:
                pattern = tuple(pattern)
            lam = np.asarray(lam, dtype=float)
            if len(pattern) != self.box.dim or lam.shape != (self.box.dim,):
                raise DimensionError(
                    f"guess has {len(pattern)} activities and multiplier {lam.shape}, "
                    f"box dimension is {self.box.dim}"
                )
            try:  # rejects entries that are not integers in range(256)
                valid = max(pattern_codes(pattern), default=0) <= Activity.FIXED
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise DimensionError("guess pattern entries must be activity codes 0-3")
            object.__setattr__(self, "guess", (pattern, lam, factor))

    @property
    def n(self):
        return self.c.shape[0]

    @property
    def s(self):
        return self.b.shape[0]


@dataclass(frozen=True, eq=False)
class QPSolution:
    u: np.ndarray
    lam: np.ndarray
    active: tuple  # activity pattern of b + C u
    # active-set steps taken (from the guess when warm); 0 for the closed form
    # of disjoint rows, which takes no step
    iterations: int
    # the active-set loop started from the instance's guess; always False for
    # the closed form, which needs no start
    warm: bool = False
    # RowFactor of the tight rows (see the module docstring); brute_force_qp
    # leaves it None, and the two fields below with it
    factor: RowFactor = None
    # the coordinates of the tight rows, ascending, and their normal signs
    # (normal_signs of ``active`` there), by which the factor's rows are signed
    tight: np.ndarray = None
    tight_signs: np.ndarray = None

    @property
    def degenerate_multiplier(self):
        """The tight rows are dependent, so the box multiplier is not unique."""
        return self.factor is not None and self.factor.deficiency is not None


def _finite_bounds(box):
    """(s, 2) mask of the finite bounds, upper bound in column 0."""
    return np.column_stack([np.isfinite(box.upper), np.isfinite(box.lower)])


def _rows(instance, finite):
    """Every finite bound as an upper-bound row normal . u <= offset.

    ``finite`` is ``_finite_bounds(instance.box)``.  Rows come in coordinate
    order, the upper bound of a coordinate before its lower bound; ``sign``
    is +1 for an upper and -1 for a lower row.
    """
    box = instance.box
    coord, side = np.nonzero(finite)
    upper = side == 0
    sign = np.where(upper, 1.0, -1.0)
    b = instance.b[coord]
    offset = np.where(upper, box.upper[coord] - b, b - box.lower[coord])
    return sign[:, None] * instance.jac[coord], offset, coord, sign


def _factor_of(rows, held, norms2=None):
    """``held`` when its rows are bitwise ``rows``, else the factor of ``rows``.

    ``norms2``, when given, is :func:`ssnewton.linalg.disjoint_row_norms2`
    of ``rows``, already read: with no zero row it gives the closed-form
    factor without testing the supports again.
    """
    if held is not None and np.array_equal(held.rows, rows):
        return held
    if norms2 is not None and norms2.all():
        return _disjoint_factor(rows, norms2)
    return factor_rows(rows)


def _equality_point(factor, targets, c):
    """u and multipliers of min 0.5||u||^2 + c.u  s.t.  C u = targets.

    C^T = Q R is ``factor``, and every triangular system here is a product
    with its R^-1.  u is formed in range-space form,
    u = -c + Q (Q^T c + R^-T targets), with one refinement on the targets;
    forming u = -c - C^T mu instead cancels when nearly dependent rows make
    the multipliers huge.  Then mu = -R^-1 Q^T (u + c).
    """
    q, r_inv = factor.q, factor.r_inv
    u = q @ (q.T @ c + r_inv.T @ targets) - c
    u += q @ (r_inv.T @ (targets - factor.rows @ u))
    return u, -(r_inv @ (q.T @ (u + c)))


def _seed(instance, finite, normals, offsets):
    """A dual-feasible start from ``instance.guess``, or None.

    AT_LOWER and AT_UPPER in the guessed pattern name the lower and upper
    row of their coordinate, FIXED the row the sign of the guessed
    multiplier picks (none at 0).  Rows with a negative multiplier on their
    equality subproblem are dropped and the rest re-solved until every
    multiplier is nonnegative; that is a valid Goldfarb-Idnani start.  Rows
    that fail the dependence floor (:attr:`ssnewton.linalg.RowFactor.dependent`)
    give None (the caller starts cold).  A pass uses the guess's factor when
    its rows are bitwise the guess's factored rows (see :func:`_factor_of`).
    Returns (active row indices as an array, their factor, u, multipliers).
    """
    pattern, lam, held = instance.guess
    codes = pattern_codes(pattern)  # read once: normal_signs takes the bytes as they are
    fixed = np.frombuffer(codes, np.int8) == int(Activity.FIXED)
    side = np.where(fixed, np.sign(lam), normal_signs(codes))  # +1 upper, -1 lower row
    wanted = np.column_stack([side > 0, side < 0])
    active = np.flatnonzero(wanted[finite])  # row indices
    while len(active) <= instance.n:
        factor = _factor_of(normals[active], held)
        if factor.dependent:
            return None
        u, mults = _equality_point(factor, offsets[active], instance.c)
        if not np.any(mults < 0.0):
            return active, factor, u, mults
        active = active[mults >= 0.0]
    return None  # more rows than unknowns: dependent


def violated_guess(instance):
    """The guess of the rows violated at the unconstrained minimum u = -c.

    At d = b - C c, AT_LOWER names the lower row of a coordinate below its
    lower bound and AT_UPPER the upper row of one above its upper bound (for
    a pinched coordinate, the one violated row); every other coordinate is
    INTERIOR.  The multipliers are zero.
    """
    return _violated_guess(instance.c, instance.b, instance.jac, instance.box)


def _violated_guess(c, b, jac, box):
    """:func:`violated_guess` from arrays already of the QP's shapes, so a
    caller can seed the instance it builds (QPInstance checks them there)."""
    d = b - jac @ c
    kinds = np.zeros(box.dim, np.int8)
    kinds[d < box.lower] = Activity.AT_LOWER
    kinds[d > box.upper] = Activity.AT_UPPER
    return pattern_of(kinds), np.zeros(box.dim)


def solve_qp(instance):
    """Global minimizer of the strictly convex QP, with box multiplier.

    When every column of Jg has at most one nonzero, the QP separates by
    row and :func:`_separable_qp` returns its closed form; any other Jg
    goes to the dual active-set method, :func:`_active_set_qp` (see the
    module docstring).  Raises :class:`QPInfeasibleError` when the
    constraints admit no point and :class:`NonconvergenceError` past
    100 (n + s) active-set updates.  Finite c, b and Jg can still give an
    e = b - Jg c, the constraint value at the unconstrained minimum, that
    overflows; that raises :class:`EvaluationError` naming the first such
    row, before either solver runs, and no RuntimeWarning.
    """
    solution = _separable_qp(instance, _offset(instance))
    return _active_set_qp(instance) if solution is None else solution


def _offset(instance):
    """e = b - Jg c, checked finite: :func:`solve_qp`'s overflow test."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        e = instance.b - instance.jac @ instance.c
    finite = np.isfinite(e)
    if not finite.all():
        raise EvaluationError(
            f"the QP's offset b - Jg c overflows at row {int(np.argmin(finite))}"
        )
    return e


def _separable_qp(instance, e):
    """The QP of rows with disjoint supports, in closed form; None for other rows.

    Such rows are exactly orthogonal, so the QP is one problem per row:
    with e = b - Jg c (:func:`_offset`) and d = clip(e, lower, upper), row
    i's multiplier is (e_i - d_i) / ||row_i||^2, u = -c - Jg^T lam and
    b + Jg u = d.  A zero row has multiplier 0 when e_i lies in its
    interval and is infeasible otherwise: that row is the certificate.  The
    pattern is ``activity(d, box)``, read without its inside test, which a
    finite point clipped to the box cannot fail
    (:func:`ssnewton.cones._classify`); ``iterations`` is 0 and ``warm``
    False, and the factor is the tight rows' (the guess's when its rows are
    those), built from the squared norms already read, so the supports are
    tested once.  Rows whose squared norms leave the normal floats give
    None (see :func:`ssnewton.linalg.disjoint_row_norms2`).
    """
    c, jac, box = instance.c, instance.jac, instance.box
    norms2 = disjoint_row_norms2(jac)
    if norms2 is None:
        return None
    d = np.minimum(np.maximum(e, box.lower), box.upper)
    gap = e - d
    zero = norms2 == 0.0
    if zero.any():
        cut = zero & (gap != 0.0)
        if cut.any():
            i = int(np.argmax(cut))
            side = "U" if gap[i] > 0.0 else "L"
            raise QPInfeasibleError(
                f"constraint {side} on coordinate {i} cannot be met: its row of Jg is zero",
                constraint=(i, side),
            )
        lam = np.divide(gap, norms2, out=np.zeros(instance.s), where=~zero)
    else:
        lam = gap / norms2
    u = -c - jac.T @ lam
    pattern = _classify(d, box)
    signed = normal_signs(pattern)
    tight = np.flatnonzero(signed)
    signs = signed[tight]
    held = None if instance.guess is None else instance.guess[2]
    # a tight row's squared norm is bitwise Jg's (see disjoint_row_norms2)
    factor = _factor_of(signs[:, None] * jac[tight], held, norms2[tight])
    return QPSolution(u=u, lam=lam, active=pattern, iterations=0, factor=factor,
                      tight=tight, tight_signs=signs)


def _active_set_qp(instance):
    """The dual active-set method (see the module docstring), for any Jg.

    Infeasibility is certified by an unbounded dual step.  With
    ``instance.guess`` set, the loop starts from the guess's rows and
    ``iterations`` counts only the steps taken from there.
    """
    finite = _finite_bounds(instance.box)
    rows = _rows(instance, finite)
    if instance.guess is not None:
        seed = _seed(instance, finite, *rows[:2])
        if seed is not None:
            try:
                return _dual_active_set(instance, rows, seed)
            except (QPInfeasibleError, NonconvergenceError):
                pass  # verdicts come from the cold path only
    return _dual_active_set(instance, rows, None)


def _dual_active_set(instance, rows, seed):
    """The add/drop loop from u = -c, or from a seed of :func:`_seed`."""
    normals, offsets, coords, signs = rows
    abs_normals, abs_offsets = np.abs(normals), np.abs(offsets)
    n = instance.n
    cap = 100 * (n + instance.s)
    inactive = np.ones(len(offsets), dtype=bool)
    if seed is None:
        u = -instance.c.copy()
        active = []  # indices into the rows
        mults = np.zeros(0)
        factor = None  # RowFactor of the active rows, once the loop is done
    else:
        active, factor, u, mults = seed
        inactive[active] = False
    q_basis = None  # the loop's factor buffers, made at the first violated row
    steps = 0
    while offsets.size:
        # rounding noise of the dot product grows with the size of u
        tol = 1e-11 * (1.0 + abs_offsets + abs_normals @ np.abs(u))
        violation = np.where(inactive, normals @ u - offsets - tol, 0.0)
        worst = int(np.argmax(violation))  # ties keep the lowest index
        if not violation[worst] > 0.0:
            break
        if q_basis is None:
            # Q (columns) is an orthonormal basis of the active normals
            # B = Q R, kept in active order with the inverse of R; the
            # dependence test keeps the active rows independent, so at most
            # min(n, rows) are active
            size = min(n, len(offsets))
            q_basis, r_inv = np.zeros((n, size)), np.zeros((size, size))
            if factor is not None:
                k = len(active)
                q_basis[:, :k], r_inv[:k, :k] = factor.q, factor.r_inv
            active = list(active)
        target = normals[worst]
        nn = max(1.0, float(target @ target))
        lam_target = 0.0  # grows across partial dual steps, lands in mults
        while True:
            steps += 1
            if steps > cap:
                raise NonconvergenceError(
                    f"active-set update cap {cap} exceeded (scale issues?)"
                )
            k = len(active)
            q_act = q_basis[:, :k]
            # project out the active normals twice (CGS2); rho = -R^-1 Q^T n
            # solves the normal equations (B^T B) rho = -B^T n
            h = q_act.T @ target
            z = target - q_act @ h
            h2 = q_act.T @ z
            z -= q_act @ h2
            rho = -(r_inv[:k, :k] @ (h + h2))
            znorm2 = float(z @ z)
            violation = float(target @ u - offsets[worst])
            t_full = violation / znorm2 if znorm2 > DEP_REL_TOL * nn else np.inf
            rho_floor = 1e-10 * max(1.0, float(np.max(np.abs(rho))) if k else 0.0)
            blocking = rho < -rho_floor
            ratios = np.full(k, np.inf)
            ratios[blocking] = np.maximum(mults[blocking], 0.0) / -rho[blocking]
            drop_idx = int(np.argmin(ratios)) if k else -1  # ties keep the first
            t_drop = ratios[drop_idx] if k else np.inf
            if not np.isfinite(t_full) and not np.isfinite(t_drop):
                side = "U" if signs[worst] > 0 else "L"
                raise QPInfeasibleError(
                    f"constraint {side} on coordinate {coords[worst]} cannot be "
                    "met: dual step is unbounded",
                    constraint=(int(coords[worst]), side),
                )
            t = min(t_full, t_drop)
            if np.isfinite(t_full):
                u -= t * z
            mults = mults + t * rho
            lam_target += t
            if t_full <= t_drop:
                # border the factor: B+ = [Q, z/|z|] [[R, h], [0, |z|]]
                znorm = np.sqrt(znorm2)
                q_basis[:, k] = z / znorm
                r_inv[:k, k] = rho / znorm
                r_inv[k, k] = 1.0 / znorm
                active.append(worst)
                mults = np.append(mults, lam_target)
                inactive[worst] = False
                break
            inactive[active.pop(drop_idx)] = True
            mults = np.delete(mults, drop_idx)
            if active:  # refactor the remaining rows
                kept = factor_rows(normals[active])
                q_basis[:, : k - 1], r_inv[: k - 1, : k - 1] = kept.q, kept.r_inv

    if steps:
        # polish: re-solve the terminal equality-constrained subproblem from
        # a fresh factor of the active rows, so u and the multipliers carry
        # no error accumulated along the path; a seeded run that took no step
        # already holds that solution
        factor = factor_rows(normals[active])
        u, mults = _equality_point(factor, offsets[active], instance.c)

    on_bound, on_sign = coords[active], signs[active]
    lam = np.zeros(instance.s)
    np.add.at(lam, on_bound, on_sign * mults)
    # classify b + C u with the coordinate of each active row on its bound
    box = instance.box
    d = instance.b + instance.jac @ u
    d[on_bound] = np.where(on_sign > 0, box.upper[on_bound], box.lower[on_bound])
    pattern = activity(np.clip(d, box.lower, box.upper), box)
    # the box multiplier is unique iff the Jacobian rows of the tight
    # coordinates are linearly independent; the internal U/L row pair of a
    # pinched coordinate does not count (their difference is unique).  The
    # tight rows are signed as W^T Jg, so the Newton step can use their
    # factor as it is.  When the active rows are the tight coordinates in
    # order, with their signs, the active rows' factor is bitwise theirs
    signed = normal_signs(pattern)
    tight_coords = np.flatnonzero(signed)
    tight_signs = signed[tight_coords]
    reuse = (
        factor is not None
        and np.array_equal(on_bound, tight_coords)
        and np.array_equal(on_sign, tight_signs)
    )
    if not reuse:
        factor = _factor_of(tight_signs[:, None] * instance.jac[tight_coords], factor)
    if factor.deficiency is not None:
        jac_tight = instance.jac[tight_coords]
        rhs = -(u + instance.c)
        mu, *_ = np.linalg.lstsq(jac_tight.T, rhs, rcond=None)
        correction, *_ = np.linalg.lstsq(jac_tight.T, rhs - jac_tight.T @ mu, rcond=None)
        mu += correction
        candidate = np.zeros(instance.s)
        candidate[tight_coords] = mu
        residual = np.linalg.norm(u + instance.c + instance.jac.T @ candidate)
        sign_tol = 1e-9 * (1.0 + float(np.max(np.abs(candidate))))
        # prefer the least-norm multiplier, but never at the price of
        # stationarity: barely-tight rows can make the system inconsistent
        stationary = residual <= 1e-10 * (1.0 + np.linalg.norm(instance.c))
        if stationary and pattern_admits(pattern, candidate, sign_tol):
            lam = candidate
    return QPSolution(
        u=u,
        lam=lam,
        active=pattern,
        iterations=steps,
        warm=seed is not None,
        factor=factor,
        tight=tight_coords,
        tight_signs=tight_signs,
    )


def brute_force_qp(instance, tol=1e-9):
    """Oracle solver: enumerate activity patterns, keep the best KKT point.

    Every activity pattern of the box (:func:`enumerate_box_patterns`, at
    most 6 constraints) yields one equality-constrained subproblem solved
    through its KKT system.  The feasible candidate with the smallest
    objective is returned; if no pattern is accepted the problem is infeasible.
    """
    best = None
    examined = 0
    for combo in enumerate_box_patterns(instance.box):
        examined += 1
        pattern = tuple(kind for kind, _ in combo)
        act = np.flatnonzero(pattern)
        if act.size:
            c_act = instance.jac[act]
            targets = np.array([combo[j][1] - instance.b[j] for j in act])
            k = act.size
            kkt = np.block([[np.eye(instance.n), c_act.T], [c_act, np.zeros((k, k))]])
            sol, *_ = np.linalg.lstsq(
                kkt, np.concatenate([-instance.c, targets]), rcond=None
            )
            mu = sol[instance.n :]
            u = -instance.c - c_act.T @ mu  # stationarity holds exactly
            # all comparisons are relative: ill-conditioned patterns produce
            # large u and multipliers, and dot-product noise scales with them
            slack = tol * (1.0 + np.abs(targets) + np.abs(c_act) @ np.abs(u))
            if np.any(np.abs(c_act @ u - targets) > slack):
                continue  # pattern is inconsistent
        else:
            mu = np.zeros(0)
            u = -instance.c.copy()
        lam = np.zeros(instance.s)
        lam[act] = mu
        mu_tol = tol * (1.0 + (float(np.max(np.abs(mu))) if mu.size else 0.0))
        if not pattern_admits(pattern, lam, mu_tol):
            continue
        d = instance.b + instance.jac @ u
        row_slack = tol * (1.0 + np.abs(instance.jac) @ np.abs(u))
        if np.any(d < instance.box.lower - row_slack) or np.any(
            d > instance.box.upper + row_slack
        ):
            continue
        objective = 0.5 * float(u @ u) + float(instance.c @ u)
        if best is None or objective < best[0] - 1e-12:
            best = (objective, u, lam)
    if best is None:
        raise QPInfeasibleError("no activity pattern admits a KKT point")
    _, u, lam = best
    d = np.clip(instance.b + instance.jac @ u, instance.box.lower, instance.box.upper)
    return QPSolution(
        u=u,
        lam=lam,
        active=activity(d, instance.box, tol),
        iterations=examined,
    )
