"""Strictly convex box-constrained QP: min 0.5||u||^2 + c.u  s.t.  b + C u in D.

The solver is a dual active-set method in the Goldfarb-Idnani mold,
specialized to an identity Hessian.  It starts from the unconstrained
minimum u = -c (always dual feasible), repeatedly adds the most violated
constraint with full dual updates, and therefore needs no phase-1 point;
an unbounded dual step doubles as an infeasibility certificate.

Every finite bound is one row of a stacked matrix of upper-bound rows
(normal . u <= offset), built once per call, so the search for the most
violated row is one matrix-vector product with a per-row tolerance.  The
active normals B are kept as B = Q R with Q orthonormal, together with
R^-1: adding a row projects it out of Q twice (classical Gram-Schmidt with
reorthogonalization) and borders R^-1, both in O(n q); dropping a row
refactors with a Householder QR.  The terminal subproblem is re-solved
from a fresh QR of the active rows (the polish), so the returned point
carries no error accumulated along the path.  The returned pattern comes
from :func:`ssnewton.cones.activity` at b + C u, clipped to the box, with
the coordinate of every active row placed on its bound.

``brute_force_qp`` solves the same problem by enumerating every activity
pattern and serves as the independent oracle in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .cones import Activity, BoxSet, activity, enumerate_box_patterns, pattern_admits
from .errors import DimensionError, NonconvergenceError, QPInfeasibleError

_DEP_REL_TOL = 1e-18  # ||z||^2 below this times ||n||^2 counts as dependent


@dataclass(frozen=True, eq=False)
class QPInstance:
    c: np.ndarray  # linear term, f(x)
    b: np.ndarray  # constraint offset, g(x)
    jac: np.ndarray  # constraint matrix, Jg(x), shape (s, n)
    box: BoxSet

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        jac = np.asarray(self.jac, dtype=float)
        if jac.shape != (b.shape[0], c.shape[0]) or b.shape[0] != self.box.dim:
            raise DimensionError(
                f"inconsistent QP shapes: c {c.shape}, b {b.shape}, jac {jac.shape}"
            )
        for arr, label in ((c, "c"), (b, "b"), (jac, "jac")):
            if arr.size and not np.isfinite(arr).all():
                raise DimensionError(f"QP field {label} has non-finite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "jac", jac)

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
    iterations: int
    degenerate_multiplier: bool = False


def _rows(instance):
    """Every finite bound as an upper-bound row normal . u <= offset.

    Rows come in coordinate order, the upper bound of a coordinate before its
    lower bound; ``sign`` is +1 for an upper and -1 for a lower row.
    """
    box = instance.box
    coord, side = np.nonzero(np.column_stack([np.isfinite(box.upper), np.isfinite(box.lower)]))
    upper = side == 0
    sign = np.where(upper, 1.0, -1.0)
    b = instance.b[coord]
    offset = np.where(upper, box.upper[coord] - b, b - box.lower[coord])
    return sign[:, None] * instance.jac[coord], offset, coord, sign


def solve_qp(instance):
    """Global minimizer of the strictly convex QP, with box multiplier.

    Raises :class:`QPInfeasibleError` when the constraints admit no point
    (certified by an unbounded dual step) and :class:`NonconvergenceError`
    past 100 (n + s) active-set updates.
    """
    normals, offsets, coords, signs = _rows(instance)
    abs_normals, abs_offsets = np.abs(normals), np.abs(offsets)
    n = instance.n
    cap = 100 * (n + instance.s)
    # Q (columns) is an orthonormal basis of the active normals B = Q R,
    # kept in active order with the inverse of R; the dependence test keeps
    # the active rows independent, so at most min(n, rows) are active
    size = min(n, len(offsets))
    q_basis = np.zeros((n, size))
    r_inv = np.zeros((size, size))

    u = -instance.c.copy()
    inactive = np.ones(len(offsets), dtype=bool)
    active = []  # indices into the rows
    mults = np.zeros(0)
    steps = 0
    while offsets.size:
        # rounding noise of the dot product grows with the size of u
        tol = 1e-11 * (1.0 + abs_offsets + abs_normals @ np.abs(u))
        violation = np.where(inactive, normals @ u - offsets - tol, 0.0)
        worst = int(np.argmax(violation))  # ties keep the lowest index
        if not violation[worst] > 0.0:
            break

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
            t_full = violation / znorm2 if znorm2 > _DEP_REL_TOL * nn else np.inf
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
                q_new, r_new = np.linalg.qr(normals[active].T)
                q_basis[:, : k - 1] = q_new
                r_inv[: k - 1, : k - 1] = np.linalg.inv(r_new)

    if active:
        # polish: re-solve the terminal equality-constrained subproblem
        # (u = -c - B mu with B^T u = targets) from a fresh QR of the active
        # rows, so u and the multipliers carry no error accumulated along the
        # path: R mu = -Q^T c - R^-T targets, then one step of refinement
        basis = normals[active].T
        targets = offsets[active]
        q_new, r_new = np.linalg.qr(basis)
        mults = np.linalg.solve(
            r_new, -(q_new.T @ instance.c) - np.linalg.solve(r_new.T, targets)
        )
        u = -instance.c - basis @ mults
        mults += np.linalg.solve(r_new, np.linalg.solve(r_new.T, basis.T @ u - targets))
        u = -instance.c - basis @ mults  # stationarity holds exactly

    on_bound = coords[active]
    lam = np.zeros(instance.s)
    np.add.at(lam, on_bound, signs[active] * mults)
    # classify b + C u with the coordinate of each active row on its bound
    box = instance.box
    d = instance.b + instance.jac @ u
    d[on_bound] = np.where(signs[active] > 0, box.upper[on_bound], box.lower[on_bound])
    pattern = activity(np.clip(d, box.lower, box.upper), box)
    degenerate = False
    # the box multiplier is unique iff the Jacobian rows of the tight
    # coordinates are linearly independent; the internal U/L row pair of a
    # pinched coordinate does not count (their difference is unique)
    tight_coords = [j for j, a in enumerate(pattern) if a is not Activity.INTERIOR]
    if tight_coords:
        jac_tight = instance.jac[tight_coords]
        svals = np.linalg.svd(jac_tight, compute_uv=False)
        rank = int(np.sum(svals > 1e-9 * max(1.0, svals[0])))
        if rank < len(tight_coords):
            degenerate = True
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
        degenerate_multiplier=degenerate,
    )


def brute_force_qp(instance, tol=1e-9):
    """Oracle solver: enumerate activity patterns, keep the best KKT point.

    Every activity pattern of the box (:func:`enumerate_box_patterns`, at
    most 6 constraints) yields one equality-constrained subproblem solved
    through its KKT system.  The
    feasible candidate with the smallest objective is returned; if no
    pattern is accepted the problem is infeasible.
    """
    best = None
    examined = 0
    for combo in enumerate_box_patterns(instance.box):
        examined += 1
        pattern = tuple(kind for kind, _ in combo)
        act = [j for j, kind in enumerate(pattern) if kind is not Activity.INTERIOR]
        if act:
            c_act = instance.jac[act]
            targets = np.array([combo[j][1] - instance.b[j] for j in act])
            k = len(act)
            kkt = np.block(
                [[np.eye(instance.n), c_act.T], [c_act, np.zeros((k, k))]]
            )
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
