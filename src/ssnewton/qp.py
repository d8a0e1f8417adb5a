"""Strictly convex box-constrained QP: min 0.5||u||^2 + c.u  s.t.  b + C u in D.

The solver is a dual active-set method in the Goldfarb-Idnani mold,
specialized to an identity Hessian.  It starts from the unconstrained
minimum u = -c (always dual feasible), repeatedly adds the most violated
constraint with full dual updates, and therefore needs no phase-1 point;
an unbounded dual step doubles as an infeasibility certificate.

``brute_force_qp`` solves the same problem by enumerating every activity
pattern and serves as the independent oracle in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .cones import ACTIVITY_TOL, Activity, BoxSet, activity, enumerate_box_patterns
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


@dataclass(frozen=True)
class _Row:
    normal: np.ndarray  # row as an upper bound: normal . u <= offset
    offset: float
    coord: int
    side: str  # 'U' or 'L'


def _rows(instance):
    rows = []
    for j in range(instance.s):
        lo, hi = instance.box.lower[j], instance.box.upper[j]
        if np.isfinite(hi):
            rows.append(_Row(instance.jac[j].copy(), hi - instance.b[j], j, "U"))
        if np.isfinite(lo):
            rows.append(_Row(-instance.jac[j], instance.b[j] - lo, j, "L"))
    return rows


def _pattern(instance, u, active_rows, tol=ACTIVITY_TOL):
    d = instance.b + instance.jac @ u
    tight_u = {r.coord for r in active_rows if r.side == "U"}
    tight_l = {r.coord for r in active_rows if r.side == "L"}
    pattern = []
    for j in range(instance.s):
        lo, hi = instance.box.lower[j], instance.box.upper[j]
        if lo == hi:
            pattern.append(Activity.FIXED)
        elif j in tight_u or (np.isfinite(hi) and abs(d[j] - hi) <= tol):
            pattern.append(Activity.AT_UPPER)
        elif j in tight_l or (np.isfinite(lo) and abs(d[j] - lo) <= tol):
            pattern.append(Activity.AT_LOWER)
        else:
            pattern.append(Activity.INTERIOR)
    return tuple(pattern)


def _lambda_from_rows(instance, rows, mults):
    lam = np.zeros(instance.s)
    for row, mu in zip(rows, mults):
        lam[row.coord] += mu if row.side == "U" else -mu
    return lam


def solve_qp(instance):
    """Global minimizer of the strictly convex QP, with box multiplier.

    Raises :class:`QPInfeasibleError` when the constraints admit no point
    (certified by an unbounded dual step) and :class:`NonconvergenceError`
    past 100 (n + s) active-set updates.
    """
    rows = _rows(instance)
    cap = 100 * (instance.n + instance.s)

    def _viol_tol(row, u):
        # rounding noise of the dot product grows with the size of u
        return 1e-11 * (1.0 + abs(row.offset) + float(np.abs(row.normal) @ np.abs(u)))

    u = -instance.c.copy()
    active = []  # indices into rows
    mults = []
    steps = 0
    while True:
        worst, worst_violation = -1, 0.0
        for i, row in enumerate(rows):
            if i in active:
                continue
            violation = row.normal @ u - row.offset - _viol_tol(row, u)
            if violation > worst_violation:  # ties keep the lowest index
                worst, worst_violation = i, violation
        if worst < 0:
            break

        target = rows[worst]
        nn = max(1.0, float(target.normal @ target.normal))
        lam_target = 0.0  # grows across partial dual steps, lands in mults
        while True:
            steps += 1
            if steps > cap:
                raise NonconvergenceError(
                    f"active-set update cap {cap} exceeded (scale issues?)"
                )
            if active:
                basis = np.column_stack([rows[i].normal for i in active])
                rho = -np.linalg.solve(basis.T @ basis, basis.T @ target.normal)
                z = target.normal + basis @ rho
            else:
                rho = np.zeros(0)
                z = target.normal.copy()
            znorm2 = float(z @ z)
            violation = float(target.normal @ u - target.offset)
            t_full = violation / znorm2 if znorm2 > _DEP_REL_TOL * nn else np.inf
            t_drop, drop_idx = np.inf, -1
            rho_floor = 1e-10 * max(1.0, float(np.max(np.abs(rho))) if rho.size else 0.0)
            for idx, r in enumerate(rho):
                if r < -rho_floor:
                    ratio = max(mults[idx], 0.0) / -r
                    if ratio < t_drop:
                        t_drop, drop_idx = ratio, idx
            if not np.isfinite(t_full) and not np.isfinite(t_drop):
                raise QPInfeasibleError(
                    f"constraint {target.side} on coordinate {target.coord} cannot be "
                    "met: dual step is unbounded",
                    constraint=(target.coord, target.side),
                )
            t = min(t_full, t_drop)
            if np.isfinite(t_full):
                u -= t * z
            mults = [m + t * r for m, r in zip(mults, rho)]
            lam_target += t
            if t_full <= t_drop:
                active.append(worst)
                mults.append(lam_target)
                break
            del active[drop_idx], mults[drop_idx]

    if active:
        # polish: re-solve the terminal equality-constrained subproblem so u
        # and the multipliers carry no error accumulated along the path; the
        # augmented system keeps the conditioning of the rows, not its square
        basis = np.column_stack([rows[i].normal for i in active])
        targets = np.array([rows[i].offset for i in active])
        q = len(active)
        kkt = np.block([[np.eye(instance.n), basis], [basis.T, np.zeros((q, q))]])
        sol, *_ = np.linalg.lstsq(
            kkt, np.concatenate([-instance.c, targets]), rcond=None
        )
        mults = list(sol[instance.n :])
        u = -instance.c - basis @ sol[instance.n :]  # stationarity holds exactly

    lam = _lambda_from_rows(instance, [rows[i] for i in active], mults)
    pattern = _pattern(instance, u, [rows[i] for i in active])
    degenerate = False
    # the box multiplier is unique iff the Jacobian rows of the tight
    # coordinates are linearly independent; the internal U/L row pair of a
    # pinched coordinate does not count (their difference is unique)
    tight_coords = [j for j in range(instance.s) if pattern[j] is not Activity.INTERIOR]
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
            signs_ok = all(
                (pattern[j] is Activity.FIXED)
                or (pattern[j] is Activity.AT_UPPER and candidate[j] >= -sign_tol)
                or (pattern[j] is Activity.AT_LOWER and candidate[j] <= sign_tol)
                for j in tight_coords
            )
            # prefer the least-norm multiplier, but never at the price of
            # stationarity: barely-tight rows can make the system inconsistent
            if signs_ok and residual <= 1e-10 * (1.0 + np.linalg.norm(instance.c)):
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
        act = [j for j, (kind, _) in enumerate(combo) if kind is not Activity.INTERIOR]
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
        mu_tol = tol * (1.0 + (float(np.max(np.abs(mu))) if mu.size else 0.0))
        ok = True
        for j, (kind, _) in enumerate(combo):
            if kind is Activity.AT_UPPER and mu[act.index(j)] < -mu_tol:
                ok = False
            elif kind is Activity.AT_LOWER and mu[act.index(j)] > mu_tol:
                ok = False
        if not ok:
            continue
        d = instance.b + instance.jac @ u
        row_slack = tol * (1.0 + np.abs(instance.jac) @ np.abs(u))
        if np.any(d < instance.box.lower - row_slack) or np.any(
            d > instance.box.upper + row_slack
        ):
            continue
        objective = 0.5 * float(u @ u) + float(instance.c @ u)
        if best is None or objective < best[0] - 1e-12:
            lam = np.zeros(instance.s)
            for j in act:
                lam[j] = mu[act.index(j)]
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
