"""Cone geometry of a box set and of its normal-cone map.

A box D is a product of intervals, so every cone attached to it (tangent,
normal, critical, their polars) is a product of per-coordinate cones and the
faces of the critical cone are indexed by subsets of the active coordinates.
All operations below exploit that coordinatewise structure.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CombinatorialBlowupError,
    DimensionError,
    InfeasiblePointError,
    InvalidElementError,
    InvalidMultiplierError,
)

ACTIVITY_TOL = 1e-9
_PATTERN_GUARD = 6  # coordinates; at most 3^6 patterns


class Activity(Enum):
    INTERIOR = "I"
    AT_LOWER = "L"
    AT_UPPER = "U"
    FIXED = "F"


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Per-coordinate interval bounds; entries may be -inf / +inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionError("bounds must be 1-d arrays of equal length")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise DimensionError(f"lower[{bad}] > upper[{bad}]")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise DimensionError("lower bound may not be +inf, upper may not be -inf")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.lower.shape[0]

    @classmethod
    def nonpositive(cls, s):
        """The orthant of coordinatewise nonpositive vectors."""
        return cls(np.full(s, -np.inf), np.zeros(s))

    def contains(self, d, tol=ACTIVITY_TOL):
        d = np.asarray(d, dtype=float)
        return bool(np.all(d >= self.lower - tol) and np.all(d <= self.upper + tol))


def activity(d, box, tol=ACTIVITY_TOL):
    """Classify each coordinate of a feasible point against its bounds.

    Returns a tuple of :class:`Activity`.  Raises
    :class:`InfeasiblePointError` when d leaves the box by more than tol.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (box.dim,):
        raise DimensionError(f"point has shape {d.shape}, box dimension is {box.dim}")
    pattern = []
    for i in range(box.dim):
        lo, hi = box.lower[i], box.upper[i]
        if d[i] < lo - tol or d[i] > hi + tol:
            raise InfeasiblePointError(
                f"coordinate {i}: {d[i]!r} outside [{lo}, {hi}] beyond tol", coord=i
            )
        if lo == hi:
            pattern.append(Activity.FIXED)
        elif np.isfinite(lo) and abs(d[i] - lo) <= tol:
            pattern.append(Activity.AT_LOWER)
        elif np.isfinite(hi) and abs(d[i] - hi) <= tol:
            pattern.append(Activity.AT_UPPER)
        else:
            pattern.append(Activity.INTERIOR)
    return tuple(pattern)


def pattern_summary(pattern):
    """One-letter-per-coordinate rendering, e.g. 'IUL'."""
    return "".join(a.value for a in pattern)


def normal_cone_membership(d, lam, box, tol=ACTIVITY_TOL):
    """True iff lam lies in the normal cone to the box at d.

    Coordinatewise: interior needs lam_i = 0, a lower bound allows lam_i <= 0,
    an upper bound allows lam_i >= 0, a fixed coordinate allows anything.
    """
    lam = np.asarray(lam, dtype=float)
    pattern = activity(d, box, tol)
    for i, a in enumerate(pattern):
        if a is Activity.INTERIOR and abs(lam[i]) > tol:
            return False
        if a is Activity.AT_LOWER and lam[i] > tol:
            return False
        if a is Activity.AT_UPPER and lam[i] < -tol:
            return False
    return True


def basis_for_pattern(pattern):
    """Signed unit columns spanning the normal cone for an activity pattern.

    One column per non-interior coordinate, ascending: -e_i at a lower bound,
    +e_i at an upper bound, +e_i for a fixed coordinate.
    """
    s = len(pattern)
    cols = []
    for i, a in enumerate(pattern):
        if a is Activity.INTERIOR:
            continue
        e = np.zeros(s)
        e[i] = -1.0 if a is Activity.AT_LOWER else 1.0
        cols.append(e)
    if not cols:
        return np.zeros((s, 0))
    return np.column_stack(cols)


def guard_pattern_enumeration(box):
    """Raise :class:`CombinatorialBlowupError` if the box has more than 6 coordinates."""
    if box.dim > _PATTERN_GUARD:
        raise CombinatorialBlowupError(
            f"pattern enumeration is guarded to {_PATTERN_GUARD} coordinates, got {box.dim}"
        )


def enumerate_box_patterns(box):
    """Every activity pattern of the box, with the bound each coordinate meets.

    One tuple of (Activity, bound) pairs per pattern, bound None for an
    interior coordinate, in product order over interior, lower, upper (finite
    bounds only); a pinched coordinate is always fixed.  Raises
    :class:`CombinatorialBlowupError` beyond 6 coordinates.
    """
    guard_pattern_enumeration(box)
    options = []
    for lo, hi in zip(box.lower, box.upper):
        if lo == hi:
            options.append(((Activity.FIXED, lo),))
            continue
        choice = [(Activity.INTERIOR, None)]
        if np.isfinite(lo):
            choice.append((Activity.AT_LOWER, lo))
        if np.isfinite(hi):
            choice.append((Activity.AT_UPPER, hi))
        options.append(choice)
    return itertools.product(*options)


def span_normal_basis(d, box, tol=ACTIVITY_TOL):
    """Matrix whose columns form a basis of span N_D(d) (empty if d interior)."""
    return basis_for_pattern(activity(d, box, tol))


class _Cone(Enum):
    FREE = "R"
    ZERO = "0"
    NONPOS = "-"
    NONNEG = "+"


_POLAR = {
    _Cone.FREE: _Cone.ZERO,
    _Cone.ZERO: _Cone.FREE,
    _Cone.NONPOS: _Cone.NONNEG,
    _Cone.NONNEG: _Cone.NONPOS,
}


def _cone_contains(code, value, tol):
    if code is _Cone.FREE:
        return True
    if code is _Cone.ZERO:
        return abs(value) <= tol
    if code is _Cone.NONPOS:
        return value <= tol
    return value >= -tol


def _critical_cone_codes(pattern, lam, tol):
    """Per-coordinate factors of the critical cone T_D(d) n [lam]^perp."""
    codes = []
    for i, a in enumerate(pattern):
        if a is Activity.FIXED:
            codes.append(_Cone.ZERO)
        elif a is Activity.INTERIOR:
            codes.append(_Cone.FREE)
        elif a is Activity.AT_UPPER:
            codes.append(_Cone.ZERO if lam[i] > tol else _Cone.NONPOS)
        else:  # AT_LOWER
            codes.append(_Cone.ZERO if lam[i] < -tol else _Cone.NONNEG)
    return codes


def _require_graph_point(d, lam, box, tol, what="multiplier"):
    if not normal_cone_membership(d, lam, box, tol):
        raise InvalidMultiplierError(f"{what} is not in the normal cone at the point")
    return activity(d, box, tol)


def critical_cone_membership(v, d, lam, box, tol=ACTIVITY_TOL):
    """True iff v is tangent at d and orthogonal to lam (coordinatewise)."""
    v = np.asarray(v, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pattern = _require_graph_point(d, lam, box, tol)
    codes = _critical_cone_codes(pattern, lam, tol)
    return all(_cone_contains(c, v[i], tol) for i, c in enumerate(codes))


def enumerate_face_index_sets(d, lam, box, tol=ACTIVITY_TOL, guard=20):
    """All index sets J between the strictly-active and the active coordinates.

    The faces of the critical cone at (d, lam) are in bijection with the sets
    J containing every active coordinate with nonzero multiplier (and every
    fixed coordinate) and contained in the set of all active coordinates.
    Returned as sorted tuples, 2^(free count) of them, in mask order.
    """
    lam = np.asarray(lam, dtype=float)
    pattern = _require_graph_point(d, lam, box, tol)
    forced, free = [], []
    for i, a in enumerate(pattern):
        if a is Activity.INTERIOR:
            continue
        if a is Activity.FIXED or abs(lam[i]) > tol:
            forced.append(i)
        else:
            free.append(i)
    if len(free) > guard:
        raise CombinatorialBlowupError(
            f"{len(free)} weakly active coordinates exceed the enumeration guard {guard}"
        )
    sets = []
    for mask in range(1 << len(free)):
        chosen = [free[j] for j in range(len(free)) if mask >> j & 1]
        sets.append(tuple(sorted(forced + chosen)))
    return sets


def regular_coderivative_nd(d, lam, p_dir, candidate, box, tol=ACTIVITY_TOL):
    """Membership test for the regular coderivative of the normal-cone map.

    True iff -p_dir lies in the critical cone K_D(d, lam) and candidate lies
    in its polar, both tested factor by factor.
    """
    p_dir = np.asarray(p_dir, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pattern = _require_graph_point(d, lam, box, tol)
    codes = _critical_cone_codes(pattern, lam, tol)
    for i, code in enumerate(codes):
        if not _cone_contains(code, -p_dir[i], tol):
            return False
        if not _cone_contains(_POLAR[code], candidate[i], tol):
            return False
    return True


def semismooth_star_defect(reference, probe, element, box, tol=ACTIVITY_TOL):
    """|<u*, d - d_ref> - <v*, lam - lam_ref>| for a coderivative element.

    ``reference`` and ``probe`` are (d, lam) pairs on the graph of the
    normal-cone map; ``element`` is a pair (v*, u*) with u* in the polar of
    the critical cone at the probe and -v* in the critical cone itself.
    For the polyhedral map of a box this defect vanishes exactly on a
    neighborhood of the reference point.
    """
    d_ref, lam_ref = (np.asarray(a, dtype=float) for a in reference)
    d, lam = (np.asarray(a, dtype=float) for a in probe)
    v_star, u_star = (np.asarray(a, dtype=float) for a in element)
    _require_graph_point(d_ref, lam_ref, box, tol, what="reference multiplier")
    pattern = _require_graph_point(d, lam, box, tol, what="probe multiplier")
    codes = _critical_cone_codes(pattern, lam, tol)
    for i, code in enumerate(codes):
        if not _cone_contains(code, -v_star[i], tol):
            raise InvalidElementError(
                f"direction component {i} is not in the critical cone"
            )
        if not _cone_contains(_POLAR[code], u_star[i], tol):
            raise InvalidElementError(
                f"output component {i} is not in the polar of the critical cone"
            )
    return float(abs(u_star @ (d - d_ref) - v_star @ (lam - lam_ref)))


def exactness_radius(d_ref, lam_ref, box):
    """A radius within which the defect of the box normal-cone map is 0.

    Any radius below the smallest nonzero distance of the reference point to
    a bound and the smallest nonzero multiplier entry works; half of that
    minimum (capped at 1) is returned.
    """
    d_ref = np.asarray(d_ref, dtype=float)
    lam_ref = np.asarray(lam_ref, dtype=float)
    gaps = [1.0]
    for i in range(box.dim):
        for bound in (box.lower[i], box.upper[i]):
            if np.isfinite(bound) and abs(d_ref[i] - bound) > 0:
                gaps.append(abs(d_ref[i] - bound))
        if lam_ref[i] != 0.0:
            gaps.append(abs(lam_ref[i]))
    return 0.5 * min(gaps)


def _probe_states(i, a, d_ref, lam_ref, box, eta):
    """Graph points of the i-th coordinate factor within eta of the reference."""
    lo, hi = box.lower[i], box.upper[i]
    if a is Activity.FIXED:
        return [(lo, lam_ref[i]), (lo, lam_ref[i] - eta), (lo, lam_ref[i] + eta)]
    if a is Activity.INTERIOR:
        return [(d_ref[i], 0.0), (d_ref[i] - eta, 0.0), (d_ref[i] + eta, 0.0)]
    if a is Activity.AT_UPPER:
        if lam_ref[i] > 0:
            return [(hi, lam_ref[i]), (hi, lam_ref[i] - eta), (hi, lam_ref[i] + eta)]
        return [(hi, 0.0), (hi, eta), (hi - eta, 0.0)]
    if lam_ref[i] < 0:
        return [(lo, lam_ref[i]), (lo, lam_ref[i] - eta), (lo, lam_ref[i] + eta)]
    return [(lo, 0.0), (lo, -eta), (lo + eta, 0.0)]


_DIR_GENS = {  # admissible v* values, i.e. -v* in the cone
    _Cone.FREE: (0.0, 1.0, -1.0),
    _Cone.ZERO: (0.0,),
    _Cone.NONPOS: (0.0, 1.0),
    _Cone.NONNEG: (0.0, -1.0),
}
_OUT_GENS = {  # admissible u* values, i.e. u* in the polar cone
    _Cone.FREE: (0.0,),
    _Cone.ZERO: (0.0, 1.0, -1.0),
    _Cone.NONPOS: (0.0, 1.0),
    _Cone.NONNEG: (0.0, -1.0),
}


def polyhedral_defect_scan(d_ref, lam_ref, box, tol=ACTIVITY_TOL, guard=8):
    """Max defect over an exhaustive local sample of probes and elements.

    Probes enumerate all per-coordinate graph states inside the exactness
    radius; elements run over the per-coordinate cone generators (the defect
    is additive across coordinates, so single-coordinate generators plus one
    fully assembled element cover every conic combination).  For a box this
    maximum is exactly zero.
    """
    d_ref = np.asarray(d_ref, dtype=float)
    lam_ref = np.asarray(lam_ref, dtype=float)
    _require_graph_point(d_ref, lam_ref, box, tol, what="reference multiplier")
    s = box.dim
    if s > guard:
        raise CombinatorialBlowupError(f"dimension {s} exceeds the scan guard {guard}")
    ref_pattern = activity(d_ref, box, tol)
    delta = exactness_radius(d_ref, lam_ref, box)
    eta = delta / (2.0 * np.sqrt(2.0 * max(1, s)))

    per_coord = [
        _probe_states(i, a, d_ref, lam_ref, box, eta) for i, a in enumerate(ref_pattern)
    ]
    worst = 0.0
    for combo in itertools.product(*per_coord):
        d = np.array([c[0] for c in combo])
        lam = np.array([c[1] for c in combo])
        codes = _critical_cone_codes(activity(d, box, tol), lam, tol)
        elements = []
        for i, code in enumerate(codes):
            for g in _DIR_GENS[code]:
                if g:
                    v = np.zeros(s)
                    v[i] = g
                    elements.append((v, np.zeros(s)))
            for g in _OUT_GENS[code]:
                if g:
                    u = np.zeros(s)
                    u[i] = g
                    elements.append((np.zeros(s), u))
        combined_v = np.array([_DIR_GENS[c][-1] for c in codes])
        combined_u = np.array([_OUT_GENS[c][-1] for c in codes])
        elements.append((combined_v, combined_u))
        for element in elements:
            worst = max(
                worst, semismooth_star_defect((d_ref, lam_ref), (d, lam), element, box, tol)
            )
    return worst
