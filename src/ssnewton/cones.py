"""Cone geometry of a box set and of its normal-cone map.

A box D is a product of intervals, so every cone attached to it (tangent,
normal, critical, their polars) is a product of per-coordinate cones and the
faces of the critical cone are indexed by subsets of the active coordinates.
All operations below exploit that coordinatewise structure: each
per-coordinate cone is a closed interval with endpoints in {-inf, 0, +inf},
and its polar swaps the zero and the infinite endpoints.
"""

import itertools
from dataclasses import dataclass
from enum import IntEnum

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
_FACE_GUARD = 20  # weakly active coordinates; at most 2^20 faces
_SCAN_GUARD = 8  # coordinates of the defect scan


class Activity(IntEnum):
    """How a coordinate meets its bounds, as a code 0-3; a pattern is a tuple
    of members, and :func:`pattern_codes` its string of codes."""

    INTERIOR = 0
    AT_LOWER = 1
    AT_UPPER = 2
    FIXED = 3


# indexed by code: the member, the normal cone's endpoints, the basis column's sign
_MEMBERS = np.array(list(Activity), dtype=object)
_CONE_LOWER, _CONE_UPPER = np.array([[0.0, -np.inf, 0.0, -np.inf], [0.0, 0.0, np.inf, np.inf]])
_SIGNS = np.array([0.0, -1.0, 1.0, 1.0])
_LETTERS = bytes.maketrans(bytes(Activity), b"ILUF")


def pattern_of(codes):
    """The pattern, a tuple of :class:`Activity`, of an array of codes."""
    return tuple(_MEMBERS[codes].tolist())


def pattern_codes(pattern):
    """The codes of a pattern as bytes, one per coordinate.

    A tuple, list or bytes of members or ints is read by ``bytes(pattern)``
    (bytes as they are); a numpy array of codes is read by its entries,
    since ``bytes`` of an array is its raw buffer.  An entry that is not an
    integer in range(256) raises TypeError or ValueError.  Every reader of a
    pattern's codes reads them here.
    """
    return bytes(pattern.tolist() if isinstance(pattern, np.ndarray) else pattern)


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
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise DimensionError("bounds may not be NaN")
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
        """Whether every coordinate of d is finite and within tol of its interval."""
        d = np.asarray(d, dtype=float)
        return bool(np.all(_contains((self.lower, self.upper), d, tol)))


def activity(d, box, tol=ACTIVITY_TOL):
    """Classify each coordinate of a feasible point against its bounds.

    A pinched coordinate (lower == upper) is fixed; otherwise a coordinate
    within tol of a finite bound is at that bound, and within tol of both
    bounds of a narrow interval it is at the nearer one (the lower on a tie).
    This is the only classifier of points against a box: the QP solver, the
    oracles and the checkers all read their patterns from it, or from its
    step after the inside test, :func:`_classify`, where d is known to lie
    in the box.

    Returns a tuple of :class:`Activity`.  Raises
    :class:`InfeasiblePointError` when d leaves the box by more than tol or
    is not finite (no box holds an infinite point, even an unbounded one).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (box.dim,):
        raise DimensionError(f"point has shape {d.shape}, box dimension is {box.dim}")
    lo, hi = box.lower, box.upper
    inside = np.isfinite(d)
    inside &= d >= lo - tol
    inside &= d <= hi + tol
    if np.count_nonzero(inside) < inside.size:
        i = int(np.argmin(inside))
        raise InfeasiblePointError(
            f"coordinate {i}: {d[i]!r} outside [{lo[i]}, {hi[i]}] beyond tol", coord=i
        )
    return pattern_of(_classify(d, box, tol))


def _classify(d, box, tol=ACTIVITY_TOL):
    """The codes, an int8 array, of :func:`activity` of a finite d of the
    box's shape known to lie in the box, as a clipped finite point does: the
    same pattern, with no inside test."""
    lo, hi = box.lower, box.upper
    gap_lo, gap_hi = np.abs(d - lo), np.abs(d - hi)  # +inf at an infinite bound
    # later writes take precedence: fixed over lower (within tol and nearer
    # than the upper bound) over upper
    kinds = np.zeros(box.dim, np.int8)
    kinds[gap_hi <= tol] = Activity.AT_UPPER
    kinds[gap_lo <= np.minimum(gap_hi, tol)] = Activity.AT_LOWER
    kinds[lo == hi] = Activity.FIXED
    return kinds


def pattern_summary(pattern):
    """One-letter-per-coordinate rendering, e.g. 'IUL'."""
    return pattern_codes(pattern).translate(_LETTERS).decode()


def _normal_cone(pattern):
    """The normal cone of a pattern as (lower, upper) endpoint arrays, the
    form every cone takes here: {0}, (-inf, 0], [0, +inf) or the line."""
    codes = np.frombuffer(pattern_codes(pattern), np.int8)
    return _CONE_LOWER[codes], _CONE_UPPER[codes]


def _polar(cone):
    """The polar cone: zero endpoints become infinite, infinite ones zero."""
    lower, upper = cone
    return np.where(lower == 0.0, -np.inf, 0.0), np.where(upper == 0.0, np.inf, 0.0)


def _contains(cone, x, tol):
    """Per coordinate, whether x lies in the interval widened by tol (NaN and
    +-inf never do, even in an unbounded interval)."""
    lower, upper = cone
    inside = np.isfinite(x)
    inside &= x >= lower - tol
    inside &= x <= upper + tol
    return inside


def pattern_admits(pattern, lam, tol=ACTIVITY_TOL):
    """True iff lam lies in the normal cone of an activity pattern.

    Coordinatewise, up to tol: interior needs lam_i = 0, a lower bound
    allows lam_i <= 0, an upper bound allows lam_i >= 0, a fixed coordinate
    allows anything.  This is the one multiplier test of the package.
    """
    return bool(np.all(_contains(_normal_cone(pattern), np.asarray(lam, dtype=float), tol)))


def normal_cone_membership(d, lam, box, tol=ACTIVITY_TOL):
    """True iff lam lies in the normal cone to the box at d."""
    return pattern_admits(activity(d, box, tol), lam, tol)


def normal_signs(pattern):
    """The sign of each coordinate's column of :func:`basis_for_pattern`.

    -1 at a lower bound, +1 at an upper bound or fixed, 0 when interior (no
    column).
    """
    return _SIGNS[np.frombuffer(pattern_codes(pattern), np.int8)]


def basis_for_pattern(pattern):
    """Signed unit columns spanning the normal cone for an activity pattern.

    One column per non-interior coordinate, ascending: -e_i at a lower bound,
    +e_i at an upper bound, +e_i for a fixed coordinate.
    """
    signs = normal_signs(pattern)
    cols = np.flatnonzero(signs)
    w = np.zeros((len(pattern), cols.size))
    w[cols, np.arange(cols.size)] = signs[cols]
    return w


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


def _critical_cone(pattern, lam, tol):
    """The critical cone T_D(d) n [lam]^perp at a graph point (d, lam).

    The tangent cone is the polar of the normal cone; orthogonality to lam
    pins every coordinate whose multiplier exceeds tol to zero.
    """
    lower, upper = _polar(_normal_cone(pattern))
    strict = np.abs(lam) > tol
    return np.where(strict, 0.0, lower), np.where(strict, 0.0, upper)


def _require_graph_point(d, lam, box, tol, what="multiplier"):
    pattern = activity(d, box, tol)
    if not pattern_admits(pattern, lam, tol):
        raise InvalidMultiplierError(f"{what} is not in the normal cone at the point")
    return pattern


def critical_cone_membership(v, d, lam, box, tol=ACTIVITY_TOL):
    """True iff v is tangent at d and orthogonal to lam (coordinatewise)."""
    v = np.asarray(v, dtype=float)
    lam = np.asarray(lam, dtype=float)
    cone = _critical_cone(_require_graph_point(d, lam, box, tol), lam, tol)
    return bool(np.all(_contains(cone, v, tol)))


def enumerate_face_index_sets(d, lam, box, tol=ACTIVITY_TOL):
    """All index sets J between the strictly-active and the active coordinates.

    The faces of the critical cone at (d, lam) are in bijection with the sets
    J containing every active coordinate with nonzero multiplier (and every
    fixed coordinate) and contained in the set of all active coordinates.
    Returned as sorted tuples, 2^(free count) of them, in mask order.
    """
    lam = np.asarray(lam, dtype=float)
    lower, upper = _critical_cone(_require_graph_point(d, lam, box, tol), lam, tol)
    # a {0} factor is forced into J, a half-line is free, a line is interior
    forced = np.flatnonzero((lower == 0.0) & (upper == 0.0)).tolist()
    free = np.flatnonzero((lower == 0.0) != (upper == 0.0)).tolist()
    if len(free) > _FACE_GUARD:
        raise CombinatorialBlowupError(
            f"{len(free)} weakly active coordinates exceed the enumeration guard {_FACE_GUARD}"
        )
    return [
        tuple(sorted(forced + [i for j, i in enumerate(free) if mask >> j & 1]))
        for mask in range(1 << len(free))
    ]


def regular_coderivative_nd(d, lam, p_dir, candidate, box, tol=ACTIVITY_TOL):
    """Membership test for the regular coderivative of the normal-cone map.

    True iff -p_dir lies in the critical cone K_D(d, lam) and candidate lies
    in its polar, both tested factor by factor.
    """
    p_dir = np.asarray(p_dir, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    lam = np.asarray(lam, dtype=float)
    cone = _critical_cone(_require_graph_point(d, lam, box, tol), lam, tol)
    return bool(
        np.all(_contains(cone, -p_dir, tol)) and np.all(_contains(_polar(cone), candidate, tol))
    )


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
    cone = _critical_cone(pattern, lam, tol)
    bad_dir = ~_contains(cone, -v_star, tol)
    bad_out = ~_contains(_polar(cone), u_star, tol)
    if np.any(bad_dir | bad_out):
        i = int(np.argmax(bad_dir | bad_out))
        if bad_dir[i]:
            raise InvalidElementError(f"direction component {i} is not in the critical cone")
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
    bounds = np.stack([box.lower, box.upper])
    dist = np.abs(d_ref - bounds)
    gaps = np.concatenate(
        [[1.0], dist[np.isfinite(bounds) & (dist > 0)], np.abs(lam_ref[lam_ref != 0.0])]
    )
    return 0.5 * float(np.min(gaps))


def _probe_states(i, a, d_ref, lam_ref, box, eta):
    """Graph points of the i-th coordinate factor within eta of the reference."""
    if a is Activity.INTERIOR:
        return [(d_ref[i], 0.0), (d_ref[i] - eta, 0.0), (d_ref[i] + eta, 0.0)]
    at = box.upper[i] if a is Activity.AT_UPPER else box.lower[i]
    sign = _SIGNS[a]  # -1 at a lower bound, +1 at an upper one
    if a is Activity.FIXED or sign * lam_ref[i] > 0:  # the multiplier is strict
        return [(at, lam_ref[i]), (at, lam_ref[i] - eta), (at, lam_ref[i] + eta)]
    return [(at, 0.0), (at, sign * eta), (at - sign * eta, 0.0)]


def polyhedral_defect_scan(d_ref, lam_ref, box, tol=ACTIVITY_TOL):
    """Max defect over an exhaustive local sample of probes and elements.

    Probes enumerate all per-coordinate graph states inside the exactness
    radius; elements run over the per-coordinate cone generators (the defect
    is additive across coordinates, so single-coordinate generators plus one
    fully assembled element cover every conic combination).  For a box this
    maximum is exactly zero.

    Each probe is a graph point and each element lies in its cones by
    construction, so the defects are evaluated directly: a single-coordinate
    generator +-e_i has defect |lam_i - lam_ref_i| as a direction and
    |d_i - d_ref_i| as an output.
    """
    d_ref = np.asarray(d_ref, dtype=float)
    lam_ref = np.asarray(lam_ref, dtype=float)
    ref_pattern = _require_graph_point(d_ref, lam_ref, box, tol, what="reference multiplier")
    s = box.dim
    if s > _SCAN_GUARD:
        raise CombinatorialBlowupError(f"dimension {s} exceeds the scan guard {_SCAN_GUARD}")
    delta = exactness_radius(d_ref, lam_ref, box)
    eta = delta / (2.0 * np.sqrt(2.0 * max(1, s)))

    per_coord = [
        _probe_states(i, a, d_ref, lam_ref, box, eta) for i, a in enumerate(ref_pattern)
    ]
    worst = 0.0
    for combo in itertools.product(*per_coord):
        d, lam = np.array(combo, dtype=float).reshape(s, 2).T
        cone = _critical_cone(activity(d, box, tol), lam, tol)
        polar = _polar(cone)
        # the assembled element: -v* and u* pick a nonzero generator of each
        # factor (the upper ray first for -v*, the lower ray first for u*)
        v_star = np.where(cone[1] == np.inf, -1.0, np.where(cone[0] == -np.inf, 1.0, 0.0))
        u_star = np.where(polar[0] == -np.inf, -1.0, np.where(polar[1] == np.inf, 1.0, 0.0))
        d_gap, lam_gap = d - d_ref, lam - lam_ref
        worst = max(
            worst,
            float(np.max(np.abs(lam_gap), where=v_star != 0.0, initial=0.0)),
            float(np.max(np.abs(d_gap), where=u_star != 0.0, initial=0.0)),
            float(abs(u_star @ d_gap - v_star @ lam_gap)),
        )
    return worst
