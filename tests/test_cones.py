import itertools

import numpy as np
import pytest

from helpers import graph_point, random_box
from ssnewton.cones import (
    Activity,
    BoxSet,
    _normal_cone,
    activity,
    basis_for_pattern,
    critical_cone_membership,
    enumerate_face_index_sets,
    exactness_radius,
    normal_cone_membership,
    normal_signs,
    pattern_summary,
    polyhedral_defect_scan,
    regular_coderivative_nd,
    semismooth_star_defect,
    span_normal_basis,
)
from ssnewton.errors import (
    CombinatorialBlowupError,
    DimensionError,
    InfeasiblePointError,
    InvalidElementError,
    InvalidMultiplierError,
)

NEG = BoxSet.nonpositive(1)


def test_box_validation():
    with pytest.raises(DimensionError):
        BoxSet([1.0], [0.0])
    with pytest.raises(DimensionError):
        BoxSet([np.inf], [np.inf])
    with pytest.raises(DimensionError, match="NaN"):
        BoxSet([-1.0, np.nan], [1.0, np.nan])  # NaN > NaN is False
    box = BoxSet([-1.0, -np.inf], [1.0, 0.0])
    assert box.dim == 2
    assert box.contains([0.0, -5.0])
    assert not box.contains([2.0, 0.0])


def test_activity_examples():
    assert activity(np.array([-1.0]), NEG) == (Activity.INTERIOR,)
    assert activity(np.array([0.0]), NEG) == (Activity.AT_UPPER,)
    box2 = BoxSet.nonpositive(2)
    assert activity(np.array([0.0, -0.19]), box2, tol=1e-9) == (
        Activity.AT_UPPER,
        Activity.INTERIOR,
    )
    fixed = BoxSet([0.0], [0.0])
    assert activity(np.array([0.0]), fixed) == (Activity.FIXED,)
    with pytest.raises(InfeasiblePointError) as info:
        activity(np.array([0.5]), NEG)
    assert info.value.coord == 0


def test_activity_matches_a_coordinatewise_reference():
    # narrow intervals put points within tol of both bounds: the nearer one
    # wins, the lower on a tie
    rng = np.random.default_rng(3)
    tol = 1e-9
    for _ in range(200):
        s = int(rng.integers(1, 7))
        lo = rng.choice([-1.0, 0.0], s)
        width = rng.choice([0.0, 5e-10, 2e-9, 1.0, np.inf], s)
        box = BoxSet(np.where(rng.random(s) < 0.2, -np.inf, lo), lo + width)
        # points across each interval, its midpoint (a tie) included, and a
        # few below it
        step = rng.choice([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0], s, p=[0.04] + [0.192] * 5)
        d = lo + step * np.minimum(width, 4e-9)
        expected = []
        for i in range(s):
            lo_i, hi_i = box.lower[i], box.upper[i]
            if d[i] < lo_i - tol or d[i] > hi_i + tol:
                break
            near_lo, near_hi = abs(d[i] - lo_i) <= tol, abs(d[i] - hi_i) <= tol
            if lo_i == hi_i:
                expected.append(Activity.FIXED)
            elif near_lo and not (near_hi and abs(d[i] - hi_i) < abs(d[i] - lo_i)):
                expected.append(Activity.AT_LOWER)
            elif near_hi:
                expected.append(Activity.AT_UPPER)
            else:
                expected.append(Activity.INTERIOR)
        else:
            assert activity(d, box, tol) == tuple(expected)
            continue
        with pytest.raises(InfeasiblePointError) as info:
            activity(d, box, tol)
        assert info.value.coord == len(expected)


def test_pattern_summary():
    assert pattern_summary((Activity.AT_UPPER, Activity.INTERIOR)) == "UI"


def test_each_code_reads_its_member_letter_cone_and_sign():
    # one coordinate of each kind: activity returns the members themselves
    # (the benchmark tracer counts them by identity), and each table lookup
    # gives the kind's letter, normal cone and basis sign
    box = BoxSet([0.0, -1.0, -1.0, 2.0], [1.0, 1.0, 1.0, 2.0])
    pattern = activity(np.array([0.5, -1.0, 1.0, 2.0]), box)
    assert all(a is b for a, b in zip(pattern, Activity, strict=True))
    assert bytes(pattern) == bytes([0, 1, 2, 3])
    assert pattern_summary(pattern) == "ILUF"
    lower, upper = _normal_cone(pattern)
    assert lower.tolist() == [0.0, -np.inf, 0.0, -np.inf]
    assert upper.tolist() == [0.0, 0.0, np.inf, np.inf]
    assert normal_signs(pattern).tolist() == [0.0, -1.0, 1.0, 1.0]


def test_normal_cone_membership():
    assert normal_cone_membership(np.array([-1.0]), np.array([0.0]), NEG)
    # multiplier arising on the active branch of the scalar complementarity problem
    x = 0.0125
    assert normal_cone_membership(np.array([0.0]), np.array([2 * x + x * x]), NEG)
    assert not normal_cone_membership(np.array([0.0]), np.array([-1.0]), NEG)
    assert not normal_cone_membership(np.array([-1.0]), np.array([0.5]), NEG)
    lower = BoxSet([0.0], [np.inf])
    assert normal_cone_membership(np.array([0.0]), np.array([-2.0]), lower)
    assert not normal_cone_membership(np.array([0.0]), np.array([2.0]), lower)


def test_span_normal_basis():
    assert span_normal_basis(np.array([-1.0, -2.0]), BoxSet.nonpositive(2)).shape == (2, 0)
    assert np.allclose(span_normal_basis(np.array([0.0]), NEG), [[1.0]])
    box = BoxSet([0.0, -np.inf], [0.0, 0.0])
    w = span_normal_basis(np.array([0.0, -1.0]), box)
    assert np.allclose(w, [[1.0], [0.0]])
    lower = BoxSet([-1.0], [np.inf])
    assert np.allclose(span_normal_basis(np.array([-1.0]), lower), [[-1.0]])


def test_span_columns_are_normals():
    rng = np.random.default_rng(0)
    for _ in range(50):
        box = random_box(rng, int(rng.integers(1, 5)))
        d, _ = graph_point(rng, box)
        w = span_normal_basis(d, box)
        for col in w.T:
            assert normal_cone_membership(d, col, box)


def test_critical_cone_membership():
    zero = np.array([0.0])
    assert critical_cone_membership(zero, zero, zero, NEG)
    assert critical_cone_membership(np.array([-1.0]), zero, zero, NEG)
    assert not critical_cone_membership(np.array([1.0]), zero, zero, NEG)
    assert not critical_cone_membership(np.array([-1.0]), zero, np.array([1.0]), NEG)
    with pytest.raises(InvalidMultiplierError):
        critical_cone_membership(zero, zero, np.array([-1.0]), NEG)


def test_enumerate_face_index_sets():
    zero = np.array([0.0])
    assert enumerate_face_index_sets(zero, zero, NEG) == [(), (0,)]
    assert enumerate_face_index_sets(zero, np.array([2.0]), NEG) == [(0,)]
    box2 = BoxSet.nonpositive(2)
    sets = enumerate_face_index_sets(np.zeros(2), np.zeros(2), box2)
    assert sorted(sets) == [(), (0,), (0, 1), (1,)]
    fixed = BoxSet([0.0, -np.inf], [0.0, 0.0])
    assert enumerate_face_index_sets(np.array([0.0, -1.0]), np.array([3.0, 0.0]), fixed) == [(0,)]


def test_enumeration_guard():
    s = 21
    box = BoxSet.nonpositive(s)
    with pytest.raises(CombinatorialBlowupError):
        enumerate_face_index_sets(np.zeros(s), np.zeros(s), box)


def test_regular_coderivative():
    zero = np.array([0.0])
    assert regular_coderivative_nd(zero, zero, zero, zero, NEG)
    # K = R_-, polar R_+: direction +1 leaves -p in K, candidate 5 is in the polar
    assert regular_coderivative_nd(zero, zero, np.array([1.0]), np.array([5.0]), NEG)
    assert not regular_coderivative_nd(zero, zero, np.array([-1.0]), zero, NEG)
    assert not regular_coderivative_nd(zero, zero, np.array([1.0]), np.array([-5.0]), NEG)


def test_defect_examples():
    zero = np.array([0.0])
    ref = (zero, zero)
    assert semismooth_star_defect(ref, ref, (zero, zero), NEG) == 0.0
    # probe with positive multiplier: critical cone collapses to {0}
    probe = (zero, np.array([0.5]))
    assert semismooth_star_defect(ref, probe, (zero, np.array([1.0])), NEG) == 0.0
    # interior probe: polar collapses to {0}
    probe = (np.array([-0.3]), zero)
    assert semismooth_star_defect(ref, probe, (np.array([1.0]), zero), NEG) == 0.0
    with pytest.raises(InvalidElementError):
        semismooth_star_defect(ref, probe, (zero, np.array([1.0])), NEG)
    with pytest.raises(InvalidMultiplierError):
        semismooth_star_defect((zero, np.array([-1.0])), probe, (zero, zero), NEG)


def test_cone_polar_duality_sampled():
    # v in K and u* in polar(K) implies <u*, v> <= 0
    rng = np.random.default_rng(1)
    for _ in range(200):
        box = random_box(rng, int(rng.integers(1, 4)))
        d, lam = graph_point(rng, box)
        w = span_normal_basis(d, box)
        v = rng.uniform(-1, 1, box.dim)
        # project v into the critical cone coordinatewise
        pattern = activity(d, box)
        for i, a in enumerate(pattern):
            if a is Activity.FIXED:
                v[i] = 0.0
            elif a is Activity.AT_UPPER:
                v[i] = 0.0 if lam[i] > 1e-9 else -abs(v[i])
            elif a is Activity.AT_LOWER:
                v[i] = 0.0 if lam[i] < -1e-9 else abs(v[i])
        assert critical_cone_membership(v, d, lam, box)
        # polar elements: conic combinations of signed normals at strongly
        # active coordinates plus free components where the cone is {0}
        u_star = np.zeros(box.dim)
        for i, a in enumerate(pattern):
            if a is Activity.AT_UPPER:
                u_star[i] = rng.uniform(0, 1) if lam[i] <= 1e-9 else rng.uniform(-1, 1)
            elif a is Activity.AT_LOWER:
                u_star[i] = -rng.uniform(0, 1) if lam[i] >= -1e-9 else rng.uniform(-1, 1)
            elif a is Activity.FIXED:
                u_star[i] = rng.uniform(-1, 1)
        assert u_star @ v <= 1e-12


def test_active_sets_near_reference_are_enumerated_faces():
    # near (d_ref, lam_ref), every graph point's activity selects one of the
    # enumerated index sets, and the basis matches the signed units of its set
    rng = np.random.default_rng(2)
    for _ in range(100):
        box = random_box(rng, int(rng.integers(1, 4)))
        d_ref, lam_ref = graph_point(rng, box)
        sets = set(enumerate_face_index_sets(d_ref, lam_ref, box))
        delta = exactness_radius(d_ref, lam_ref, box)
        eta = delta / (2 * np.sqrt(2.0 * box.dim))
        from ssnewton.cones import _probe_states

        ref_pattern = activity(d_ref, box)
        per_coord = [
            _probe_states(i, a, d_ref, lam_ref, box, eta)
            for i, a in enumerate(ref_pattern)
        ]
        for combo in itertools.product(*per_coord):
            d = np.array([c[0] for c in combo])
            lam = np.array([c[1] for c in combo])
            pattern = activity(d, box)
            index_set = tuple(
                i for i, a in enumerate(pattern) if a is not Activity.INTERIOR
            )
            assert index_set in sets
            w = span_normal_basis(d, box)
            signed = basis_for_pattern(pattern)
            assert np.array_equal(w, signed)


def test_polyhedral_exactness_spot():
    assert polyhedral_defect_scan(np.zeros(1), np.zeros(1), NEG) == 0.0
    box = BoxSet([-1.0, 0.0], [1.0, 0.0])
    assert polyhedral_defect_scan(np.array([1.0, 0.0]), np.array([0.0, -2.0]), box) == 0.0
