import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from unittest import mock

from ssnewton import linalg
from ssnewton.errors import DimensionError, RankDeficiencyError, SingularMatrixError
from ssnewton.linalg import (
    PIVOT_TOL,
    RANK_TOL,
    RowFactor,
    _probe_norms,
    _probes,
    factor_rows,
    nullspace_basis,
    pseudo_inverse_full_row_rank,
    require_full_row_rank,
    smallest_singular_value,
    solve_dense,
)


def test_nullspace_single_row():
    z = nullspace_basis(np.array([[1.0, 0.0]]))
    assert np.allclose(z @ z.T, [[0.0, 0.0], [0.0, 1.0]])


def test_nullspace_empty_and_square():
    assert np.allclose(nullspace_basis(np.zeros((0, 3))), np.eye(3))
    z = nullspace_basis(np.eye(3))
    assert z.shape == (3, 0)


def test_nullspace_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        c = rng.uniform(-2, 2, (m, n))
        z = nullspace_basis(c)
        assert z.shape == (n, n - m)
        if z.size:
            assert np.max(np.abs(c @ z)) <= 1e-12 * max(1.0, np.max(np.abs(c)))
            assert np.max(np.abs(z.T @ z - np.eye(n - m))) <= 1e-12


def test_nullspace_rank_deficiency_reports_index():
    c = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(RankDeficiencyError) as info:
        nullspace_basis(c)
    assert info.value.index is not None


def test_require_full_row_rank_is_relative():
    # the floor is 1e-10 x max(1, max |C|), on either sign of the diagonal
    c = np.array([[1e6, 0.0], [0.0, 1e-3]])
    require_full_row_rank(c, [-1e6, 2e-4])
    with pytest.raises(RankDeficiencyError) as info:
        require_full_row_rank(c, [1e6, -1e-4])
    assert info.value.index == 1
    require_full_row_rank(c / 1e6, [1.0, 2e-10])
    with pytest.raises(RankDeficiencyError):
        require_full_row_rank(c / 1e6, [1.0, 1e-10])
    require_full_row_rank(np.zeros((0, 3)), [])


@pytest.mark.parametrize("basis", [nullspace_basis])
def test_nullspace_bases_reject_tall_matrices(basis):
    # more rows than columns: dependent whatever the values, index n
    for tall in (np.ones((2, 1)), np.eye(3)[:, :2]):
        with pytest.raises(RankDeficiencyError) as info:
            basis(tall)
        assert info.value.index == tall.shape[1]
    # non-finite entries are an input error, not a rank verdict
    with pytest.raises(DimensionError):
        basis(np.array([[np.nan, 1.0]]))


def test_row_factor_inverts_r_once_on_first_read(monkeypatch):
    # building a factor inverts nothing; the first read of r_inv is one
    # LAPACK inversion of R, and later reads return that same array
    inverted = []
    inv = np.linalg.inv

    def counted(a):
        inverted.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    factor = factor_rows(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0]]))
    assert inverted == []
    r_inv = factor.r_inv
    assert len(inverted) == 1 and inverted[0] is factor.r
    assert np.allclose(r_inv @ factor.r, np.eye(2), atol=1e-15)
    assert factor.r_inv is r_inv and len(inverted) == 1


def _counting_inv(monkeypatch):
    inverted = []
    inv = np.linalg.inv

    def counted(a):
        inverted.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return inverted


@pytest.mark.parametrize(
    "diagonal",
    [[-2.0, 0.5, 3.0, -1e-3, 7.25], [-0.3], [1e-200, -1e200]],
    ids=["mixed-signs", "1x1", "wide-range"],
)
def test_r_inv_of_a_diagonal_r_is_lapacks_inverse_without_lapack(monkeypatch, diagonal):
    # a diagonal R with no zero on it is inverted entrywise, to the array
    # LAPACK returns for it, and np.linalg.inv is not called
    r = np.diag(diagonal)
    expected = np.linalg.inv(r)
    inverted = _counting_inv(monkeypatch)
    r_inv = RowFactor(r, np.eye(r.shape[0]), r).r_inv
    assert np.array_equal(r_inv, expected) and inverted == []


def test_r_inv_of_signed_unit_rows_takes_no_inversion(monkeypatch):
    # the QP's rows of a bound per coordinate: their R is diagonal
    rows = np.zeros((3, 5))
    rows[[0, 1, 2], [4, 0, 2]] = [1.0, -1.0, -1.0]
    factor = factor_rows(rows)
    assert np.count_nonzero(factor.r) == 3
    expected = np.linalg.inv(factor.r)
    inverted = _counting_inv(monkeypatch)
    assert np.array_equal(factor.r_inv, expected) and inverted == []


def test_r_inv_of_any_other_r_is_one_lapack_inversion(monkeypatch):
    rng = np.random.default_rng(5)
    dense = np.triu(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
    for r in (dense, np.array([[2.0, 1e-300], [0.0, -1.0]])):
        expected = np.linalg.inv(r)
        inverted = _counting_inv(monkeypatch)
        assert np.array_equal(RowFactor(r, None, r).r_inv, expected)
        assert len(inverted) == 1 and inverted[0] is r
    # a zero on the diagonal keeps LAPACK's verdict, a singular matrix
    inverted = _counting_inv(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError):
        RowFactor(None, None, np.diag([1.0, 0.0])).r_inv
    assert len(inverted) == 1


def test_dependence_floor_is_read_once_per_factor(monkeypatch):
    # diag(R)^2 <= 1e-18 max(1, ||row||^2) for some row; the verdict is
    # cached on the factor, and more rows than columns are dependent
    independent = factor_rows(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    dependent = factor_rows(np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]]))
    assert independent.dependent is False and dependent.dependent is True
    calls = []
    monkeypatch.setattr(np, "diag", lambda a: calls.append(a) or np.diagonal(a))
    assert dependent.dependent is True and independent.dependent is False
    assert calls == []
    assert factor_rows(np.ones((3, 2))).dependent is True


def _disjoint_rows(rng, m, n):
    """m rows with disjoint, nonempty supports in n >= m columns, entries
    U(-2, 2) and each row scaled by 10^U(-3, 3)."""
    owner = np.concatenate([np.arange(m), rng.integers(-1, m, n - m)])
    rng.shuffle(owner)
    c = np.zeros((m, n))
    cols = np.flatnonzero(owner >= 0)
    c[owner[cols], cols] = rng.uniform(-2, 2, cols.size)
    return c * 10.0 ** rng.uniform(-3, 3, m)[:, None]


def _assert_factor_matches_lapack(c):
    """factor_rows(c) takes no np.linalg.qr call and agrees with LAPACK's
    reduced QR of C^T: |Q| and |diag R| within a few ulps, Q Q^T to 1e-15,
    the same rank and dependence verdicts.  Returns the factor."""
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        factor = factor_rows(c)
    assert qr.call_count == 0
    q, r = np.linalg.qr(c.T)
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.abs(factor.q) - np.abs(q)) <= 4 * eps)
    assert np.count_nonzero(factor.r - np.diag(np.diagonal(factor.r))) == 0
    d, d_lapack = np.diagonal(factor.r), np.abs(np.diagonal(r))
    assert np.all(np.abs(d - d_lapack) <= 4 * eps * d)
    assert np.max(np.abs(factor.q @ factor.q.T - q @ q.T), initial=0.0) <= 1e-15
    assert np.array_equal(factor.rows, c)
    lapack = RowFactor(c, q, r)
    try:
        require_full_row_rank(c, np.diagonal(r))
    except RankDeficiencyError as exc:
        assert factor.deficiency is not None and factor.deficiency.index == exc.index
    else:
        assert factor.deficiency is None
    assert factor.dependent == lapack.dependent
    return factor


def test_disjoint_rows_take_the_closed_form_qr_without_lapack():
    # Q = C^T D^-1 and R = D = diag(||C_i||): LAPACK's factor up to signs
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, n + 1))
        _assert_factor_matches_lapack(_disjoint_rows(rng, m, n))


@pytest.mark.parametrize("ratio", [1.5, 1.0, 0.5], ids=["above", "at", "below"])
def test_a_closed_form_row_near_the_rank_tolerance_gets_lapacks_verdict(ratio):
    # the rank test reads diag(R) against RANK_TOL x max(1, max |C|): a row
    # of norm just above it is independent, one at or below it is not
    c = np.zeros((3, 5))
    c[0, [0, 3]] = [2.0, -1.0]
    c[1, 1] = ratio * RANK_TOL * 2.0
    c[2, 4] = -0.5
    factor = _assert_factor_matches_lapack(c)
    assert (factor.deficiency is None) == (ratio > 1.0)
    if ratio <= 1.0:
        assert factor.deficiency.index == 1


@pytest.mark.parametrize("tiny_row", [0.0, 1e-170], ids=["zero", "underflowing"])
def test_a_zero_or_underflowing_row_keeps_the_lapack_qr(tiny_row):
    # a zero row has no closed-form Q column, and a row whose squared norm
    # underflows has no accurate D: both take LAPACK's factor as it is
    c = np.zeros((3, 4))
    c[0, 0], c[1, 2], c[2, 3] = 1.0, tiny_row, -2.0
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        factor = factor_rows(c)
    assert qr.call_count == 1
    q, r = np.linalg.qr(c.T)
    assert np.array_equal(factor.q, q) and np.array_equal(factor.r, r)
    assert factor.deficiency is not None and factor.deficiency.index == 1


def test_nullspace_basis_spans_the_svd_kernel():
    # Z Z^T is the projector onto ker(C) that the trailing right singular
    # vectors of C give; the two bases differ by a rotation
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))
        c = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-4, 5)
        z = nullspace_basis(c)
        assert z.shape == (n, n - m)
        assert np.max(np.abs(z.T @ z - np.eye(n - m)), initial=0.0) <= 1e-12
        kernel = np.linalg.svd(c)[2][m:] if m else np.eye(n)
        assert np.max(np.abs(z @ z.T - kernel.T @ kernel), initial=0.0) <= 1e-9
    dependent = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(RankDeficiencyError) as info:
        nullspace_basis(dependent)
    assert info.value.index == 1


def test_solve_dense_trivial():
    rhs = np.array([3.0, -1.0])
    assert np.allclose(solve_dense(np.eye(2), rhs), rhs)
    x = solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_dense_residual_and_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
        rhs = rng.uniform(-1, 1, 6)
        x = solve_dense(a, rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
        xref = rng.uniform(-1, 1, 6)
        xref /= max(1.0, np.linalg.norm(xref))
        assert np.linalg.norm(solve_dense(a, a @ xref) - xref) <= 1e-9


def test_solve_dense_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_singular_verdict_scales_by_the_largest_magnitude_negative_entry():
    # max |A| = 10 comes from a negative entry, so A's largest value (2)
    # would give a tolerance five times too small
    a = np.array([[-5.0, 1.0], [-10.0, 2.0]])
    tol = PIVOT_TOL * max(1.0, np.max(np.abs(a)))
    with pytest.raises(SingularMatrixError, match=rf"tolerance {tol:.3e}$"):
        solve_dense(a, np.ones(2))
    assert f"{tol:.3e}" == "1.000e-11"


def test_solve_dense_rejects_every_rank_deficient_product():
    # rank-(n-1) products at scales 10^U(-8, 8): 20,000 with n = 2..10, then
    # n = 50 and n = 196; each bound ||p|| / ||A^{-1} p|| is an upper bound on
    # sigma_min, and here sigma_min is 0
    rng = np.random.default_rng(9)
    sizes = [int(n) for n in rng.integers(2, 11, 20_000)] + [50] * 200 + [196] * 100
    missed = []
    for i, n in enumerate(sizes):
        a = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        try:
            solve_dense(10.0 ** rng.uniform(-8, 8) * a, rng.standard_normal(n))
        except SingularMatrixError:
            continue
        missed.append((i, n))
    assert missed == []


@pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 196])
def test_no_single_probe_decides_regularity(n):
    # a rank-(n-1) matrix whose left null vector u is orthogonal to one probe
    # leaves that probe's solve bounded; the other probes must still catch it
    rng = np.random.default_rng(n)
    probes = _probes(n)
    for p in probes.T:
        for _ in range(20):
            u = rng.standard_normal(n)
            u -= (u @ p) / (p @ p) * p
            u /= np.linalg.norm(u)
            a = rng.standard_normal((n, n))
            a -= np.outer(u, u @ a)  # u^T A = 0
            with pytest.raises(SingularMatrixError):
                solve_dense(10.0 ** rng.uniform(-8, 8) * a, rng.standard_normal(n))


def test_solve_dense_returns_the_lapack_solution_bit_for_bit():
    # the probe columns share the LAPACK call but never change the solution.
    # With one right-hand side OpenBLAS takes a triangular-solve kernel of its
    # own, so a vector rhs is compared with the same column solved beside a copy
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 197))
        a = 10.0 ** rng.uniform(-4, 4) * (rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n))
        rhs = rng.standard_normal(n)
        expected = np.linalg.solve(a, np.column_stack([rhs, rhs]))[:, 0]
        assert np.array_equal(solve_dense(a, rhs), expected)
        rhs = rng.standard_normal((n, int(rng.integers(2, 6))))
        assert np.array_equal(solve_dense(a, rhs), np.linalg.solve(a, rhs))


def test_solve_dense_makes_one_lapack_call_and_no_qr(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(b.shape)
        return solve(a, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_dense must not factor A by QR")

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    solve_dense(np.diag([2.0, 4.0, 8.0]), np.ones(3))
    with pytest.raises(SingularMatrixError):
        solve_dense(np.ones((3, 3)), np.ones(3))
    pseudo_inverse_full_row_rank(np.array([[1.0, 2.0, 0.0]]))
    # each call carries the right-hand sides and the three probes
    assert calls == [(3, 4), (3, 4), (1, 6)]


def test_solve_dense_checks_finiteness_by_its_scale_and_reads_probe_norms_once():
    # the max and min that give the pivot tolerance also reject a non-finite
    # A, so solve_dense makes no np.isfinite call; the probe columns' norms
    # are computed once per n, so a solve takes the column norms of the
    # solved probes only, bitwise np.linalg.norm's but with no call of it
    rng = np.random.default_rng(5)
    n = 7
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    solve_dense(a, np.ones(n))  # the first solve of size n may compute them
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as finite, \
            mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm, \
            mock.patch.object(linalg, "_column_norms", wraps=linalg._column_norms) as columns:
        for _ in range(3):
            solve_dense(a, np.ones(n))
    assert (finite.call_count, norm.call_count, columns.call_count) == (0, 0, 3)
    norms = _probe_norms(n)
    assert np.array_equal(norms, np.linalg.norm(_probes(n), axis=0))
    assert _probe_norms(n) is norms and not norms.flags.writeable
    solved = np.linalg.solve(a, np.column_stack([np.ones(n), _probes(n)]))[:, 1:]
    assert linalg._column_norms(solved).tobytes() == np.linalg.norm(solved, axis=0).tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2)], ids=["square", "wide", "tall"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_solve_dense_names_non_finite_entries_before_the_shape(shape, entry):
    # a non-finite entry is reported as such, also in a matrix that is not
    # square, and no RuntimeWarning escapes
    a = np.ones(shape)
    a[1, 1] = entry
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DimensionError, match=r"^matrix entries must be finite$"):
            solve_dense(a, np.ones(3))
        for check in (nullspace_basis, pseudo_inverse_full_row_rank, smallest_singular_value):
            with pytest.raises(DimensionError, match=r"^matrix entries must be finite$"):
                check(a)
    assert [str(w.message) for w in caught] == []
    with pytest.raises(DimensionError, match=r"^matrix must be square, got \(2, 3\)$"):
        solve_dense(np.ones((2, 3)), np.ones(2))


def test_row_norms_are_read_once_per_factor():
    # the Newton workspace's D, bitwise np.linalg.norm's: the closed form of
    # disjoint rows holds it from its squared norms (no norm call), and a
    # LAPACK-factored C computes it on first read, once
    cases = ((np.array([[3.0, 4.0, 0.0], [0.0, 0.0, -2.0]]), 0),
             (np.array([[1.0, 2.0], [3.0, 1.0]]), 1))
    for rows, calls in cases:
        factor = factor_rows(rows)
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            first, second = factor.row_norms, factor.row_norms
        assert norm.call_count == calls and first is second
        assert np.array_equal(first, np.linalg.norm(rows, axis=1))


def test_pseudo_inverse_examples():
    assert np.allclose(pseudo_inverse_full_row_rank(np.array([[2.0, 0.0]])), [[0.5], [0.0]])
    assert np.allclose(pseudo_inverse_full_row_rank(np.eye(3)), np.eye(3))


def test_pseudo_inverse_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = rng.uniform(-2, 2, (2, 4))
        dag = pseudo_inverse_full_row_rank(c)
        assert np.max(np.abs(c @ dag - np.eye(2))) <= 1e-10


def test_pseudo_inverse_rank_deficient():
    with pytest.raises(RankDeficiencyError):
        pseudo_inverse_full_row_rank(np.array([[1.0, 0.0], [1.0, 0.0]]))


def _smallest_eig_bisect_3x3(m):
    """Oracle: smallest eigenvalue via sign-chain bisection on the
    characteristic polynomial q(t) = det(tI - M), coefficients by cofactors."""
    a = m[0, 0] + m[1, 1] + m[2, 2]
    b = (
        m[0, 0] * m[1, 1]
        - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2]
        - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2]
        - m[1, 2] * m[2, 1]
    )
    c = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )

    def below_all_roots(t):
        # all roots real: t < lambda_min iff q, q', q'' alternate in sign
        q = ((t - a) * t + b) * t - c
        dq = 3 * t * t - 2 * a * t + b
        ddq = 6 * t - 2 * a
        return q < 0 and dq > 0 and ddq < 0

    radius = float(np.max(np.sum(np.abs(m), axis=1)))
    lo, hi = -radius - 1.0, radius + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below_all_roots(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_smallest_singular_value_examples():
    assert smallest_singular_value(np.diag([3.0, 1.0])) == pytest.approx(1.0)
    assert smallest_singular_value(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0)
    assert smallest_singular_value(np.zeros((0, 3))) == np.inf


def test_smallest_singular_value_against_charpoly_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(-2, 2, (3, 3))
        sigma = smallest_singular_value(c)
        eig = _smallest_eig_bisect_3x3(c.T @ c)
        expected = np.sqrt(max(eig, 0.0))
        top = np.linalg.norm(c, 2)
        assert abs(sigma - expected) <= 1e-9 * max(1.0, top)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


seeds = st.integers(0, 2**32 - 1)
exponents = st.integers(-8, 8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 10), k=exponents)
def test_solve_dense_rejects_rank_deficient_at_every_scale(seed, n, k):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, n))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    with pytest.raises(SingularMatrixError):
        solve_dense(10.0**k * a, rng.standard_normal(n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 10), k=exponents)
def test_solve_dense_backward_error_at_every_scale(seed, n, k):
    rng = np.random.default_rng(seed)
    svals = rng.uniform(1.0, 10.0, n)
    a = 10.0**k * (_orthogonal(rng, n) * svals) @ _orthogonal(rng, n)
    rhs = 10.0**k * rng.standard_normal(n)
    x = solve_dense(a, rhs)
    backward = np.linalg.norm(a @ x - rhs) / (
        np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(rhs)
    )
    assert backward <= 8 * n * np.finfo(float).eps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, m=st.integers(2, 5), extra=st.integers(0, 4), k=exponents)
def test_pseudo_inverse_rejects_dependent_rows_at_every_scale(seed, m, extra, k):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, m + extra))
    c[-1] = rng.standard_normal(m - 1) @ c[:-1]
    with pytest.raises(RankDeficiencyError):
        pseudo_inverse_full_row_rank(10.0**k * c)
