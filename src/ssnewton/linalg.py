"""Small dense linear-algebra kernel.

Everything here operates on plain ``numpy`` arrays at desk scale (a few
hundred rows at most).  The LQ factorization uses a fixed sign convention --
all diagonal entries of the triangular factor are nonnegative -- which makes
the returned orthogonal factor (and hence the null-space basis taken from its
trailing columns) a deterministic function of the input.  It is continuous
away from inputs where a reduced column is a positive multiple of e1 (see
:func:`lq_householder`).  The Newton step does not depend on the choice of
the null-space basis, so it takes its basis from one LAPACK QR
(:func:`lapack_nullspace_basis`) and needs no such continuity; the oracles
and the second-order checker use :func:`nullspace_basis`.  Both go through
:func:`require_full_row_rank`, the one rank test.  Square systems are
solved by :func:`solve_dense` in one LAPACK LU call, which also certifies
their regularity from a few fixed probe columns solved next to the
right-hand side (:func:`_solve_regular`).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficiencyError, SingularMatrixError

RANK_TOL = 1e-10
PIVOT_TOL = 1e-12
PROBES = 3


@dataclass(frozen=True)
class QRFactorization:
    """Orthogonal factorization C Q = (L : 0).

    ``q`` is n x n orthogonal, ``l`` is m x m lower triangular with
    nonnegative diagonal.
    """

    q: np.ndarray
    l: np.ndarray


def _as_matrix(c):
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={c.ndim}")
    if c.size and not np.isfinite(c).all():
        raise DimensionError("matrix entries must be finite")
    return c


def lq_householder(c):
    """Factor a wide matrix as C Q = (L : 0) with L lower triangular.

    Householder reflections applied to C^T, with each reflection chosen so
    the produced diagonal entry is nonnegative; the reflector direction is
    computed in the cancellation-free form.  Q is deterministic, and
    continuous in C away from inputs where a reduced column is a positive
    multiple of e1: such a column needs no reflection, while a column next
    to it gets one that flips the remaining coordinates (at C = [[1, 0, 0]]
    a perturbation of 1e-12 moves the null-space basis by 2).  The product
    of the reflections is kept in compact WY form, Q = I - W V^T, and formed
    by one matrix product.

    Requires m <= n.
    """
    c = _as_matrix(c)
    m, n = c.shape
    if m > n:
        raise DimensionError(f"need rows <= cols, got {m}x{n}")
    a = c.T.copy()  # n x m, reduced to upper triangular
    # compact WY form: H_0 H_1 ... H_k = I - ws[:, :k+1] vs[:, :k+1]^T, where
    # H_k = I - beta v v^T; columns stay zero where no reflection was needed
    vs = np.zeros((n, m))
    ws = np.zeros((n, m))
    for k in range(m):
        x = a[k:, k]
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue  # zero column: diagonal stays 0
        sigma = float(x[1:] @ x[1:])
        if x[0] > 0.0:
            if sigma == 0.0:
                a[k, k] = alpha
                continue  # already aligned with +e1, no reflection needed
            v0 = -sigma / (x[0] + alpha)
        else:
            v0 = x[0] - alpha
        v = x.copy()
        v[0] = v0
        beta = 2.0 / (v0 * v0 + sigma)
        a[k:, k:] -= beta * np.outer(v, v @ a[k:, k:])
        a[k, k] = alpha
        a[k + 1:, k] = 0.0
        vs[k:, k] = v
        ws[:, k] = beta * (vs[:, k] - ws[:, :k] @ (vs[:, :k].T @ vs[:, k]))
    q = np.eye(n) - ws @ vs.T

    return QRFactorization(q=q, l=a[:m, :m].T.copy())


def _wide_matrix(c):
    """C as a float matrix; more rows than columns counts as rank deficient.

    Such rows cannot be independent whatever their values, so the error's
    index is n, the first row that cannot be.
    """
    c = _as_matrix(c)
    m, n = c.shape
    if m > n:
        raise RankDeficiencyError(
            f"matrix is rank deficient ({m} rows, {n} columns)", index=n
        )
    return c


def require_full_row_rank(c, diag):
    """Raise :class:`RankDeficiencyError` unless C, m x n with m <= n, has full row rank.

    ``diag`` is the diagonal of a triangular factor of C (the L of C Q =
    (L : 0), or the R of C^T = Q R); each entry must exceed RANK_TOL x
    max(1, max |C|) in magnitude, and the error's index is the first
    smallest one.
    """
    diag = np.abs(diag)
    tol = RANK_TOL * max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)
    if diag.size and not np.min(diag) > tol:
        bad = int(np.argmin(diag))
        raise RankDeficiencyError(
            f"matrix is rank deficient (diagonal {bad} of the triangular "
            f"factor is {diag[bad]:.3e})",
            index=bad,
        )


def nullspace_basis(c):
    """Orthonormal basis of ker(C) for a full-row-rank m x n matrix C.

    Returns the trailing n - m columns of the orthogonal factor of
    :func:`lq_householder`, so C Z = 0 and Z^T Z = I.  The sign convention
    makes Z deterministic, and continuous in C away from inputs where a
    reduced column is a positive multiple of e1.  Raises
    :class:`RankDeficiencyError` (see :func:`require_full_row_rank`) when C
    has more rows than columns or its rows are dependent.
    """
    c = _wide_matrix(c)
    fac = lq_householder(c)
    require_full_row_rank(c, np.diagonal(fac.l))
    return fac.q[:, c.shape[0]:].copy()


def lapack_nullspace_basis(c):
    """Orthonormal basis of ker(C) from one LAPACK QR, C^T = Q R (complete).

    Same contract and rank test as :func:`nullspace_basis`, but the basis
    carries no sign convention and need not be continuous in C: use it
    where the result does not depend on the choice of basis.
    """
    c = _wide_matrix(c)
    q, r = np.linalg.qr(c.T, mode="complete")
    require_full_row_rank(c, np.diagonal(r))
    return q[:, c.shape[0]:]


@functools.lru_cache(maxsize=None)
def _probes(n):
    """The PROBES fixed pseudo-random probe columns for size n, read-only."""
    probes = np.random.default_rng(0).standard_normal((n, PROBES))
    probes.flags.writeable = False
    return probes


def _solve_regular(a, rhs, error, what):
    """LAPACK solve of A X = rhs behind a relative regularity check.

    Raises ``error`` when sigma_min(A) is shown to be at most 1e-12 x
    max(1, max |A|).  The PROBES fixed pseudo-random columns p_i of
    :func:`_probes` are solved in the same LAPACK call as rhs, and each
    ||p_i|| / ||A^{-1} p_i|| is an upper bound on sigma_min; the check uses
    their minimum, so a "singular" verdict is never false.  An exactly zero
    pivot reads as bound 0.  The probe columns do not change the solution
    columns of rhs.
    """
    n = a.shape[0]
    tol = PIVOT_TOL * max(1.0, float(np.max(np.abs(a))))
    probes = _probes(n)
    try:
        sol = np.linalg.solve(a, np.column_stack([rhs, probes]))
    except np.linalg.LinAlgError:
        sol = np.full((n, PROBES), np.inf)  # exactly zero pivot
    ratios = np.linalg.norm(probes, axis=0) / np.linalg.norm(sol[:, -PROBES:], axis=0)
    # a NaN ratio makes the minimum NaN, which then counts as singular
    bound = float(np.min(ratios))
    if not bound > tol:
        raise error(f"{what}: sigma_min <= {bound:.3e}, tolerance {tol:.3e}")
    return sol[:, :-PROBES].reshape(rhs.shape)


def solve_dense(a, rhs):
    """Solve the square system A x = rhs with LAPACK (LU, partial pivoting).

    ``rhs`` is a vector or a matrix with one right-hand side per column.
    Raises :class:`SingularMatrixError` when any of the probes that
    :func:`_solve_regular` solves in the same LAPACK call shows
    sigma_min(A) at most 1e-12 x matrix scale.
    """
    a = _as_matrix(a)
    rhs = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionError(f"rhs has shape {rhs.shape}, expected ({n},) or ({n}, k)")
    if n == 0:
        return np.zeros(rhs.shape)
    return _solve_regular(a, rhs, SingularMatrixError, "matrix is singular")


def lu_min_pivot(a):
    """Smallest pivot magnitude met during partial-pivot elimination.

    Used as the regularity score of a square matrix: the matrix counts as
    regular when this exceeds the pivot tolerance times its scale.  Never
    raises; an exactly breakdown pivot reports as 0.0.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    if n == 0:
        return np.inf
    lu = a.copy()
    smallest = np.inf
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[p, k])
        smallest = min(smallest, pivot)
        if pivot == 0.0:
            return 0.0
        if p != k:
            lu[[k, p]] = lu[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return float(smallest)


def pseudo_inverse_full_row_rank(c):
    """Moore-Penrose inverse C^T (C C^T)^{-1} of a full-row-rank matrix."""
    c = _as_matrix(c)
    m, n = c.shape
    if m == 0:
        return np.zeros((n, 0))
    gram = c @ c.T
    return _solve_regular(gram, c, RankDeficiencyError, "matrix does not have full row rank").T


def smallest_singular_value(c):
    """Smallest singular value of C; +inf for an empty matrix by convention."""
    c = _as_matrix(c)
    if 0 in c.shape:
        return np.inf
    return float(np.linalg.svd(c, compute_uv=False)[-1])
