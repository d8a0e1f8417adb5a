"""Small dense linear-algebra kernel.

Everything here operates on plain ``numpy`` arrays at desk scale (a few
hundred rows at most).  The LQ factorization uses a fixed sign convention --
all diagonal entries of the triangular factor are nonnegative -- which makes
the returned orthogonal factor (and hence the null-space basis taken from its
trailing columns) a deterministic function of the input.  It is continuous
away from inputs where a reduced column is a positive multiple of e1 (see
:func:`lq_householder`).  The Newton step does not depend on the choice of
the null-space basis, so the Newton machinery needs no such continuity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficiencyError, SingularMatrixError

RANK_TOL = 1e-10
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class QRFactorization:
    """Orthogonal factorization C Q = (L : 0).

    ``q`` is n x n orthogonal, ``l`` is m x m lower triangular with
    nonnegative diagonal.  ``rank_ok`` is True iff every diagonal entry of
    ``l`` exceeds the rank tolerance relative to the scale of C.
    """

    q: np.ndarray
    l: np.ndarray
    rank_ok: bool


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
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)

    a = c.T.copy()  # n x m, reduced to upper triangular
    # compact WY form: H_0 H_1 ... H_k = I - ws[:, :k+1] vs[:, :k+1]^T, where
    # H_k = I - beta v v^T; columns stay zero where no reflection was needed
    vs = np.zeros((n, m))
    ws = np.zeros((n, m))
    for k in range(m):
        x = a[k:, k]
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue  # zero column: diagonal stays 0, rank_ok will be False
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

    l = a[:m, :m].T.copy()
    diag = np.diagonal(l)
    rank_ok = bool(diag.size == 0 or np.min(diag) > RANK_TOL * scale)
    return QRFactorization(q=q, l=l, rank_ok=rank_ok)


def nullspace_basis(c):
    """Orthonormal basis of ker(C) for a full-row-rank m x n matrix C.

    Returns the trailing n - m columns of the orthogonal factor of
    :func:`lq_householder`, so C Z = 0 and Z^T Z = I.  The sign convention
    makes Z deterministic, and continuous in C away from inputs where a
    reduced column is a positive multiple of e1.  The Newton step does not
    depend on the choice of Z.
    """
    c = _as_matrix(c)
    m, n = c.shape
    fac = lq_householder(c)
    if not fac.rank_ok:
        diag = np.diagonal(fac.l)
        bad = int(np.argmin(diag)) if diag.size else 0
        raise RankDeficiencyError(
            f"matrix is rank deficient (diagonal {bad} of L is "
            f"{diag[bad] if diag.size else 0.0:.3e})",
            index=bad,
        )
    return fac.q[:, m:].copy()


def _solve_regular(a, rhs, error, what):
    """LAPACK solve of A X = rhs behind a relative regularity check.

    Raises ``error`` when sigma_min(A) is shown to be at most 1e-12 x
    max(1, max |A|).  Two upper bounds on sigma_min are checked: min |R_kk|
    of A = QR (R has the singular values of A), and ||p|| / ||A^{-1} p|| for
    a fixed pseudo-random probe p solved alongside rhs.  The probe catches
    the rank deficiency an unpivoted triangular factor can hide.
    """
    n = a.shape[0]
    tol = PIVOT_TOL * max(1.0, float(np.max(np.abs(a))))
    bound = float(np.min(np.abs(np.diagonal(np.linalg.qr(a, mode="r")))))
    if bound > tol:
        probe = np.random.default_rng(0).standard_normal(n)
        try:
            sol = np.linalg.solve(a, np.column_stack([rhs, probe]))
        except np.linalg.LinAlgError:
            sol = np.full((n, 1), np.inf)  # exactly zero pivot
        # np.minimum keeps a NaN, which then counts as singular
        bound = float(np.minimum(bound, np.linalg.norm(probe) / np.linalg.norm(sol[:, -1])))
    if not bound > tol:
        raise error(f"{what}: sigma_min <= {bound:.3e}, tolerance {tol:.3e}")
    return sol[:, :-1].reshape(rhs.shape)


def solve_dense(a, rhs):
    """Solve the square system A x = rhs with LAPACK (LU, partial pivoting).

    ``rhs`` is a vector or a matrix with one right-hand side per column.
    Raises :class:`SingularMatrixError` when the diagonal of the QR factor R
    of A, or a probe solved with the same LU, shows sigma_min(A) at most
    1e-12 x matrix scale.
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
