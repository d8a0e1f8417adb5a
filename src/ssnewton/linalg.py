"""Small dense linear-algebra kernel.

Everything here operates on plain ``numpy`` arrays at desk scale (a few
hundred rows at most) and calls LAPACK for every factorization that has no
closed form.  Orthonormal bases of the row space and of the null space of a
wide matrix C come from one QR of C^T (:func:`factor_rows`, reduced;
:func:`nullspace_basis`, complete), whose triangular factor also gives the
one rank test, :func:`require_full_row_rank`.  Rows with disjoint supports
(:func:`disjoint_row_norms2`) are exactly orthogonal, and :func:`factor_rows`
gives them the reduced QR Q = C^T D^-1, R = D = diag(||C_i||) with no
LAPACK call; a caller that has already tested the supports and holds the
squared norms builds that factor from them (:func:`_disjoint_factor`), so
the test runs once; the squared norms are summed in a fixed order, so they
do not depend on C's memory layout, and their square roots are that
factor's row norms.  A :class:`RowFactor` keeps C, Q, R, the rank verdict
and, on first use, R^-1 and (unless the closed form holds them) the row
norms of C together, so one
factorization of a set of active rows serves every user of it (numpy has
no triangular solve, so a triangular solve with R is a product with R^-1:
the reciprocal diagonal when R is diagonal, as it is for rows with
disjoint supports, else one LAPACK inversion).  The factor also carries
the QP's dependence floor, tested once per factor however often it is
reused (:attr:`RowFactor.dependent`).  The bases carry no sign convention:
every caller uses them only through quantities that do not change when
they are rotated.  Square systems are solved by :func:`solve_dense` in one
LAPACK LU call, which also certifies their regularity from a few fixed
probe columns solved next to the right-hand side (:func:`_solve_regular`);
their norms are summed as ``np.linalg.norm`` sums them, with no call of it.
Every matrix is checked for finite entries by the max and min of its
entries that its scale needs anyway (a NaN makes both NaN), not by a
separate ``isfinite`` pass.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficiencyError, SingularMatrixError

RANK_TOL = 1e-10
PIVOT_TOL = 1e-12
DEP_REL_TOL = 1e-18  # ||z||^2 below this times ||n||^2 counts as dependent
PROBES = 3
_TINY = np.finfo(float).tiny  # the smallest normal float


def _max_abs(a):
    """max |A| from max and min of A, with no |A| copy; NaN when A has a NaN."""
    return float(max(a.max(), -a.min()))


def _as_matrix(c):
    """C as a 2-d float array with finite entries, and max |C| (0 when empty)."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={c.ndim}")
    top = _max_abs(c) if c.size else 0.0
    if not top < np.inf:
        raise DimensionError("matrix entries must be finite")
    return c, top


def require_full_row_rank(c, diag):
    """Raise :class:`RankDeficiencyError` unless C, m x n with m <= n, has full row rank.

    ``diag`` is the diagonal of a triangular factor of C (the R of
    C^T = Q R); each entry must exceed RANK_TOL x max(1, max |C|) in
    magnitude, and the error's index is the first smallest one.
    """
    diag = np.abs(diag)
    tol = RANK_TOL * max(1.0, _max_abs(c) if c.size else 0.0)
    if diag.size and not diag.min() > tol:
        bad = int(np.argmin(diag))
        raise RankDeficiencyError(
            f"matrix is rank deficient (diagonal {bad} of the triangular "
            f"factor is {diag[bad]:.3e})",
            index=bad,
        )


def _too_many_rows(m, n):
    """The error for m > n rows: they cannot be independent whatever their
    values, so its index is n, the first row that cannot be."""
    return RankDeficiencyError(f"matrix is rank deficient ({m} rows, {n} columns)", index=n)


@dataclass(frozen=True, eq=False)
class RowFactor:
    """One reduced QR C^T = Q R of an m x n matrix C, and its rank verdict.

    ``deficiency`` is the :class:`RankDeficiencyError` that
    :func:`require_full_row_rank` raises on R, or None when C has full row
    rank.  With more rows than columns no QR is taken: q and r are None.
    """

    rows: np.ndarray  # C
    q: np.ndarray  # n x m, orthonormal columns spanning range(C^T)
    r: np.ndarray  # m x m upper triangular
    deficiency: RankDeficiencyError = None

    @functools.cached_property
    def r_inv(self):
        """R^-1, computed on first read.

        A diagonal R with no zero on its diagonal is inverted entrywise:
        LAPACK's inverse of it is that same reciprocal diagonal (only the
        sign of an off-diagonal zero can differ).  Any other R takes one
        LAPACK inversion.
        """
        d = np.diagonal(self.r)
        if np.count_nonzero(self.r) == d.size and d.all():
            with np.errstate(over="ignore"):  # 1/d of a subnormal d is inf, as in LAPACK
                return np.diag(1.0 / d)
        return np.linalg.inv(self.r)

    @functools.cached_property
    def row_norms(self):
        """np.linalg.norm(C, axis=1), computed on first read; the closed form
        of :func:`_disjoint_factor` holds it from the start."""
        return np.linalg.norm(self.rows, axis=1)

    @functools.cached_property
    def coordinates(self):
        """(columns, entries, free) when every row of C has exactly one
        nonzero, in distinct columns, else None; read once per factor.

        Row i's nonzero is C[i, columns[i]] = entries[i], and ``free`` is
        every other column, ascending.  True of no rows (m = 0).
        """
        c = self.rows
        m, n = c.shape
        nonzero = c != 0.0
        columns = np.argmax(nonzero, axis=1)  # each row's first nonzero
        entries = c[np.arange(m), columns]
        free = np.ones(n, dtype=bool)
        free[columns] = False
        # m nonzeros, none in a zero row, and m columns taken: one per row
        if np.count_nonzero(nonzero) != m or not entries.all() or np.count_nonzero(free) != n - m:
            return None
        return columns, entries, np.flatnonzero(free)

    @functools.cached_property
    def dependent(self):
        """Some row fails the dependence floor, read once per factor.

        Row i's squared distance to the span of the rows before it, R_ii^2,
        is at most DEP_REL_TOL x max(1, ||C_i||^2); always true with more
        rows than columns (no QR).
        """
        if self.r is None:
            return True
        nn = np.maximum(1.0, np.sum(self.rows * self.rows, axis=1))
        return bool(np.any(np.diag(self.r) ** 2 <= DEP_REL_TOL * nn))


def disjoint_row_norms2(c):
    """The squared row norms of C when its rows have disjoint supports, else None.

    Rows have disjoint supports when each column of C has at most one
    nonzero (an O(mn) test: C has as many nonzeros as nonzero columns);
    they are then exactly orthogonal.  None also when a nonzero row's
    squared norm under- or overflows the normal floats, so that every
    formula built on these norms keeps full relative precision; a zero
    row's is 0.  Each row's squares are summed by one ``np.add.reduce``
    over a C-ordered array of them, as ``np.linalg.norm(C, axis=1)`` sums
    them for a C-ordered C, so the sums do not depend on C's layout and
    each is bitwise that of the same row in any other C-ordered matrix.
    """
    nonzero = c != 0.0
    if np.count_nonzero(nonzero) != np.count_nonzero(np.logical_or.reduce(nonzero, axis=0)):
        return None
    norms2 = np.add.reduce(np.multiply(c, c, order="C"), axis=1)
    normal = (norms2 >= _TINY) & (norms2 < np.inf)
    if not normal.all() and not (normal | ~nonzero.any(axis=1)).all():
        return None
    return norms2


def _ranked(c, q, r):
    """The :class:`RowFactor` of C^T = Q R with its verdict from the rank test."""
    try:
        require_full_row_rank(c, np.diagonal(r))
    except RankDeficiencyError as exc:
        return RowFactor(c, q, r, exc.with_traceback(None))
    return RowFactor(c, q, r)


def _disjoint_factor(c, norms2):
    """The closed-form :class:`RowFactor` of rows with disjoint supports.

    ``norms2`` is :func:`disjoint_row_norms2` of C, with no zero entry:
    Q = C^T D^-1 and R = D = diag(sqrt(norms2)).  Those square roots are
    also the factor's :attr:`RowFactor.row_norms`, so C's rows are not read
    again for them.
    """
    norms = np.sqrt(norms2)
    factor = _ranked(c, c.T / norms, np.diag(norms))
    factor.__dict__["row_norms"] = norms  # the cached_property's slot
    return factor


def factor_rows(c):
    """The :class:`RowFactor` of C.

    Rows with disjoint supports and no zero row (see
    :func:`disjoint_row_norms2`) have the reduced QR Q = C^T D^-1,
    R = D = diag(||C_i||) in closed form (:func:`_disjoint_factor`); any
    other C takes one reduced LAPACK QR of C^T.  Both go through the same
    rank test.
    """
    m, n = c.shape
    if m > n:
        return RowFactor(c, None, None, _too_many_rows(m, n))
    norms2 = disjoint_row_norms2(c)
    if norms2 is not None and norms2.all():
        return _disjoint_factor(c, norms2)
    return _ranked(c, *np.linalg.qr(c.T))


def nullspace_basis(c):
    """Orthonormal basis of ker(C) for a full-row-rank m x n matrix C.

    Returns the trailing n - m columns of Q from one complete LAPACK QR,
    C^T = Q R, so C Z = 0 and Z^T Z = I.  Z carries no sign convention and
    need not be continuous in C: use it where the result does not depend on
    the choice of basis.  Raises :class:`RankDeficiencyError` when C has
    more rows than columns (index n) or dependent rows (see
    :func:`require_full_row_rank`).
    """
    c, _ = _as_matrix(c)
    m, n = c.shape
    if m > n:
        raise _too_many_rows(m, n)
    q, r = np.linalg.qr(c.T, mode="complete")
    require_full_row_rank(c, np.diagonal(r))
    return q[:, m:]


@functools.lru_cache(maxsize=None)
def _probes(n):
    """The PROBES fixed pseudo-random probe columns for size n, read-only."""
    probes = np.random.default_rng(0).standard_normal((n, PROBES))
    probes.flags.writeable = False
    return probes


def _column_norms(a):
    """np.linalg.norm(A, axis=0) bit for bit, without its overhead."""
    return np.sqrt(np.add.reduce(a * a, axis=0))


@functools.lru_cache(maxsize=None)
def _probe_norms(n):
    """The norms of the columns of :func:`_probes` (n), read-only."""
    norms = _column_norms(_probes(n))
    norms.flags.writeable = False
    return norms


def _solve_regular(a, rhs, error, what, top):
    """LAPACK solve of A X = rhs behind a relative regularity check.

    ``top`` is max |A|.  Raises ``error`` when sigma_min(A) is shown to be
    at most 1e-12 x max(1, max |A|).  The PROBES fixed pseudo-random
    columns p_i of :func:`_probes` are solved in the same LAPACK call as
    rhs, and each ||p_i|| / ||A^{-1} p_i|| is an upper bound on sigma_min;
    the check uses their minimum, so a "singular" verdict is never false.
    An exactly zero pivot reads as bound 0.  The probe columns do not change
    the solution columns of rhs.  ``n``, the size of A, is positive.
    """
    n = a.shape[0]
    tol = PIVOT_TOL * max(1.0, top)
    try:
        sol = np.linalg.solve(a, np.concatenate((rhs.reshape(n, -1), _probes(n)), axis=1))
    except np.linalg.LinAlgError:
        sol = np.full((n, PROBES), np.inf)  # exactly zero pivot
    ratios = _probe_norms(n) / _column_norms(sol[:, -PROBES:])
    # a NaN ratio makes the minimum NaN, which then counts as singular
    bound = float(ratios.min())
    if not bound > tol:
        raise error(f"{what}: sigma_min <= {bound:.3e}, tolerance {tol:.3e}")
    return sol[:, :-PROBES].reshape(rhs.shape)


def solve_dense(a, rhs):
    """Solve the square system A x = rhs with LAPACK (LU, partial pivoting).

    ``rhs`` is a vector or a matrix with one right-hand side per column.
    Raises :class:`SingularMatrixError` when any of the probes that
    :func:`_solve_regular` solves in the same LAPACK call shows
    sigma_min(A) at most 1e-12 x matrix scale, and
    :class:`DimensionError` when A is not a square matrix of finite entries
    or rhs does not match it.
    """
    a, top = _as_matrix(a)
    rhs = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionError(f"rhs has shape {rhs.shape}, expected ({n},) or ({n}, k)")
    if n == 0:
        return np.zeros(rhs.shape)
    return _solve_regular(a, rhs, SingularMatrixError, "matrix is singular", top)


def pseudo_inverse_full_row_rank(c):
    """Moore-Penrose inverse C^T (C C^T)^{-1} of a full-row-rank matrix."""
    c, _ = _as_matrix(c)
    m, n = c.shape
    if m == 0:
        return np.zeros((n, 0))
    gram = c @ c.T
    what = "matrix does not have full row rank"
    return _solve_regular(gram, c, RankDeficiencyError, what, _max_abs(gram)).T


def smallest_singular_value(c):
    """Smallest singular value of C; +inf for an empty matrix by convention."""
    c, _ = _as_matrix(c)
    if 0 in c.shape:
        return np.inf
    return float(np.linalg.svd(c, compute_uv=False)[-1])
