"""Small dense linear-algebra kernel.

Everything here operates on plain ``numpy`` arrays at desk scale (a few
hundred rows at most) and calls LAPACK for every factorization that has no
closed form.  Orthonormal bases of the row space and of the null space of a
wide matrix C come from one QR of C^T (:func:`factor_rows`, reduced;
:func:`nullspace_basis`, complete), whose triangular factor also gives the
one rank test, :func:`require_full_row_rank`.  Rows with disjoint supports
(:func:`disjoint_row_norms2`) are exactly orthogonal and have the reduced
QR Q = C^T D^-1, R = D = diag(||C_i||) with no LAPACK call; their squared
norms are summed in a fixed order, so they do not depend on C's memory
layout, and their square roots are the factor's row norms.  A
:class:`RowFactor` keeps C, Q, R and the rank verdict together, so one
factorization of a set of active rows serves every user of it.  Square
systems are solved by :func:`solve_dense` in one LAPACK LU call, which also
certifies their regularity from a few fixed probe columns solved next to
the right-hand side (:func:`_solve_regular`).  Every matrix is checked for
finite entries by the max and min of its entries that its scale needs
anyway (a NaN makes both NaN), not by a separate ``isfinite`` pass.
Reductions are the ufuncs' own (``np.maximum.reduce``, ...), which the
array methods call through a Python frame: the same values, with less
overhead.

The index-built factor.  When every row of a matrix A is a coordinate row,
with exactly one nonzero, in distinct columns (as for g(x) = x in the NCP
and obstacle class), the one support test, :func:`disjoint_row_norms2`,
also returns each row's column.  The factor of signed picked rows
C = diag(signs) A[picked], the tight rows W^T Jg of the QP, is then known
from indices alone (:func:`coordinate_factor`): its columns, its signed
entries C[i, columns[i]], the free columns, the row norms sqrt(norms2),
and the rank verdict of :func:`require_full_row_rank`, read from those
norms (the diagonal of R) and max |C| = max |entries|.  C, Q, R, R^-1 and
the dependence floor are formed only when something reads them, by the
expressions :func:`factor_rows` uses, so every value is bitwise that of
``factor_rows(C)``.  It is the only factor whose
:attr:`RowFactor.coordinates` is set.
"""

import functools

import numpy as np

from .errors import DimensionError, RankDeficiencyError, SingularMatrixError

RANK_TOL = 1e-10
PIVOT_TOL = 1e-12
DEP_REL_TOL = 1e-18  # ||z||^2 below this times ||n||^2 counts as dependent
PROBES = 3
_TINY = np.finfo(float).tiny  # the smallest normal float


def _max_abs(a):
    """max |A| from max and min of A, with no |A| copy; NaN when A has a NaN."""
    return float(max(np.maximum.reduce(a, axis=None), -np.minimum.reduce(a, axis=None)))


def _as_matrix(c):
    """C as a 2-d float array with finite entries, and max |C| (0 when empty)."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={c.ndim}")
    top = _max_abs(c) if c.size else 0.0
    if not top < np.inf:
        raise DimensionError("matrix entries must be finite")
    return c, top


def _deficiency(diag, top):
    """The rank test of :func:`require_full_row_rank` on |diag| and max |C| = top:
    its :class:`RankDeficiencyError`, or None when C has full row rank."""
    tol = RANK_TOL * max(1.0, top)
    if diag.size and not np.minimum.reduce(diag) > tol:
        bad = int(diag.argmin())
        return RankDeficiencyError(
            f"matrix is rank deficient (diagonal {bad} of the triangular "
            f"factor is {diag[bad]:.3e})",
            index=bad,
        )
    return None


def require_full_row_rank(c, diag):
    """Raise :class:`RankDeficiencyError` unless C, m x n with m <= n, has full row rank.

    ``diag`` is the diagonal of a triangular factor of C (the R of
    C^T = Q R); each entry must exceed RANK_TOL x max(1, max |C|) in
    magnitude, and the error's index is the first smallest one.
    """
    exc = _deficiency(np.abs(diag), _max_abs(c) if c.size else 0.0)
    if exc is not None:
        raise exc


def _too_many_rows(m, n):
    """The error for m > n rows: they cannot be independent whatever their
    values, so its index is n, the first row that cannot be."""
    return RankDeficiencyError(f"matrix is rank deficient ({m} rows, {n} columns)", index=n)


class RowFactor:
    """One reduced QR C^T = Q R of an m x n matrix C, and its rank verdict.

    ``deficiency`` is the :class:`RankDeficiencyError` that
    :func:`require_full_row_rank` raises on R, or None when C has full row
    rank.  With more rows than columns no QR is taken: q and r are None.
    ``RowFactor(rows, q, r, deficiency)`` holds a factor as it was computed;
    the closed forms form Q and R (and C, for a :func:`coordinate_factor`)
    on first read.  ``coordinates`` is (columns, entries, free) of a
    :func:`coordinate_factor` (see the module docstring) and None for every
    other factor.  Immutable: every other attribute is a value cached on
    first read.
    """

    coordinates = None

    def __init__(self, rows, q, r, deficiency=None):
        vars(self).update(rows=rows, q=q, r=r, deficiency=deficiency)

    def __setattr__(self, name, value):
        raise AttributeError(f"RowFactor is immutable: cannot set {name!r}")

    @functools.cached_property
    def rows(self):
        """C = diag(signs) A[picked] of a :func:`coordinate_factor`, formed on first read."""
        a, picked, signs = self._source
        return signs[:, None] * a[picked]

    @functools.cached_property
    def q(self):
        """Q = C^T D^-1 of rows with disjoint supports, formed on first read."""
        return self.rows.T / self.row_norms

    @functools.cached_property
    def r(self):
        """R = D = diag(||C_i||) of rows with disjoint supports, formed on first read."""
        return np.diag(self.row_norms)

    @functools.cached_property
    def r_inv(self):
        """R^-1, computed on first read (numpy has no triangular solve, so a
        solve with R is a product with R^-1).

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
        """np.linalg.norm(C, axis=1), computed on first read; the closed forms
        hold it from the start."""
        return np.linalg.norm(self.rows, axis=1)

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
    """(norms2, columns) when the rows of C have disjoint supports, else None.

    Rows have disjoint supports when each column of C has at most one
    nonzero (an O(mn) test: C has as many nonzeros as nonzero columns);
    they are then exactly orthogonal.  ``norms2`` holds their squared
    norms.  ``columns`` holds each row's column when every row is a
    coordinate row, with exactly one nonzero (then in distinct columns),
    read in the same pass, and is None otherwise.  The result is None also
    when a nonzero row's squared norm under- or overflows the normal
    floats, so that every formula built on these norms keeps full relative
    precision; a zero row's is 0.  Each row's squares are summed by one
    ``np.add.reduce`` over a C-ordered array of them, as
    ``np.linalg.norm(C, axis=1)`` sums them for a C-ordered C, so the sums
    do not depend on C's layout and each is bitwise that of the same row
    in any other C-ordered matrix.
    """
    nonzero = c != 0.0
    count = np.count_nonzero(nonzero)
    if count != np.count_nonzero(np.logical_or.reduce(nonzero, axis=0)):
        return None
    norms2 = np.add.reduce(np.multiply(c, c, order="C"), axis=1)
    normal = (norms2 >= _TINY) & (norms2 < np.inf)
    if not np.logical_and.reduce(normal):  # a zero row, or a norm out of range
        if not np.logical_and.reduce(normal | ~np.logical_or.reduce(nonzero, axis=1)):
            return None
        return norms2, None
    if count != c.shape[0]:  # every row is nonzero: one has two nonzeros
        return norms2, None
    return norms2, nonzero.argmax(axis=1) if count else np.zeros(0, np.intp)


def _closed_form(norms, top, held):
    """A closed-form :class:`RowFactor` of rows with disjoint supports, norms
    ``norms`` and max |C| = ``top``: its rank verdict, the row norms and
    ``held``, the other values it holds from the start."""
    factor = object.__new__(RowFactor)
    vars(factor).update(held, row_norms=norms, deficiency=_deficiency(norms, top))
    return factor


def coordinate_factor(a, picked, signs, columns, norms2):
    """The :class:`RowFactor` of C = diag(signs) A[picked], built from indices.

    Every row of A is a coordinate row, row i's nonzero in column
    ``columns[i]``, and ``norms2`` its squared norms, both as
    :func:`disjoint_row_norms2` of A returns them; ``picked`` are
    distinct rows and ``signs`` are +-1.  This factor is bitwise that of
    :func:`factor_rows` (C): its rank verdict reads only the row norms and
    max |C| = max |entries|, and its :attr:`RowFactor.coordinates` are set
    here, from the picked columns and signed entries.  C, Q, R, R^-1 and
    the dependence floor are formed only when read, so a caller that reads
    only the coordinates and the verdict forms no m x n array; A is read
    again then, so it must not have changed (callback values never do).
    """
    columns = columns[picked]
    entries = signs * a[picked, columns]
    free = np.ones(a.shape[1], dtype=bool)
    free[columns] = False
    top = np.maximum.reduce(np.abs(entries)) if picked.size else 0.0
    return _closed_form(np.sqrt(norms2[picked]), top, {
        "coordinates": (columns, entries, free.nonzero()[0]),
        "_source": (a, picked, signs),
    })


def factor_rows(c):
    """The :class:`RowFactor` of C.

    Rows with disjoint supports and no zero row (see
    :func:`disjoint_row_norms2`) get the closed form Q = C^T D^-1,
    R = D = diag(sqrt(norms2)), formed on first read, whose row norms are
    those square roots; any other C takes one reduced LAPACK QR of C^T.
    Both go through the same rank test.
    """
    m, n = c.shape
    if m > n:
        return RowFactor(c, None, None, _too_many_rows(m, n))
    top = _max_abs(c) if c.size else 0.0
    found = disjoint_row_norms2(c)
    if found is not None and np.logical_and.reduce(found[0]):
        return _closed_form(np.sqrt(found[0]), top, {"rows": c})
    q, r = np.linalg.qr(c.T)
    return RowFactor(c, q, r, _deficiency(np.abs(np.diagonal(r)), top))


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
    bound = float(np.minimum.reduce(ratios))
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
