"""Generalized-equation problem model and assumption checkers.

A problem is the inclusion 0 in f(x) + Jg(x)^T N_D(g(x)) with D a box.  It is
described by callbacks for f, g, their Jacobians and the multiplier-weighted
Hessian of g, plus the box.  Affine instances can be loaded from JSON.
"""

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import (
    ACTIVITY_TOL,
    Activity,
    BoxSet,
    activity,
    basis_for_pattern,
    enumerate_face_index_sets,
    pattern_admits,
    span_normal_basis,
)
from .errors import (
    DegeneracyError,
    EvaluationError,
    InvalidMultiplierError,
    ProblemFormatError,
    RankDeficiencyError,
)
from .linalg import _max_abs, nullspace_basis, smallest_singular_value

HESSIAN_SYMMETRY_TOL = 1e-10
REGULARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GEProblem:
    """One generalized equation: callbacks, box and a name.

    Callbacks must be pure; values are immutable after construction and the
    problem may be evaluated concurrently.
    """

    name: str
    n: int
    s: int
    f: Callable
    jf: Callable
    g: Callable
    jg: Callable
    hg: Callable  # (x, lam) -> Hessian of <lam, g> at x
    box: BoxSet

    @functools.cached_property
    def _shapes(self):
        """Each callback's output shape by name, built on first read (:func:`_read`)."""
        n, s = self.n, self.s
        return {"f": (n,), "jf": (n, n), "g": (s,), "jg": (s, n), "hg": (n, n)}

    def self_check(self, x=None, lam=None):
        """Evaluate every callback once and verify shapes, finiteness, symmetry."""
        x = np.zeros(self.n) if x is None else np.asarray(x, dtype=float)
        lam = np.ones(self.s) if lam is None else np.asarray(lam, dtype=float)
        eval_f(self, x)
        eval_jf(self, x)
        eval_g(self, x)
        eval_jg(self, x)
        eval_hg(self, x, lam)
        return True


def _checked(value, shape, label):
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise EvaluationError(f"{label} returned shape {value.shape}, expected {shape}")
    if value.size and not np.isfinite(value).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(value))[0])
        raise EvaluationError(f"{label} is non-finite at entry {bad}")
    return value


def _check_reads(reads):
    """Pass each (value, shape, label) of :func:`_read` through :func:`_checked`, in order."""
    for value, shape, label in reads:
        _checked(value, shape, label)


def _read(problem, names, x, lam=None):
    """The named callbacks' values at x, as (value, shape, label) triples in call order.

    Each value's shape is checked as it returns; finiteness is left to the
    caller, which hands the triples to :func:`_check_reads` on finding a
    non-finite value.  A wrong shape raises the error that ``eval_*`` would
    have raised reading the same values: an earlier value's non-finite
    entry comes first.  Values are C-ordered (a copy when a callback's is
    not), so no product of them depends on the callback's layout.
    """
    shapes = problem._shapes
    reads = []
    for name in names:
        args = (x, lam) if name == "hg" else (x,)
        value = np.asarray(getattr(problem, name)(*args), dtype=float, order="C")
        reads.append((value, shapes[name], f"{problem.name}: {name}"))
        if value.shape != shapes[name]:
            _check_reads(reads)
    return reads


def eval_f(problem, x):
    return _checked(problem.f(x), (problem.n,), f"{problem.name}: f")


def eval_jf(problem, x):
    return _checked(problem.jf(x), (problem.n, problem.n), f"{problem.name}: jf")


def eval_g(problem, x):
    return _checked(problem.g(x), (problem.s,), f"{problem.name}: g")


def eval_jg(problem, x):
    return _checked(problem.jg(x), (problem.s, problem.n), f"{problem.name}: jg")


def eval_hg(problem, x, lam):
    """Hg(x, lam), symmetric to HESSIAN_SYMMETRY_TOL x max(1, max |Hg|).

    Exact test first, then the relative test only when that one fails.
    """
    h = _checked(problem.hg(x, lam), (problem.n, problem.n), f"{problem.name}: hg")
    _require_symmetric(problem, h)
    return h


def _require_symmetric(problem, h):
    """Raise unless the finite Hg ``h`` passes :func:`eval_hg`'s symmetry test.

    An all-zero Hg, as of an affine g, passes on one ``any`` pass, with no
    transposed compare.
    """
    # an empty Hg is exactly symmetric
    if np.logical_or.reduce(h, axis=None) and not np.array_equal(h, h.T):
        asym = float(np.max(np.abs(h - h.T)))
        # the scale is read only when the absolute test fails
        if asym > HESSIAN_SYMMETRY_TOL and asym > HESSIAN_SYMMETRY_TOL * np.max(np.abs(h)):
            raise EvaluationError(f"{problem.name}: hg is not symmetric")


@dataclass(frozen=True)
class LagrangianEval:
    value: np.ndarray  # f(x) + Jg(x)^T lam
    jacobian: np.ndarray  # Jf(x) + Hg(x, lam)


def lagrangian_jacobian(problem, x, lam, out=None):
    """Jf(x) + Hg(x, lam), the Jacobian of x -> f(x) + Jg(x)^T lam.

    The sum goes to ``out``, an n x n float array, when one is given (a
    solve refills one array at every step); the callbacks' arrays are never
    written into.  Jf and Hg are checked as :func:`eval_jf` and
    :func:`eval_hg` check them, with the same errors in the same order.  An
    overflowing sum of finite terms is +-inf, with no RuntimeWarning
    (:func:`ssnewton.newton.newton_workspace` raises on it).
    """
    return _lagrangian_jacobian_and_max(problem, x, lam, out)[0]


def _lagrangian_jacobian_and_max(problem, x, lam, out=None):
    """:func:`lagrangian_jacobian` and its max |entry| (0 when n = 0).

    The terms are added first and checked through their sum: its max and
    min, which max |JL| needs anyway, are NaN or +-inf when a term is not
    finite (NaN propagates through both), and a finite sum has finite
    terms.  Only a sum that is not finite sends Jf and Hg through
    :func:`_checked`, so a non-finite term is named as ``eval_jf`` and
    ``eval_hg`` name it, and a sum of finite terms that overflowed comes
    back as it is.  Hg's symmetry is tested once both terms are known to be
    finite.
    """
    reads = _read(problem, ("jf", "hg"), x, lam)
    (jac_f, _, _), (hess_g, _, _) = reads
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is checked below
        jac_l = np.add(jac_f, hess_g, out=out)
    top = _max_abs(jac_l) if jac_l.size else 0.0
    if not top < np.inf:
        _check_reads(reads)
    _require_symmetric(problem, hess_g)
    return jac_l, top


def lagrangian(problem, x, lam):
    """Value and Jacobian of the Lagrangian map x -> f(x) + Jg(x)^T lam."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    value = eval_f(problem, x) + eval_jg(problem, x).T @ lam
    return LagrangianEval(value=value, jacobian=lagrangian_jacobian(problem, x, lam))


def nondegeneracy_modulus(problem, x, d, tol=ACTIVITY_TOL):
    """Smallest singular value of W^T Jg(x) with W spanning N_D(d).

    +inf when d is interior (no normals to test), 0.0 when there are more
    active rows than unknowns (the rows are then dependent); the point
    (x, d) is non-degenerate exactly when the returned modulus is positive.
    """
    w = span_normal_basis(d, problem.box, tol)
    if w.shape[1] == 0:
        return np.inf
    if w.shape[1] > problem.n:
        return 0.0
    return smallest_singular_value(w.T @ eval_jg(problem, x))


@dataclass(frozen=True)
class FaceCheck:
    """One face's second-order score and verdict.

    ``sigma_min`` is the smallest singular value of Z^T JL Z, which does not
    depend on the choice of Z (+inf for an empty null space); ``passed``
    says whether it exceeds REGULARITY_TOL x max(1, sigma_max).
    """

    index_set: tuple
    sigma_min: float
    passed: bool


@dataclass(frozen=True)
class SecondOrderReport:
    faces: tuple

    @property
    def passed(self):
        return all(f.passed for f in self.faces)


def check_second_order(problem, x, lam, tol=ACTIVITY_TOL):
    """Face-wise regularity of the reduced Lagrangian Jacobian.

    For every index set J between the strictly active and the active
    coordinates, restricts the Lagrangian Jacobian to the null space of the
    rows of Jg(x) selected by J and records whether that reduced matrix
    Z^T JL Z is regular: its singular values, from one SVD, must satisfy
    sigma_min > REGULARITY_TOL x max(1, sigma_max).  Both sides are the same
    for every orthonormal basis Z of the null space, so the verdict depends
    only on the face.  An empty null space passes.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    g0 = eval_g(problem, x)
    pattern = activity(g0, problem.box, tol)
    if not pattern_admits(pattern, lam, tol):
        raise InvalidMultiplierError("multiplier is not in the normal cone at g(x)")
    jac_g = eval_jg(problem, x)
    l_jac = lagrangian_jacobian(problem, x, lam)
    checks = []
    for index_set in enumerate_face_index_sets(g0, lam, problem.box, tol):
        face = [a if i in index_set else Activity.INTERIOR for i, a in enumerate(pattern)]
        w = basis_for_pattern(face)
        try:
            z = nullspace_basis(w.T @ jac_g)
        except RankDeficiencyError as exc:
            raise DegeneracyError(
                f"active rows for index set {index_set} lost rank: {exc}"
            ) from exc
        if z.shape[1] == 0:
            checks.append(FaceCheck(index_set, np.inf, True))
            continue
        sigma = np.linalg.svd(z.T @ l_jac @ z, compute_uv=False)
        sigma_min = float(sigma[-1])
        passed = sigma_min > REGULARITY_TOL * max(1.0, float(sigma[0]))
        checks.append(FaceCheck(index_set, sigma_min, passed))
    return SecondOrderReport(faces=tuple(checks))


@dataclass(frozen=True, eq=False)
class AffineProblemSpec:
    """f(x) = M x + q and g(x) = G x + h with box bounds; JSON-serializable."""

    name: str
    m: np.ndarray
    q: np.ndarray
    g_mat: np.ndarray
    h: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def build(self):
        n = self.q.shape[0]
        s = self.h.shape[0]
        m, q, g_mat, h = self.m, self.q, self.g_mat, self.h
        return GEProblem(
            name=self.name,
            n=n,
            s=s,
            f=lambda x: m @ x + q,
            jf=lambda x: m,
            g=lambda x: g_mat @ x + h,
            jg=lambda x: g_mat,
            hg=lambda x, lam: np.zeros((n, n)),
            box=BoxSet(self.lower, self.upper),
        )


def _bound(value, path):
    if value == "-inf":
        return -np.inf
    if value in ("+inf", "inf"):
        return np.inf
    # NaN compares unequal to itself and is no bound
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value == value:
        try:
            return float(value)
        except OverflowError:  # a JSON integer past the float range
            raise ProblemFormatError(f"{path}: integer out of the float range") from None
    raise ProblemFormatError(f"{path}: expected a number, '-inf' or '+inf', got {value!r}")


def _require_numbers(value, path):
    """Raise at the first entry of nested lists that is not a JSON number.

    ``np.asarray(..., dtype=float)`` reads "1.5" and true (a Python int) as
    numbers, so it cannot tell.
    """
    if isinstance(value, list):
        for i, entry in enumerate(value):
            _require_numbers(entry, f"{path}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{path}: expected a number, got {value!r}")


def _array(doc, key, shape):
    try:
        arr = np.asarray(doc[key], dtype=float)
    except KeyError:
        raise ProblemFormatError(f"$.{key}: missing field") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"$.{key}: not a numeric array ({exc})") from None
    if arr.shape != shape:
        raise ProblemFormatError(f"$.{key}: shape {arr.shape}, expected {shape}")
    _require_numbers(doc[key], f"$.{key}")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        index = "".join(f"[{int(i)}]" for i in bad)
        raise ProblemFormatError(f"$.{key}{index}: entry is {arr[tuple(bad)]}, must be finite")
    return arr


def parse_affine_problem(doc):
    """Validate a parsed JSON document and return the affine spec."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("$: document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ProblemFormatError("$.name: missing or not a string")
    for key in ("n", "s"):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ProblemFormatError(f"$.{key}: must be a positive integer")
    n, s = doc["n"], doc["s"]
    m = _array(doc, "M", (n, n))
    q = _array(doc, "q", (n,))
    g_mat = _array(doc, "G", (s, n))
    h = _array(doc, "h", (s,))
    for key in ("lower", "upper"):
        if key not in doc or not isinstance(doc[key], list) or len(doc[key]) != s:
            raise ProblemFormatError(f"$.{key}: must be a list of length {s}")
    lower = np.array([_bound(v, f"$.lower[{i}]") for i, v in enumerate(doc["lower"])])
    upper = np.array([_bound(v, f"$.upper[{i}]") for i, v in enumerate(doc["upper"])])
    if np.any(lower > upper):
        bad = int(np.argmax(lower > upper))
        raise ProblemFormatError(f"$.lower[{bad}]: exceeds upper bound")
    return AffineProblemSpec(name=name, m=m, q=q, g_mat=g_mat, h=h, lower=lower, upper=upper)


def load_affine_problem(text):
    """Build a problem from a JSON document (see README for the schema)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return parse_affine_problem(doc).build()


def _ncp_paper():
    return GEProblem(
        name="ncp-paper",
        n=1,
        s=1,
        f=lambda x: np.array([-x[0] - x[0] ** 2]),
        jf=lambda x: np.array([[-1.0 - 2.0 * x[0]]]),
        g=lambda x: x.copy(),
        jg=lambda x: np.eye(1),
        hg=lambda x, lam: np.zeros((1, 1)),
        box=BoxSet.nonpositive(1),
    )


def _ncp_paper_affine():
    spec = AffineProblemSpec(
        name="ncp-paper-affine",
        m=np.array([[-1.0]]),
        q=np.zeros(1),
        g_mat=np.eye(1),
        h=np.zeros(1),
        lower=np.array([-np.inf]),
        upper=np.zeros(1),
    )
    return spec.build()


def _box_vi_2d():
    spec = AffineProblemSpec(
        name="box-vi-2d",
        m=np.eye(2),
        q=np.array([-1.0, -1.0]),
        g_mat=np.eye(2),
        h=np.zeros(2),
        lower=np.array([-np.inf, -np.inf]),
        upper=np.zeros(2),
    )
    return spec.build()


def _kojima_shindo_f(x):
    x1, x2, x3, x4 = x
    return np.array([
        3 * x1**2 + 2 * x1 * x2 + 2 * x2**2 + x3 + 3 * x4 - 6,
        2 * x1**2 + x1 + x2**2 + 10 * x3 + 2 * x4 - 2,
        3 * x1**2 + x1 * x2 + 2 * x2**2 + 2 * x3 + 9 * x4 - 9,
        x1**2 + 3 * x2**2 + 2 * x3 + 3 * x4 - 3,
    ])


def _kojima_shindo_jf(x):
    x1, x2, _, _ = x
    return np.array([
        [6 * x1 + 2 * x2, 2 * x1 + 4 * x2, 1.0, 3.0],
        [4 * x1 + 1, 2 * x2, 10.0, 2.0],
        [6 * x1 + x2, x1 + 4 * x2, 2.0, 9.0],
        [2 * x1, 6 * x2, 2.0, 3.0],
    ])


def _kojima_shindo():
    """The Kojima-Shindo NCP: 0 <= x, F(x) >= 0, x . F(x) = 0.

    Two solutions: (1, 0, 3, 0), non-degenerate, and (sqrt(6)/2, 0, 0, 1/2),
    where coordinate 3 is biactive (x3 = F3 = 0).
    """
    return GEProblem(
        name="kojima-shindo",
        n=4,
        s=4,
        f=_kojima_shindo_f,
        jf=_kojima_shindo_jf,
        g=lambda x: x.copy(),
        jg=lambda x: np.eye(4),
        hg=lambda x, lam: np.zeros((4, 4)),
        box=BoxSet(np.zeros(4), np.full(4, np.inf)),
    )


def builtin_registry():
    """The built-in problems, sorted by name."""
    problems = [_box_vi_2d(), _kojima_shindo(), _ncp_paper(), _ncp_paper_affine()]
    return sorted(problems, key=lambda p: p.name)


def get_problem(name):
    for problem in builtin_registry():
        if problem.name == name:
            return problem
    known = ", ".join(p.name for p in builtin_registry())
    raise KeyError(f"unknown problem {name!r} (built in: {known})")
