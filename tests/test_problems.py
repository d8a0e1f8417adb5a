import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from helpers import counting_callbacks, random_affine_problem
from ssnewton import problems
from ssnewton.cones import BoxSet
from ssnewton.errors import EvaluationError, InvalidMultiplierError, ProblemFormatError
from ssnewton.linalg import nullspace_basis, smallest_singular_value
from ssnewton.newton import solve
from ssnewton.problems import (
    AffineProblemSpec,
    GEProblem,
    builtin_registry,
    check_second_order,
    get_problem,
    lagrangian,
    load_affine_problem,
    nondegeneracy_modulus,
)
from ssnewton.reports import Status

NCP = get_problem("ncp-paper")


def test_lagrangian_ncp():
    out = lagrangian(NCP, np.array([-0.1]), np.array([0.0]))
    assert np.allclose(out.value, [0.09], atol=1e-15)
    assert np.allclose(out.jacobian, [[-0.8]], atol=1e-15)


def test_lagrangian_zero_multiplier_is_f():
    rng = np.random.default_rng(0)
    p = random_affine_problem(rng)
    x = rng.uniform(-1, 1, p.n)
    out = lagrangian(p, x, np.zeros(p.s))
    assert np.allclose(out.value, p.f(x))
    assert np.allclose(out.jacobian, p.jf(x))


def test_lagrangian_affine_jacobian_constant():
    rng = np.random.default_rng(1)
    p = random_affine_problem(rng)
    x = rng.uniform(-1, 1, p.n)
    for _ in range(5):
        lam = rng.uniform(-1, 1, p.s)
        assert np.allclose(lagrangian(p, x, lam).jacobian, p.jf(x))


def test_lagrangian_nonfinite_callback():
    bad = GEProblem(
        name="bad",
        n=1,
        s=1,
        f=lambda x: np.array([np.nan]),
        jf=lambda x: np.eye(1),
        g=lambda x: x,
        jg=lambda x: np.eye(1),
        hg=lambda x, lam: np.zeros((1, 1)),
        box=BoxSet.nonpositive(1),
    )
    with pytest.raises(EvaluationError):
        lagrangian(bad, np.zeros(1), np.zeros(1))


def test_nonfinite_entry_is_named_by_plain_indices():
    bad = dataclasses.replace(NCP, jf=lambda x: np.array([[np.inf]]))
    with pytest.raises(EvaluationError, match=r"^ncp-paper: jf is non-finite at entry \(0, 0\)$"):
        lagrangian(bad, np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_asymmetric_hessian_is_rejected_at_any_scale(scale):
    h = scale * np.eye(2)
    h[0, 1] += 1e-3
    bad = dataclasses.replace(get_problem("box-vi-2d"), hg=lambda x, lam: h)
    with pytest.raises(EvaluationError, match=r"^box-vi-2d: hg is not symmetric$"):
        lagrangian(bad, np.zeros(2), np.zeros(2))


def _relative_symmetry_verdict(h):
    """The relative test alone: True when h passes it."""
    asym = np.max(np.abs(h - h.T))
    tol = problems.HESSIAN_SYMMETRY_TOL
    return not (asym > tol and asym > tol * np.max(np.abs(h)))


def test_symmetry_verdicts_of_the_exact_and_the_relative_test():
    box_vi = get_problem("box-vi-2d")

    def eval_with(h):
        return problems.eval_hg(dataclasses.replace(box_vi, hg=lambda x, lam: h), None, None)

    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (4, 4))
    sym = a + a.T
    # bitwise symmetric, also as a strided view and in Fortran order
    views = (sym[::2, ::2], np.asfortranarray(sym[1:3, 1:3]), 1e8 * sym[:2, :2])
    assert not views[0].flags.c_contiguous and views[1].flags.f_contiguous
    for h in views:
        assert np.array_equal(eval_with(h), h)
    # 5e-11 off symmetric at scale 1 passes through the absolute branch
    h = np.eye(2)
    h[0, 1] += 5e-11
    assert np.array_equal(eval_with(h), h)
    # 2e-10 off at scale 1 fails, with the same message as before
    h = np.eye(2)
    h[0, 1] += 2e-10
    with pytest.raises(EvaluationError, match=r"^box-vi-2d: hg is not symmetric$"):
        eval_with(h)
    # the verdict is the relative test's at every perturbation and scale
    verdicts = Counter()
    for scale in (1e-3, 1.0, 1e4, 1e8):
        for off in (0.0, 1e-12, 5e-11, 2e-10, 1e-6):
            h = scale * sym[:2, :2]
            h[1, 0] += off * max(1.0, scale) * rng.uniform(0.5, 2.0)
            passes = _relative_symmetry_verdict(h)
            verdicts[passes] += 1
            if passes:
                assert np.array_equal(eval_with(h), h)
            else:
                with pytest.raises(EvaluationError, match=r"^box-vi-2d: hg is not symmetric$"):
                    eval_with(h)
    assert verdicts[True] and verdicts[False]


def test_hessian_rounding_asymmetry_at_scale_1e8_solves():
    # g_i(x) = (b_i^T x)^2 / 2 <= 1/2 and f(x) = 1e8 (x - a): the Hessian
    # (B diag lam) B^T reaches about 2e8, and assembling it in that order
    # leaves a rounding asymmetry far above an absolute 1e-10
    rng = np.random.default_rng(5)
    b = rng.uniform(-1, 1, (4, 3))
    a = 3 * rng.uniform(-1, 1, 4)
    p = GEProblem(
        name="quadratic-rows",
        n=4,
        s=3,
        f=lambda x: 1e8 * (x - a),
        jf=lambda x: 1e8 * np.eye(4),
        g=lambda x: 0.5 * (b.T @ x) ** 2,
        jg=lambda x: (b.T @ x)[:, None] * b.T,
        hg=lambda x, lam: (b * lam) @ b.T,
        box=BoxSet(np.full(3, -np.inf), np.full(3, 0.5)),
    )
    # the stopping test on ||u_hat|| is absolute, so it is set to F's scale
    report = solve(p, np.full(4, 0.1), tol=1e-6)
    assert report.status is Status.CONVERGED
    x, lam = np.array(report.final_x), np.array(report.iterations[-1].lam)
    h = p.hg(x, lam)
    assert np.max(np.abs(h)) > 1e8
    assert np.max(np.abs(h - h.T)) > 1e-10
    assert np.max(np.abs(p.f(x) + p.jg(x).T @ lam)) <= 1e-6
    assert np.max(p.g(x)) <= 0.5 + 1e-6


def test_nondegeneracy_modulus():
    assert nondegeneracy_modulus(NCP, np.zeros(1), np.zeros(1)) == 1.0
    assert nondegeneracy_modulus(NCP, np.array([-0.1]), np.array([-0.19])) == np.inf
    degenerate = GEProblem(
        name="degenerate",
        n=1,
        s=1,
        f=lambda x: x.copy(),
        jf=lambda x: np.eye(1),
        g=lambda x: np.zeros(1),
        jg=lambda x: np.zeros((1, 1)),
        hg=lambda x, lam: np.zeros((1, 1)),
        box=BoxSet.nonpositive(1),
    )
    assert nondegeneracy_modulus(degenerate, np.zeros(1), np.zeros(1)) == 0.0


def test_modulus_invariant_under_column_reordering():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = random_affine_problem(rng, max_n=5, max_s=3)
        jac = p.jg(np.zeros(p.n))
        w = np.column_stack([e for e in np.eye(p.s)])
        perm = rng.permutation(p.s)
        assert smallest_singular_value(w.T @ jac) == pytest.approx(
            smallest_singular_value(w[:, perm].T @ jac), rel=1e-12
        )


def test_check_second_order_ncp():
    report = check_second_order(NCP, np.zeros(1), np.zeros(1))
    assert report.passed
    assert [f.index_set for f in report.faces] == [(), (0,)]
    assert report.faces[0].sigma_min == pytest.approx(1.0)
    assert report.faces[1].sigma_min == np.inf


def test_check_second_order_rejects_a_multiplier_outside_the_normal_cone():
    # g(0) = 0 is at the upper bound of (-inf, 0], whose normal cone is [0, inf)
    with pytest.raises(InvalidMultiplierError, match="not in the normal cone at g"):
        check_second_order(NCP, np.zeros(1), -np.ones(1))


def test_check_second_order_monotone_passes():
    spec = AffineProblemSpec(
        name="monotone",
        m=np.eye(2),
        q=np.zeros(2),
        g_mat=np.eye(2),
        h=np.zeros(2),
        lower=np.array([-np.inf, -np.inf]),
        upper=np.zeros(2),
    )
    report = check_second_order(spec.build(), np.zeros(2), np.zeros(2))
    assert report.passed
    assert len(report.faces) == 4


def test_check_second_order_zero_map_fails():
    spec = AffineProblemSpec(
        name="flat",
        m=np.zeros((2, 2)),
        q=np.zeros(2),
        g_mat=np.eye(2),
        h=np.zeros(2),
        lower=np.array([-np.inf, -np.inf]),
        upper=np.zeros(2),
    )
    report = check_second_order(spec.build(), np.zeros(2), np.zeros(2))
    assert not report.passed
    verdicts = {f.index_set: f.passed for f in report.faces}
    assert verdicts[()] is False  # Z = I, reduced block = 0
    assert verdicts[(0, 1)] is True  # empty null space passes


def test_check_second_order_evaluates_g_and_jg_once_and_f_never():
    calls = []
    p = counting_callbacks(get_problem("box-vi-2d"), calls)
    check_second_order(p, np.zeros(2), np.zeros(2))
    assert Counter(calls) == Counter(g=1, jg=1, jf=1, hg=1)


def test_check_second_order_fails_a_sheared_face():
    # M = [[1, -1e6], [0, 1]] has unit LU pivots but sigma_min about 1e-6,
    # below 1e-10 x sigma_max (about 1e6): face () must fail
    spec = AffineProblemSpec(
        name="sheared",
        m=np.array([[1.0, -1e6], [0.0, 1.0]]),
        q=np.zeros(2),
        g_mat=np.eye(2),
        h=np.zeros(2),
        lower=np.array([-np.inf, -np.inf]),
        upper=np.zeros(2),
    )
    report = check_second_order(spec.build(), np.zeros(2), np.zeros(2))
    face = next(f for f in report.faces if f.index_set == ())
    assert face.sigma_min == pytest.approx(1e-6, rel=1e-6)
    assert face.passed is False
    assert not report.passed


def test_second_order_verdict_basis_independent(monkeypatch):
    # every coordinate is biactive at x = lam = 0, so every face is checked;
    # a randomly rotated null-space basis leaves each score and verdict as is
    rng = np.random.default_rng(3)
    failed = 0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, n + 1))
        rank = int(rng.integers(0, n + 1))  # low rank M makes faces fail
        spec = AffineProblemSpec(
            name="rotated",
            m=rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n)),
            q=np.zeros(n),
            g_mat=rng.normal(size=(s, n)),
            h=np.zeros(s),
            lower=np.full(s, -np.inf),
            upper=np.zeros(s),
        )
        p, x, lam = spec.build(), np.zeros(n), np.zeros(s)
        plain = check_second_order(p, x, lam)

        def rotated_basis(c):
            z = nullspace_basis(c)
            k = z.shape[1]
            return z @ np.linalg.qr(rng.normal(size=(k, k)))[0]

        with monkeypatch.context() as patch:
            patch.setattr(problems, "nullspace_basis", rotated_basis)
            rotated = check_second_order(p, x, lam)
        scale = max(1.0, np.linalg.norm(spec.m, 2))
        assert len(plain.faces) == 2**s
        for a, b in zip(plain.faces, rotated.faces):
            assert a.index_set == b.index_set
            assert a.passed == b.passed
            if np.isfinite(a.sigma_min):
                assert abs(a.sigma_min - b.sigma_min) <= 1e-12 * scale
            failed += not a.passed
    assert failed > 0


def _fd_jac(fn, x, out_dim, step=1e-6):
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((fn(x + e) - fn(x - e)) / (2 * step))
    return np.column_stack(cols) if cols else np.zeros((out_dim, 0))


def test_builtin_jacobians_match_finite_differences():
    rng = np.random.default_rng(4)
    for p in builtin_registry():
        for _ in range(5):
            x = rng.uniform(-1, 1, p.n)
            x /= max(1.0, np.linalg.norm(x))
            assert np.max(np.abs(_fd_jac(p.f, x, p.n) - p.jf(x))) <= 1e-4
            assert np.max(np.abs(_fd_jac(p.g, x, p.s) - p.jg(x))) <= 1e-4
            lam = rng.uniform(-1, 1, p.s)
            grad_lam = lambda y: p.jg(y).T @ lam
            assert np.max(np.abs(_fd_jac(grad_lam, x, p.n) - p.hg(x, lam))) <= 1e-4


def test_registry_contents():
    names = [p.name for p in builtin_registry()]
    assert names == sorted(names)
    for required in ("ncp-paper", "ncp-paper-affine", "box-vi-2d"):
        assert required in names
    assert NCP.n == 1 and NCP.s == 1
    for p in builtin_registry():
        assert p.self_check()


KOJIMA_SHINDO = get_problem("kojima-shindo")
KS_SOLUTIONS = (np.array([1.0, 0.0, 3.0, 0.0]), np.array([np.sqrt(6) / 2, 0.0, 0.0, 0.5]))


def test_kojima_shindo_solutions_are_complementary():
    for x in KS_SOLUTIONS:
        assert np.max(np.abs(np.minimum(x, KOJIMA_SHINDO.f(x)))) <= 1e-14


def test_kojima_shindo_checkers_pass_at_both_solutions():
    # at (1, 0, 3, 0) coordinates 2 and 4 are strictly active: one face; at
    # (sqrt(6)/2, 0, 0, 1/2) coordinate 3 is biactive (x3 = F3 = 0), so the
    # faces are {2} and {2, 3}.  Strict complementarity is not needed, so
    # the degenerate solution still passes every face.
    expected_faces = (((1, 3),), ((1,), (1, 2)))
    for x, faces in zip(KS_SOLUTIONS, expected_faces):
        lam = -KOJIMA_SHINDO.f(x)  # 0 = f + lam with lam in N_D(x)
        report = check_second_order(KOJIMA_SHINDO, x, lam)
        assert tuple(face.index_set for face in report.faces) == faces
        assert report.passed
        assert nondegeneracy_modulus(KOJIMA_SHINDO, x, x) == 1.0


def test_kojima_shindo_solve_converges_near_both_solutions():
    rng = np.random.default_rng(8)
    for x_star in KS_SOLUTIONS:
        for _ in range(10):
            x0 = x_star + 1e-2 * rng.uniform(-1, 1, 4)
            report = solve(KOJIMA_SHINDO, x0)
            assert report.status is Status.CONVERGED
            assert np.max(np.abs(np.array(report.final_x) - x_star)) <= 1e-10


def test_get_problem_unknown():
    with pytest.raises(KeyError):
        get_problem("no-such-problem")


NCP_DOC = {
    "name": "ncp-like",
    "n": 1,
    "s": 1,
    "M": [[-1.0]],
    "q": [0.0],
    "G": [[1.0]],
    "h": [0.0],
    "lower": ["-inf"],
    "upper": [0],
}


def test_load_affine_problem():
    p = load_affine_problem(json.dumps(NCP_DOC))
    assert p.name == "ncp-like"
    assert p.n == 1 and p.s == 1
    x = np.array([0.5])
    assert np.allclose(p.f(x), [-0.5])
    assert np.allclose(p.g(x), [0.5])
    assert p.box.lower[0] == -np.inf and p.box.upper[0] == 0.0


def test_load_affine_problem_errors():
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        load_affine_problem("{not json")
    bad = dict(NCP_DOC)
    bad["G"] = [[1.0], [2.0]]  # two rows but s = 1
    with pytest.raises(ProblemFormatError, match=r"\$\.G"):
        load_affine_problem(json.dumps(bad))
    bad = dict(NCP_DOC)
    bad["lower"] = ["-inf", "-inf"]  # wrong bounds length
    with pytest.raises(ProblemFormatError, match=r"\$\.lower"):
        load_affine_problem(json.dumps(bad))
    bad = dict(NCP_DOC)
    bad["upper"] = ["huge"]
    with pytest.raises(ProblemFormatError, match=r"\$\.upper\[0\]"):
        load_affine_problem(json.dumps(bad))
    bad = dict(NCP_DOC)
    del bad["q"]
    with pytest.raises(ProblemFormatError, match=r"\$\.q"):
        load_affine_problem(json.dumps(bad))
    # json reads NaN; a NaN bound is not "no bound"
    bad = dict(NCP_DOC, M=[[1.0]], q=[-1.0], lower=[float("nan")], upper=[float("nan")])
    with pytest.raises(ProblemFormatError, match=r"\$\.lower\[0\]"):
        load_affine_problem(json.dumps(bad))
    bad["lower"] = ["-inf"]
    with pytest.raises(ProblemFormatError, match=r"\$\.upper\[0\]"):
        load_affine_problem(json.dumps(bad))
    # json's true is a Python int
    for key in ("n", "s"):
        bad = dict(NCP_DOC, **{key: True})
        with pytest.raises(ProblemFormatError, match=rf"\$\.{key}: must be a positive integer"):
            load_affine_problem(json.dumps(bad))


@pytest.mark.parametrize(
    "field, value, message",
    [
        # json.loads reads NaN and Infinity, and 1e400 as inf
        ("q", "[NaN]", r"^\$\.q\[0\]: entry is nan, must be finite$"),
        ("M", "[[Infinity]]", r"^\$\.M\[0\]\[0\]: entry is inf, must be finite$"),
        ("G", "[[-1e400]]", r"^\$\.G\[0\]\[0\]: entry is -inf, must be finite$"),
        ("h", "[NaN]", r"^\$\.h\[0\]: entry is nan, must be finite$"),
        # an integer past the float range is named, not an OverflowError
        ("M", f"[[{10**400}]]", r"^\$\.M: not a numeric array \(int too large"),
        ("q", f"[-{10**400}]", r"^\$\.q: not a numeric array \(int too large"),
        ("upper", f"[{10**400}]", r"^\$\.upper\[0\]: integer out of the float range$"),
        ("lower", f"[-{10**400}]", r"^\$\.lower\[0\]: integer out of the float range$"),
        # np.asarray(..., dtype=float) reads a numeric string and a boolean as numbers
        ("q", '["1.5"]', r"^\$\.q\[0\]: expected a number, got '1\.5'$"),
        ("M", '[["2"]]', r"^\$\.M\[0\]\[0\]: expected a number, got '2'$"),
        ("G", "[[true]]", r"^\$\.G\[0\]\[0\]: expected a number, got True$"),
        ("h", "[false]", r"^\$\.h\[0\]: expected a number, got False$"),
    ],
    ids=[
        "q-nan", "M-inf", "G-1e400", "h-nan", "M-int", "q-int", "upper-int", "lower-int",
        "q-string", "M-string", "G-true", "h-false",
    ],
)
def test_loader_names_a_non_finite_or_overflowing_entry(field, value, message):
    text = json.dumps(dict(NCP_DOC, **{field: None})).replace("null", value)
    with pytest.raises(ProblemFormatError, match=message):
        load_affine_problem(text)


def test_loader_keeps_infinite_bounds():
    # a bound may be infinite however it is written; only M, q, G and h must be finite
    for upper in ('"+inf"', "Infinity", "1e400"):
        text = json.dumps(dict(NCP_DOC, upper=None)).replace("null", f"[{upper}]")
        assert load_affine_problem(text).box.upper[0] == np.inf
