"""Self-tests of the benchmark's problem generators.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

from workloads import WORKLOADS, grid_laplacian, instance

NAMES = sorted(WORKLOADS)
SEEDS = (0, 1, 12345)


def _central_difference(fun, x, eps=1e-6):
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        cols.append((fun(x + e) - fun(x - e)) / (2 * eps))
    return np.column_stack(cols)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_bit_identical_data(name, seed):
    a = instance(WORKLOADS[name], seed, 3)
    b = instance(WORKLOADS[name], seed, 3)
    other = instance(WORKLOADS[name], seed + 1, 3)
    assert a.data.keys() == b.data.keys()
    for key in a.data:
        assert a.data[key].tobytes() == b.data[key].tobytes()
    assert any(a.data[key].tobytes() != other.data[key].tobytes() for key in a.data)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_problem_self_check_and_sizes(name, seed):
    workload = WORKLOADS[name]
    problem = instance(workload, seed, 0).problem
    assert (problem.n, problem.s) == (workload.n, workload.s)
    assert problem.self_check()


@pytest.mark.parametrize("name", NAMES)
def test_jacobians_match_central_differences(name):
    problem = instance(WORKLOADS[name], 0, 0).problem
    x = 0.3 * np.random.default_rng(99).standard_normal(problem.n)
    for fun, jac in ((problem.f, problem.jf), (problem.g, problem.jg)):
        fd = _central_difference(fun, x)
        scale = 1.0 + np.max(np.abs(jac(x)))
        assert np.max(np.abs(fd - jac(x))) <= 1e-6 * scale


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_symmetric_part_of_jf_at_x0_is_at_least_half_identity(name, seed):
    problem = instance(WORKLOADS[name], seed, 0).problem
    jf = problem.jf(np.zeros(problem.n))
    assert np.linalg.eigvalsh(0.5 * (jf + jf.T))[0] >= 0.5


@pytest.mark.parametrize("k", (1, 2, 5, 8))
def test_obstacle_laplacian_has_closed_form_eigenvalues(k):
    h = 1.0 / (k + 1)
    modes = np.sin(np.arange(1, k + 1) * np.pi * h / 2) ** 2
    expected = np.sort((4.0 / h**2 * (modes[:, None] + modes[None, :])).ravel())
    lap = grid_laplacian(k)
    assert np.array_equal(lap, lap.T)
    np.testing.assert_allclose(np.linalg.eigvalsh(lap), expected, rtol=1e-12, atol=1e-9)
