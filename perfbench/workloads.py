"""Seeded problem generators for the solve benchmark.

Every workload is a list of instances, each a ``GEProblem`` solved from
x0 = 0 together with the arrays it was built from.  Instance i of a workload
is drawn from ``numpy.random.default_rng([seed, i])``, so the same (seed, i)
always gives bit-identical data, independent of how many instances are
generated.

- ``vi-dense``: monotone affine box VI, f(x) = M x + q, g(x) = G x + h,
  D = [-1, 1]^s with M = A A^T / n + I.  Dense two-sided rows; the QP step
  dominates a solve.
- ``obstacle-2d``: discretized obstacle problem on a k x k grid of the unit
  square, f(x) = A x + x^3 - b with A the 5-point Laplacian, g(x) = x and
  D = [psi, +inf).  One-sided unit-vector rows and a large contact set.
- ``obstacle-pins``: the same membrane on a 14 x 14 grid, held up by the
  obstacle at only s = 6 random nodes (point supports), so n = 196 and the
  reduced Newton system (n x n) dominates a solve.
- ``nl-few-bounds``: f(x) = M x + q + sin(x) / 2 with only s = 6 dense rows
  in [-1, 1]^6.  The reduced Newton system (n x n) dominates a solve.

From x0 = 0 a few ``vi-dense`` and ``nl-few-bounds`` instances end in a
two-cycle between active sets (the solver has no globalization), so those
two are run by hand and are not in ``BENCHMARK.json``.  No obstacle instance
drawn so far has failed to converge.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from ssnewton import BoxSet, GEProblem


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    s: int
    instances: int  # list length; one untraced pass takes about 20 s on a 2-core x86 host
    make: object  # (rng, index) -> Instance


@dataclass(frozen=True, eq=False)
class Instance:
    data: dict  # every generated array, by name
    problem: GEProblem


def _monotone_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def make_vi_dense(rng, index, n=100, s=50):
    m = _monotone_matrix(rng, n)
    q = rng.standard_normal(n)
    g_mat = rng.standard_normal((s, n))
    h = rng.standard_normal(s)
    return Instance(dict(m=m, q=q, g=g_mat, h=h), GEProblem(
        name=f"vi-dense-{index}",
        n=n,
        s=s,
        f=lambda x: m @ x + q,
        jf=lambda x: m,
        g=lambda x: g_mat @ x + h,
        jg=lambda x: g_mat,
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(-np.ones(s), np.ones(s)),
    ))


def grid_laplacian(k):
    """5-point Laplacian on the k x k interior nodes of the unit square.

    Scaled by 1/h^2 with h = 1/(k+1) and homogeneous Dirichlet boundary;
    node (i, j) has index i * k + j.
    """
    h = 1.0 / (k + 1)
    t = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    return (np.kron(t, np.eye(k)) + np.kron(np.eye(k), t)) / h**2


def grid_points(k):
    """Coordinates (k*k, 2) of the interior nodes, in Laplacian order."""
    ticks = np.arange(1, k + 1) / (k + 1)
    px, py = np.meshgrid(ticks, ticks, indexing="ij")
    return np.column_stack([px.ravel(), py.ravel()])


def make_obstacle_2d(rng, index, k=8, pins=None):
    """Obstacle problem on the k x k grid, felt at every node or at ``pins`` random ones."""
    n = k * k
    lap = grid_laplacian(k)
    dist2 = np.sum((grid_points(k) - 0.5) ** 2, axis=1)
    psi = 0.05 - 0.5 * dist2 + 0.01 * rng.standard_normal(n)
    b = -20.0 * (1.0 + 0.1 * rng.standard_normal(n))
    data = dict(psi=psi, b=b)
    if pins is None:
        name, rows = "obstacle-2d", np.arange(n)
    else:
        name, rows = "obstacle-pins", np.sort(rng.choice(n, pins, replace=False))
        data["pins"] = rows
    basis = np.eye(n)[rows]
    return Instance(data, GEProblem(
        name=f"{name}-{index}",
        n=n,
        s=rows.size,
        f=lambda x: lap @ x + x**3 - b,
        jf=lambda x: lap + np.diag(3.0 * x**2),
        g=lambda x: x[rows],
        jg=lambda x: basis,
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(psi[rows], np.full(rows.size, np.inf)),
    ))


def make_nl_few_bounds(rng, index, n=200, s=6):
    m = _monotone_matrix(rng, n)
    q = rng.standard_normal(n)
    g_mat = rng.standard_normal((s, n))
    h = rng.standard_normal(s)
    return Instance(dict(m=m, q=q, g=g_mat, h=h), GEProblem(
        name=f"nl-few-bounds-{index}",
        n=n,
        s=s,
        f=lambda x: m @ x + q + 0.5 * np.sin(x),
        jf=lambda x: m + np.diag(0.5 * np.cos(x)),
        g=lambda x: g_mat @ x + h,
        jg=lambda x: g_mat,
        hg=lambda x, lam: np.zeros((n, n)),
        box=BoxSet(-np.ones(s), np.ones(s)),
    ))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vi-dense", 100, 50, 140, make_vi_dense),
        Workload("obstacle-2d", 64, 64, 200, make_obstacle_2d),
        Workload("obstacle-pins", 196, 6, 200, partial(make_obstacle_2d, k=14, pins=6)),
        Workload("nl-few-bounds", 200, 6, 170, make_nl_few_bounds),
    )
}


def instance(workload, seed, index):
    return workload.make(np.random.default_rng([seed, index]), index)


def instances(workload, seed):
    return [instance(workload, seed, i) for i in range(workload.instances)]
