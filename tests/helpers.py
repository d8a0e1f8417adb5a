"""Shared random-instance generators and callback counters for the test suite."""

import dataclasses

import numpy as np

from ssnewton.cones import BoxSet
from ssnewton.problems import AffineProblemSpec
from ssnewton.qp import QPInstance


def counting_callbacks(problem, calls):
    """The problem with each callback appending its name to ``calls``."""

    def counted(name):
        fn = getattr(problem, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    names = ("f", "jf", "g", "jg", "hg")
    return dataclasses.replace(problem, **{name: counted(name) for name in names})


def has_disjoint_rows(jac):
    """Every column of Jg has at most one nonzero: solve_qp's closed form."""
    return bool(np.all(np.count_nonzero(jac, axis=0) <= 1))


def random_box(rng, s):
    """Bounds drawn from {-1, 0, 1, +-inf}, lower <= upper."""
    lows = rng.choice([-1.0, 0.0, 1.0, -np.inf], s)
    ups = rng.choice([-1.0, 0.0, 1.0, np.inf], s)
    lo = np.minimum(lows, ups)
    hi = np.maximum(lows, ups)
    lo[np.isinf(lo) & (lo > 0)] = -np.inf
    hi[np.isinf(hi) & (hi < 0)] = np.inf
    return BoxSet(lo, hi)


def random_qp_instance(rng, max_n=5, max_s=4):
    """The acceptance recipe: entries uniform in [-2, 2], desk-scale shapes."""
    n = int(rng.integers(1, max_n + 1))
    s = int(rng.integers(1, max_s + 1))
    return QPInstance(
        c=rng.uniform(-2, 2, n),
        b=rng.uniform(-2, 2, s),
        jac=rng.uniform(-2, 2, (s, n)),
        box=random_box(rng, s),
    )


def random_affine_problem(rng, max_n=6, max_s=4):
    """Affine problem with s <= n, so every activity pattern has full row rank."""
    n = int(rng.integers(1, max_n + 1))
    s = int(rng.integers(1, min(n, max_s) + 1))
    spec = AffineProblemSpec(
        name="random-affine",
        m=rng.uniform(-2, 2, (n, n)),
        q=rng.uniform(-2, 2, n),
        g_mat=rng.uniform(-2, 2, (s, n)),
        h=rng.uniform(-1, 1, s),
        lower=rng.choice([-1.0, -np.inf], s),
        upper=rng.choice([0.0, 1.0, np.inf], s),
    )
    return spec.build()


def graph_point(rng, box):
    """A random (d, lam) on the graph of the box normal-cone map."""
    s = box.dim
    d = np.zeros(s)
    lam = np.zeros(s)
    for i in range(s):
        lo, hi = box.lower[i], box.upper[i]
        states = []
        if lo == hi:
            states.append((lo, rng.uniform(-1.5, 1.5)))
        else:
            if np.isfinite(lo):
                states.append((lo, -rng.uniform(0.2, 1.5)))
                states.append((lo, 0.0))
            if np.isfinite(hi):
                states.append((hi, rng.uniform(0.2, 1.5)))
                states.append((hi, 0.0))
            interior = 0.0
            if np.isfinite(lo) and np.isfinite(hi):
                interior = 0.5 * (lo + hi)
            elif np.isfinite(lo):
                interior = lo + 1.0
            elif np.isfinite(hi):
                interior = hi - 1.0
            if not (np.isfinite(lo) and np.isfinite(hi) and hi - lo == 0):
                states.append((interior, 0.0))
        d[i], lam[i] = states[rng.integers(0, len(states))]
    return d, lam
