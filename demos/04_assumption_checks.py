"""Verify the two solvability assumptions at candidate solutions.

Local quadratic convergence needs (a) non-degeneracy -- the Jacobian of g
acts injectively on the span of the normal cone, measured by a singular
value -- and (b) a second-order condition: the Lagrangian Jacobian reduced
to the null space of each face's active rows must be regular.  Both are
directly computable; this script runs them on a healthy problem and on a
deliberately broken one.
"""

import numpy as np

from ssnewton import (
    BoxSet,
    GEProblem,
    check_second_order,
    get_problem,
    nondegeneracy_modulus,
)

print("=== the scalar complementarity problem at its solution ===")
ncp = get_problem("ncp-paper")
x_bar = np.zeros(1)
lam_bar = np.zeros(1)
print(f"non-degeneracy modulus: {nondegeneracy_modulus(ncp, x_bar, ncp.g(x_bar))}")
report = check_second_order(ncp, x_bar, lam_bar)
for face in report.faces:
    print(f"  face J = {set(face.index_set) or set()}: "
          f"{'PASS' if face.passed else 'FAIL'} (sigma_min {face.sigma_min})")
print(f"second-order overall: {'PASS' if report.passed else 'FAIL'}")

print("\n=== a degenerate constraint system ===")
degenerate = GEProblem(
    name="broken",
    n=1,
    s=1,
    f=lambda x: x.copy(),
    jf=lambda x: np.eye(1),
    g=lambda x: np.zeros(1),  # constant constraint: Jacobian row is zero
    jg=lambda x: np.zeros((1, 1)),
    hg=lambda x, lam: np.zeros((1, 1)),
    box=BoxSet.nonpositive(1),
)
print(f"non-degeneracy modulus: {nondegeneracy_modulus(degenerate, x_bar, np.zeros(1))}")
print("a zero modulus means the multiplier is not pinned down by the geometry")

print("\n=== a second-order failure ===")
flat = GEProblem(
    name="flat",
    n=2,
    s=2,
    f=lambda x: np.zeros(2),  # zero map: nothing to invert on the null space
    jf=lambda x: np.zeros((2, 2)),
    g=lambda x: x.copy(),
    jg=lambda x: np.eye(2),
    hg=lambda x, lam: np.zeros((2, 2)),
    box=BoxSet.nonpositive(2),
)
report = check_second_order(flat, np.zeros(2), np.zeros(2))
for face in report.faces:
    print(f"  face J = {set(face.index_set) or set()}: "
          f"{'PASS' if face.passed else 'FAIL'}")
print(f"second-order overall: {'PASS' if report.passed else 'FAIL'}")
