#!/usr/bin/env python3
"""The contraction certificate as a runtime step-size check.

Each midpoint iteration can evaluate

    gamma * <F(x+, z_mid), z_mid - z_next> - 0.5 * ||z_prev - z_next||^2

which is nonpositive whenever gamma <= 1 / (2 * Lhat), with Lhat the
Lipschitz bound of the stacked dual map.  Running with the automatic
step size keeps every value below zero; deliberately taking a 50x step
produces positive values within a few iterations and then divergence.
"""

import itertools

import numpy as np

from egadm import basis_pursuit as bp
from egadm.solver import DivergenceError, SolverConfig, VariantKind, iterate, solve

inst = bp.generate(100, 20, 2, 0)
problem = bp.as_problem(inst)

report = solve(
    problem, SolverConfig(variant=VariantKind.EGL, monitor_certificate=True)
)
print(f"admissible step size: {report.iterations} iterations, "
      f"max certificate {max(report.certificate_history):.2e}, "
      f"violations {report.lemma_violations}")

gamma = 50 / (2 * np.sqrt(2))
config = SolverConfig(variant=VariantKind.EGL, gamma=gamma, monitor_certificate=True)
print(f"oversized step size gamma = {gamma:.2f}:")
try:
    for state, info in itertools.islice(iterate(problem, config), 20):
        print(f"  iteration {state.k}: certificate {info.certificate:+.3e}")
except DivergenceError as exc:
    print(f"  {exc}")
