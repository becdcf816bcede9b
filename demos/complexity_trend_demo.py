#!/usr/bin/env python3
"""Measure the O(1/N) decay of the averaged duality-gap surrogate.

A high-accuracy run provides a reference saddle point; the surrogate at
the running iterate averages is then L(avg_x, avg_y; lam*) - L(x*, y*;
avg_lam).  Starting the measured run away from the saddle point (the
canonical zero start collapses the surrogate to round-off on this
problem class), the values halve with every doubling of N.
"""

from dataclasses import replace

import numpy as np

from egadm import basis_pursuit as bp
from egadm.solver import (
    SolverConfig,
    VariantKind,
    ergodic_checkpoints,
    gap_surrogate,
    initial_state,
    solve,
)

inst = bp.generate(100, 20, 2, 3)
problem = inst.as_problem()

reference_run = solve(
    problem, SolverConfig(variant=VariantKind.EGAL, tol=1e-10, max_iters=200000)
)
print(f"reference solved to movement/residual 1e-10 in {reference_run.iterations} iterations")
ref = (reference_run.state.x, reference_run.state.y, reference_run.state.lam)

start = initial_state(problem)
lam0 = np.where(np.arange(start.lam.size) % 2 == 0, 1.0, -1.0)
start = replace(start, x=np.ones_like(start.x), lam=lam0, lam_mid=lam0.copy())

checkpoints = [250, 500, 1000, 2000]
config = SolverConfig(variant=VariantKind.EGL, tol=0.0, max_iters=max(checkpoints))
triples = ergodic_checkpoints(problem, config, checkpoints, init=start)

print(f"{'N':>6} {'gap surrogate':>15} {'x halving':>10}")
previous = None
for n_iters, triple in zip(checkpoints, triples):
    gap = gap_surrogate(problem, *triple, ref)
    ratio = "" if previous is None else f"{previous / gap:10.2f}"
    print(f"{n_iters:>6} {gap:>15.4e} {ratio:>10}")
    previous = gap
