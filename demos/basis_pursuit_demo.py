#!/usr/bin/env python3
"""Compare the four solver variants on a seeded basis-pursuit batch.

Generates ten sparse-recovery instances (Gaussian sensing matrix with unit
spectral norm, planted 2-sparse solution), solves each with every variant
at a fixed step size through ``cli.run_bench`` (the sweep of gate 4), and
prints its per-variant summary rows: converged count, median iterations
and median recovery error.  The plain-Lagrangian gradient variant (gl) is
expected to stall at the iteration cap; the
extragradient-on-augmented-Lagrangian variant (egal) is expected to need
the fewest iterations.
"""

from egadm.cli import BenchSpec, run_bench
from egadm.solver import SolverConfig, VariantKind

N, M, S = 100, 20, 2
GAMMA = 0.1

spec = BenchSpec(
    problem="bp",
    dims=((N, M, S),),
    instances=10,
    seed_base=0,
    pattern="blocks",
    configs=tuple(SolverConfig(v, gamma=GAMMA, tol=1e-4, max_iters=20000) for v in VariantKind),
)
_, summaries = run_bench(spec)

print(f"basis pursuit, (n, m, s) = ({N}, {M}, {S}), gamma = {GAMMA}, tol = 1e-4")
print(f"{'variant':>8} {'converged':>10} {'median iters':>13} {'median error':>13}")
for row in summaries:
    print(f"{row['variant']:>8} {row['converged']:>10} {row['iters']:>13.0f} {row['err']:>13.2e}")
