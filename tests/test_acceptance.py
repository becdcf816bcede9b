"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts the gate.  Gates are numbered; each one also enforces its
wall-clock budget.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm.cli import CSV_COLUMNS, BenchSpec, run_bench, write_csv
from egadm.operators import AffineProjector, l1_prox
from egadm.solver import (
    SolverConfig,
    VariantKind,
    ergodic_checkpoints,
    gap_surrogate,
    initial_state,
    resolve_gamma,
    solve,
)
from oracles import (
    bp_midpoint_transcription,
    central_diff_gradient,
    fused_midpoint_transcription,
    grid_prox_scalar,
    next_state,
)


def _gate(num, name, ok, detail, elapsed, budget=None):
    stamp = f"{elapsed:.1f}s" + (f" of {budget:.0f}s budget" if budget else "")
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail}; {stamp})")
    assert ok, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_operator_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_prox = 0.0
    for _ in range(1000):
        z = float(rng.uniform(-4.5, 4.5))
        tau = float(rng.uniform(0.0, 2.0))
        x = l1_prox(tau)(np.zeros(1), np.array([z]), 1.0)[0]  # soft-threshold of z at tau
        worst_prox = max(worst_prox, abs(x - grid_prox_scalar(z, tau)))
    worst_resid = 0.0
    worst_idem = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 51))
        n = m + int(rng.integers(1, 201 - m))
        A = rng.standard_normal((m, n))
        bvec = rng.standard_normal(m)
        proj = AffineProjector(A, bvec)
        w = rng.standard_normal(n)
        out = proj(w)
        worst_resid = max(worst_resid, float(np.linalg.norm(A @ out - bvec)))
        worst_idem = max(worst_idem, float(np.max(np.abs(proj(out) - out))))
    elapsed = time.perf_counter() - start
    ok = worst_prox <= 1e-3 and worst_resid <= 1e-9 and worst_idem <= 1e-10
    _gate(1, "operator oracle suite", ok,
          f"prox dev {worst_prox:.2e}, residual {worst_resid:.2e}, idempotence {worst_idem:.2e}",
          elapsed, 10.0)


def test_criterion_2_logistic_gradient():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    m, n = 50, 80
    A = rng.standard_normal((m, n))
    xh = np.zeros(n)
    xh[:5] = rng.uniform(0.5, 2.0, 5)
    labels = np.where(A @ xh + 0.4 >= 0, 1.0, -1.0)
    # the smooth block's own callables, the ones a solve runs
    smooth = fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=0.4, seed=0).smooth_block
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(n + 1)
        grad = smooth.gradient(z)
        fd = central_diff_gradient(smooth.evaluate, z)
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(grad)))
    elapsed = time.perf_counter() - start
    _gate(2, "logistic gradient vs finite differences", worst <= 1e-6,
          f"worst relative error {worst:.2e} over 100 points", elapsed, 5.0)


def test_criterion_3_step_size_certificate():
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(10):
        inst = bp.generate(100, 20, 2, seed)
        prob = bp.as_problem(inst)
        rep = solve(prob, SolverConfig(variant=VariantKind.EGL, monitor_certificate=True))
        assert rep.certificate_history
        worst = max(worst, max(rep.certificate_history))
    elapsed = time.perf_counter() - start
    _gate(3, "extragradient certificate nonpositive", worst <= 1e-10,
          f"max value {worst:.2e} across 10 runs", elapsed, 60.0)


def test_criterion_4_benchmark_pattern():
    start = time.perf_counter()
    spec = BenchSpec(
        problem="bp",
        dims=((100, 20, 2),),
        instances=10,
        seed_base=0,
        pattern="blocks",
        configs=tuple(SolverConfig(v, gamma=0.1, tol=1e-4, max_iters=20000) for v in VariantKind),
    )
    rows, _ = run_bench(spec)
    by_variant = {
        v.value: [r for r in rows if r["variant"] == v.value] for v in VariantKind
    }
    assert all(len(group) == 10 for group in by_variant.values())

    parts = []
    ok = True
    for name in ("gal", "egl", "egal"):
        group = by_variant[name]
        n_good = sum(1 for r in group if r["converged"] and r["err"] <= 1e-3)
        parts.append(f"{name} {n_good}/10 converged-with-small-error")
        ok = ok and n_good >= 9
    gl_capped = sum(1 for r in by_variant["gl"] if not r["converged"] and r["iters"] == 20000)
    parts.append(f"gl capped {gl_capped}/10")
    ok = ok and gl_capped >= 9
    medians = {name: float(np.median([r["iters"] for r in by_variant[name]]))
               for name in ("gal", "egl", "egal")}
    parts.append(f"median iters gal={medians['gal']:.0f} egl={medians['egl']:.0f} egal={medians['egal']:.0f}")
    ok = ok and medians["egal"] < medians["gal"] and medians["egal"] < medians["egl"]
    elapsed = time.perf_counter() - start
    _gate(4, "benchmark variant pattern", ok, ", ".join(parts), elapsed, 300.0)


def test_criterion_5_ergodic_complexity_trend():
    start = time.perf_counter()
    inst = bp.generate(100, 20, 2, 3)
    prob = bp.as_problem(inst)
    ref_rep = solve(prob, SolverConfig(variant=VariantKind.EGAL, tol=1e-10, max_iters=200000))
    assert ref_rep.converged
    ref = (ref_rep.state.x, ref_rep.state.y, ref_rep.state.lam)
    # deterministic start away from the saddle point: from the plain
    # origin this problem's averaged gap collapses to round-off noise
    st = initial_state(prob)
    lam0 = np.where(np.arange(st.lam.size) % 2 == 0, 1.0, -1.0)
    st = replace(st, x=np.ones_like(st.x), lam=lam0, lam_mid=lam0.copy())
    cfg = SolverConfig(variant=VariantKind.EGL, tol=0.0, max_iters=2000)
    triples = ergodic_checkpoints(prob, cfg, [250, 500, 1000, 2000], init=st)
    gaps = [gap_surrogate(prob, *t, ref) for t in triples]
    decreasing = all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    total = gaps[0] / gaps[-1]
    sane = all(g >= -1e-8 for g in gaps)
    elapsed = time.perf_counter() - start
    _gate(5, "gap surrogate O(1/N) trend", decreasing and total >= 4.0 and sane,
          f"gaps {[f'{g:.3e}' for g in gaps]}, total reduction {total:.1f}x",
          elapsed, 60.0)


def test_criterion_6_fused_structure_recovery():
    # NOTE: the solve leaves plateaus between the planted blocks, so the
    # off-support clause fails: 39.9% of the largest block mean at these
    # weights (beta/alpha = 100), 48.3% at beta/alpha = 20, measured with
    # one BLAS thread.  A weaker fusion weight leaves higher plateaus, so
    # the weight ratio does not explain them; a certified restricted solve
    # puts every vector that is zero off the support at least 7.3e-3
    # above the optimum of this objective.  The gate is asserted as
    # stated and is expected to fail on that clause.
    start = time.perf_counter()
    inst = fl.generate_simple_pattern(1000, 6)
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig(alpha=5e-4, beta=5e-2), tol=1e-5)
    x = rep.state.x[: inst.n]
    blocks = ((0, 100), (200, 300), (400, 500), (600, 700))
    mask = np.zeros(1000, bool)
    for lo, hi in blocks:
        mask[lo:hi] = True
    means = np.array([np.mean(x[lo:hi]) for lo, hi in blocks])
    stds = np.array([np.std(x[lo:hi]) for lo, hi in blocks])
    rel_stds = stds / np.abs(means)
    off = float(np.max(np.abs(x[~mask])))
    off_frac = off / float(np.max(np.abs(means)))
    flat_ok = bool(np.all(rel_stds <= 0.10))
    off_ok = off_frac <= 0.05
    elapsed = time.perf_counter() - start
    _gate(6, "fused block structure recovery", flat_ok and off_ok,
          f"block stds {[f'{v:.1%}' for v in rel_stds]} (need <=10%), "
          f"off-support max {off_frac:.1%} of largest mean (need <=5%)",
          elapsed, 180.0)


def test_criterion_7_fused_sparsity_order():
    start = time.perf_counter()
    inst = fl.generate_block_pattern(500, 100, 0)
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig(alpha=2e-2, beta=5e-2), tol=1e-4)
    l0, tv0 = fl.sparsity_report(rep.state.x[: inst.n])
    ok = rep.converged and rep.iterations <= 2500 and 20 <= l0 <= 120 and 6 <= tv0 <= 120
    elapsed = time.perf_counter() - start
    _gate(7, "fused sparsity order of magnitude", ok,
          f"iters {rep.iterations} (<=2500), l0 {l0} in [20,120], tv0 {tv0} in [6,120]",
          elapsed, 120.0)


def test_criterion_8_transcription_equivalence():
    start = time.perf_counter()
    # midpoint scheme on the l1/affine split, 200 iterations
    inst = bp.generate(20, 10, 2, 11)
    prob = bp.as_problem(inst)
    gamma = resolve_gamma(prob, SolverConfig(variant=VariantKind.EGL))
    oracle = bp_midpoint_transcription(inst.A, inst.b, gamma, 200)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=gamma)
    state = initial_state(prob)
    worst_bp = 0.0
    for ox, oyb, olb, oy, ol in oracle:
        state = next_state(prob, cfg, state)
        worst_bp = max(
            worst_bp,
            float(np.max(np.abs(state.x - ox))),
            float(np.max(np.abs(state.y_mid - oyb))),
            float(np.max(np.abs(state.lam_mid - olb))),
            float(np.max(np.abs(state.y - oy))),
            float(np.max(np.abs(state.lam - ol))),
        )
    # twelve-line fused loop on a 4x3 instance, 50 iterations
    rng = np.random.default_rng(42)
    A = rng.standard_normal((4, 3))
    xh = np.array([1.0, 1.0, -0.5])
    labels = np.where(A @ xh + 0.3 >= 0, 1.0, -1.0)
    finst = fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=0.3, seed=0)
    alpha, beta, fgamma = 0.05, 0.1, 0.1
    fprob = fl.as_problem(finst, fl.FusedLogisticConfig(alpha=alpha, beta=beta))
    fcfg = SolverConfig(variant=VariantKind.EGAL, gamma=fgamma)
    foracle = fused_midpoint_transcription(A, labels, alpha, beta, fgamma, 50)
    fstate = initial_state(fprob)
    worst_fl = 0.0
    n = 3
    for ox, ow, oyb, ocb, ol1b, ol2b, oy, oc, ol1, ol2 in foracle:
        fstate = next_state(fprob, fcfg, fstate)
        worst_fl = max(
            worst_fl,
            float(np.max(np.abs(fstate.x[:n] - ox))),
            float(np.max(np.abs(fstate.x[n:] - ow))),
            float(np.max(np.abs(fstate.y_mid[:n] - oyb))),
            abs(float(fstate.y_mid[n]) - ocb),
            float(np.max(np.abs(fstate.lam_mid[:n] - ol1b))),
            float(np.max(np.abs(fstate.lam_mid[n:] - ol2b))),
            float(np.max(np.abs(fstate.y[:n] - oy))),
            abs(float(fstate.y[n]) - oc),
            float(np.max(np.abs(fstate.lam[:n] - ol1))),
            float(np.max(np.abs(fstate.lam[n:] - ol2))),
        )
    elapsed = time.perf_counter() - start
    _gate(8, "transcription equivalence", worst_bp <= 1e-12 and worst_fl <= 1e-12,
          f"midpoint-split dev {worst_bp:.2e}, fused dev {worst_fl:.2e}",
          elapsed, 5.0)


def test_criterion_9_bench_determinism(tmp_path):
    start = time.perf_counter()
    spec = BenchSpec(
        problem="bp",
        dims=((60, 15, 2),),
        instances=3,
        seed_base=0,
        pattern="blocks",
        configs=tuple(SolverConfig(v, tol=1e-4, max_iters=20000) for v in (VariantKind.GAL, VariantKind.EGAL)),
    )
    paths = []
    for tag in ("one", "two"):
        rows, summaries = run_bench(spec)
        path = tmp_path / f"{tag}.csv"
        write_csv(path, rows, summaries)
        paths.append(path)
    seconds_col = CSV_COLUMNS.index("seconds")
    with open(paths[0], newline="") as f1, open(paths[1], newline="") as f2:
        rows1, rows2 = list(csv.reader(f1)), list(csv.reader(f2))
    same = len(rows1) == len(rows2)
    for r1, r2 in zip(rows1, rows2):
        r1[seconds_col] = r2[seconds_col] = ""
        same = same and r1 == r2
    elapsed = time.perf_counter() - start
    _gate(9, "benchmark determinism", same,
          f"{len(rows1)} CSV rows identical modulo the seconds column", elapsed)
