"""The benchmark's modules import and run against this checkout's library.

``bench/`` lies outside pytest's testpaths, so a public name deleted
from ``egadm`` that ``bench/`` still imports, or a change the traced
solve no longer fits, would pass every other test.  Each check runs in
a subprocess: ``run.py`` sets BLAS thread variables at import, and
``bench/`` modules import each other by bare name.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_with_bench(code, timeout=60):
    """``code`` in a fresh interpreter with ``src`` and ``bench`` first on
    ``sys.path``."""
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_bench_modules_import():
    proc = _run_with_bench("import tracing, workloads")
    assert proc.returncode == 0, proc.stderr


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


_TRACED_FUSED = """
import numpy as np
import tracing, workloads
from egadm import fused_logistic as fl

inst = fl.generate_block_pattern(200, 20, 0)
cfg = fl.FusedLogisticConfig(alpha=2e-2)
tracer = tracing.Tracer()
report, span = workloads._replay_fused(tracer, inst, cfg, True)
probes = workloads._probe_fused_setup(tracer, inst, cfg)
plain = fl.solve_fused(inst, cfg)
names = [s[0] for s in tracer.spans]
assert tracer.spans[span][0] == "solver.solve"
assert (report.iterations, report.converged) == (plain.iterations, plain.converged)
assert report.state.x.tobytes() == plain.state.x.tobytes()
assert names.count("operators.shrink") == report.iterations
# EGAL's calls per iteration, as in _TRACED_BP: TracedCoupling's overrides
# and the wrapped gradient see every product of the fused path
k = report.iterations
counts = {name: names.count(name) for name in (
    "problem.apply_a", "problem.apply_b", "problem.apply_bt", "fused_logistic.gradient")}
assert counts == {
    "problem.apply_a": k, "problem.apply_b": 2 * k, "problem.apply_bt": 2 * k,
    "fused_logistic.gradient": 2 * k,
}, (k, counts)
assert probes == {"coupling": 0, "data": 0}, probes
print(report.iterations)
"""


def test_the_traced_fused_solve_takes_the_iterations_of_solve_fused():
    # the traced path of the fused workloads, which only a traced
    # benchmark run reaches otherwise
    proc = _run_with_bench(_TRACED_FUSED)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


_TRACED_BP = """
import tracing, workloads
from egadm import basis_pursuit as bp
from egadm.solver import SolverConfig, VariantKind, solve

inst = bp.generate(100, 20, 2, 0)
for variant in VariantKind:
    config = SolverConfig(variant=variant, tol=workloads.TOL, max_iters=workloads.MAX_ITERS)
    tracer = tracing.Tracer()
    problem = tracing.traced_problem(bp.as_problem(inst), tracer, "basis_pursuit")
    report, span = workloads._traced_solve(tracer, problem, config)
    plain = solve(bp.as_problem(inst), config)
    assert tracer.spans[span][0] == "solver.solve"
    assert (report.iterations, report.converged) == (plain.iterations, plain.converged)
    for name in ("x", "y", "lam", "y_mid", "lam_mid"):
        traced, want = getattr(report.state, name), getattr(plain.state, name)
        assert traced.tobytes() == want.tobytes(), (variant, name)
    # the calls per iteration of test_monitored_iteration_reuses_the_products_it_computed;
    # the start's projection adds one affine_project span
    k, steps = report.iterations, 2 if variant.extragradient else 1
    names = [s[0] for s in tracer.spans]
    counts = {name: names.count(name) for name in set(names)}
    assert counts == {
        "solver.solve": 1, "operators.shrink": k, "problem.apply_a": k,
        "problem.apply_b": 2 * k, "problem.apply_bt": steps * k,
        "basis_pursuit.gradient": steps * k, "operators.affine_project": steps * k + 1,
    }, (variant, k, counts)
    print(variant.value, k)
"""


def test_the_traced_bp_solves_keep_the_bits_and_calls_of_solve():
    # the traced path of the bp_variants workload, every variant
    proc = _run_with_bench(_TRACED_BP)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 8 and all(int(k) > 0 for k in proc.stdout.split()[1::2])
