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
assert probes == {"coupling": 0, "data": 0}, probes
print(report.iterations)
"""


def test_the_traced_fused_solve_takes_the_iterations_of_solve_fused():
    # the traced path of the fused workloads, which only a traced
    # benchmark run reaches otherwise
    proc = _run_with_bench(_TRACED_FUSED)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
