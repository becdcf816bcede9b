"""Layered benchmark for egadm.

    python3 bench/run.py --workload bp_variants --seed 1 --seconds 36 --trace 0

Runs one workload (see ``workloads.py``) through egadm's public API in
this process: closed loop, one caller, BLAS/OpenMP threads pinned to 1.
The workload's inputs are generated from ``--seed`` and solved in whole
passes until ``--seconds`` would be exceeded.  Every solve's output is
checked; the command exits 1 if any check fails.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs untraced passes for half the time, then one traced
pass with spans recorded around calls into each module, then direct
calls into the set-up functions; it prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` names for the mode.  The full report (machine,
samples, cells) and, when tracing, the spans go to ``bench/out/``.

Of the printed end-to-end figures, BENCHMARK.json bounds ``iter_ref``,
``setup_s`` and ``peak_rss_mb``.  ``setup_s`` is each solve's set-up time
scaled by the reference kernel's nominal time over its time just before
the solve (``workloads.Reference``); ``setup_raw_s`` is unscaled.  ``wall_s``, ``solve_s`` and
``iters_total`` follow how hard the seed's instances are, and
``failed_frac`` is carried by the result line's ``failed``/``attempted``.
"""

import os

PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in PINNED_THREADS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def fix_mmap_threshold():
    """Serve every allocation of 128 KiB or more from mmap, returned to the
    system when freed.

    glibc otherwise raises this threshold each time a large block is freed,
    after which large arrays come from the heap and may stay resident; the
    peak RSS then depended on the order of earlier frees and varied by 7%
    between runs of the same workload.  Returns whether the setting took.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    return libc.mallopt(m_mmap_threshold, 128 * 1024) == 1


MMAP_THRESHOLD_FIXED = fix_mmap_threshold()


def import_checkout_egadm():
    """Import egadm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import egadm
    except ImportError as exc:
        raise SystemExit(f"error: cannot import egadm from {src}: {exc}")
    if Path(egadm.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: egadm imported from {egadm.__file__}, not from {src}")


import_checkout_egadm()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from egadm.solver import VariantKind  # noqa: E402
from tracing import Tracer, loop_child_seconds, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ------------------------------------------------------------ machine


def calibration_ms():
    """Median of three timings of a fixed loop (pure Python plus small
    matvecs), after one untimed warm-up.  A slow reading marks a run on a
    busy machine."""
    mat = np.random.default_rng(0).standard_normal((200, 200))
    v = np.ones(200)
    times = []
    for _ in range(4):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        for _ in range(2000):
            v = mat @ v
            v /= np.linalg.norm(v)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times[1:])


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_info():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in PINNED_THREADS},
        "mmap_threshold_fixed": MMAP_THRESHOLD_FIXED,
        "loadavg_start": list(os.getloadavg()),
        "calibration_ms_start": calibration_ms(),
    }


# ------------------------------------------------------------ running


def run_passes(workload, budget, tracer=None):
    """Whole passes until the next one would end past ``budget`` seconds
    (always at least one).  Returns ``[(wall_s, cells), ...]``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cells = workload.run_pass(tracer)
        wall = time.perf_counter() - t0
        passes.append((wall, cells))
        if tracer is not None or time.perf_counter() - start + wall > budget:
            return passes


def tail(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return None


def stat(samples, unit):
    out = {"value": statistics.median(samples), "unit": unit, "n": len(samples), "of": "median"}
    t = tail(samples)
    if t is not None:
        out[f"p{t[0]}"] = t[1]
    return out


def solve_cells(cells):
    return [c for c in cells if c.variant in {v.value for v in VariantKind}]


def per_iteration(solves, unit, reference):
    """Per-iteration loop time: for each variant the median over its cells
    of ``loop_s / iterations``, then the mean over the variants.

    Weighting variants equally, rather than by their iteration counts,
    keeps the figure independent of how many iterations each variant
    happened to need on the seed's instances.  With ``reference`` each
    cell's time is divided by the reference kernel's time around it
    (``workloads.Reference``), which cancels the machine's momentary speed.
    """
    per_variant = {}
    for c in solves:
        if c.iterations:
            t = 1e6 * c.loop_s / c.iterations
            per_variant.setdefault(c.variant, []).append(t / c.ref_us if reference else t)
    values = [statistics.median(v) for v in per_variant.values()]
    return {"value": _mean(values), "unit": unit, "n": sum(map(len, per_variant.values())),
            "of": "mean over variants of the median"}


def end_to_end(passes):
    """Every end-to-end figure of the untraced passes, with sample counts."""
    cells = [c for _, pass_cells in passes for c in pass_cells]
    solves = solve_cells(cells)
    failed = sum(1 for c in cells if c.failures)
    return {
        "wall_s": stat([w for w, _ in passes], "s"),
        "setup_s": stat([c.setup_nominal_s for c in solves], "s"),
        "setup_raw_s": stat([c.setup_s for c in solves], "s"),
        "solve_s": stat([c.call_s for c in solves], "s"),
        "iter_us": per_iteration(solves, "us", reference=False),
        "iter_ref": per_iteration(solves, "ratio", reference=True),
        "iters_total": {"value": sum(c.iterations for c in passes[0][1]), "unit": "count",
                        "n": len(passes[0][1]), "of": "sum per pass"},
        "failed_frac": {"value": failed / len(cells), "unit": "ratio", "n": len(cells),
                        "of": "failed / attempted"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1, "of": "process peak"},
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(workload, passes, traced, tracer, probes, untraced_wall):
    """Per-layer figures of one traced pass plus the set-up probes."""
    traced_wall, cells = traced
    spans = summarize(tracer)
    iters = sum(c.iterations for c in cells)

    def span_s(name):
        calls, secs = spans.get(name, (0, 0.0))
        return secs / calls if calls else 0.0

    m = {}
    kernels = ("problem.apply_a", "problem.apply_b", "problem.apply_bt",
               "operators.affine_project", "operators.shrink", "fused_logistic.gradient")
    for name in kernels:
        calls, _ = spans.get(name, (0, 0.0))
        m[f"{name}.us_per_call"] = 1e6 * span_s(name)
        m[f"{name}.calls_per_iter"] = calls / iters if iters else 0.0
        if name != "operators.shrink":
            flops, moved = tracer.work.get(name, (0, 0)) if calls else (0, 0)
            m[f"{name}.flops_computed"] = float(flops)
            m[f"{name}.bytes_computed"] = float(moved)
    m["operators.affine_setup.us"] = 1e6 * span_s("operators.affine_setup")

    loop_children = loop_child_seconds(tracer)
    solves = [c for c in solve_cells(cells) if c.solve_span >= 0]
    self_s = sum(c.loop_s - loop_children.get(c.solve_span, 0.0) for c in solves)
    m["solver.self_us_per_iter"] = 1e6 * self_s / iters if iters else 0.0
    all_untraced = [c for _, pc in passes for c in pc]
    untraced = solve_cells(all_untraced)
    for v in VariantKind:
        vc = [c for c in untraced if c.variant == v.value]
        vi = sum(c.iterations for c in vc)
        m[f"solver.iter_us.{v.value}"] = 1e6 * sum(c.loop_s for c in vc) / vi if vi else 0.0
    total_iters = sum(c.iterations for c in untraced)
    m["solver.capped_iters_frac"] = (
        sum(c.iterations for c in untraced if c.capped) / total_iters if total_iters else 0.0
    )
    m["solver.iters_total"] = float(iters)
    m["solver.resolve_gamma_s"] = span_s("solver.resolve_gamma")

    m["problem.kkt_lipschitz_bound_s"] = span_s("problem.kkt_lipschitz_bound")
    m["linalg.spectral_norm_sq.coupling_s"] = span_s("linalg.spectral_norm_sq.coupling")
    m["linalg.spectral_norm_sq.data_s"] = span_s("linalg.spectral_norm_sq.data")
    m["linalg.spectral_norm_sq_s"] = (
        m["linalg.spectral_norm_sq.coupling_s"] + m["linalg.spectral_norm_sq.data_s"]
    )
    m["linalg.spectral_norm_sq.failed"] = float(sum(probes.values()))

    m["fused_logistic.logistic_lipschitz_s"] = span_s("fused_logistic.logistic_lipschitz")
    m["fused_logistic.as_problem_s"] = span_s("fused_logistic.as_problem")
    m["basis_pursuit.as_problem_us"] = 1e6 * span_s("basis_pursuit.as_problem")
    m["basis_pursuit.generate_ms"] = 1e3 * _mean(getattr(workload, "generate_s", []))

    m["storage.save_ms"] = 1e3 * span_s("storage.save")
    m["storage.load_ms"] = 1e3 * span_s("storage.load")
    m["storage.bytes_written"] = float(getattr(workload, "bytes_written", 0))
    gens = [c.call_s for c in all_untraced if c.variant == "gen"]
    m["cli.gen_ms"] = 1e3 * statistics.median(gens) if gens else 0.0
    cli_solves = [c.call_s for c in untraced] if workload.name == "cli_blocks" else []
    m["cli.solve_s"] = statistics.median(cli_solves) if cli_solves else 0.0

    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = float(len(tracer.spans))
    return m


def consistency_failures(passes, traced):
    """Every pass solves the same cells, so iteration counts must repeat
    exactly, traced or not."""
    counts = [[c.iterations for c in pc] for _, pc in passes]
    if traced is not None:
        counts.append([c.iterations for c in traced[1]])
    if any(c != counts[0] for c in counts[1:]):
        return [f"iteration counts differ between passes: {[sum(c) for c in counts]}"]
    return []


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(spec, trace, figures, attempted, failed, correct):
    """The final JSON line: exactly the metrics BENCHMARK.json names for
    the mode, with its units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = figures[entry["name"]]
        if isinstance(value, dict):
            value = value["value"]
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(workload_name, seed, seconds, trace):
    spec = load_spec()
    machine = machine_info()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[workload_name]()
        t0 = time.perf_counter()
        workload.prepare(seed, workdir)
        prepare_s = time.perf_counter() - t0
        traced = tracer = None
        if not trace:
            passes = run_passes(workload, seconds)
        else:
            passes = run_passes(workload, seconds / 2.0)
            tracer = Tracer()
            traced = run_passes(workload, 0.0, tracer)[0]
            probes = workload.probe_setup(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = end_to_end(passes)
    untraced_wall = figures["wall_s"]["value"]
    if trace:
        figures.update(per_layer(workload, passes, traced, tracer, probes, untraced_wall))
        tracer.write_jsonl(OUT / f"spans-{workload_name}.jsonl")

    cells = [c for _, pc in passes for c in pc] + (traced[1] if traced else [])
    failures = [f"{c.label} {c.variant}: {f}" for c in cells for f in c.failures]
    benchmark_errors = consistency_failures(passes, traced)
    attempted, failed = len(cells), sum(1 for c in cells if c.failures)
    correct = not failures and not benchmark_errors

    machine["loadavg_end"] = list(os.getloadavg())
    machine["calibration_ms_end"] = calibration_ms()
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "prepare_s": prepare_s, "machine": machine, "figures": figures,
        "failures": failures, "benchmark_errors": benchmark_errors,
        "passes": [{"wall_s": w, "cells": [vars(c) for c in pc]} for w, pc in passes],
    }
    (OUT / f"report-{workload_name}{'-trace' if trace else ''}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8"
    )

    print(f"machine {json.dumps(machine)}")
    print(f"workload {workload_name} seed {seed}: {len(passes)} untraced passes"
          f"{', 1 traced pass' if trace else ''}, input preparation {prepare_s:.3f} s")
    for name, fig in figures.items():
        if isinstance(fig, dict):
            extra = "".join(f", {k} {v:.6g}" for k, v in fig.items() if k[0] == "p" and k[1:].isdigit())
            print(f"  {name:40s} {fig['value']:.6g} {fig['unit']} ({fig['of']}, n={fig['n']}{extra})")
        else:
            print(f"  {name:40s} {fig:.6g}")
    for line in failures + benchmark_errors:
        print(f"FAILED {line}")
    print(json.dumps(result_line(spec, trace, figures, attempted, failed, correct)))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
