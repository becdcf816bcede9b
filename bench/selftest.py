"""Quick self-test of the benchmark (a few seconds; not part of the test suite).

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed, that both modes emit every
metric it names with a unit, that the correctness checks flag
deliberately wrong outputs, and that the benchmark refuses to run
without the library sources.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import run  # pins threads and imports egadm from this checkout
import numpy as np
from scipy.optimize import linprog
from tracing import Tracer
from workloads import (
    BP_MIN_PLANTED,
    WORKLOADS,
    BpVariants,
    Cell,
    check_bp,
    check_cli_solve,
    check_fused,
)

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
problems = []


def check(cond, message):
    if not cond:
        problems.append(message)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has the wrong top-level keys")
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from bench/workloads.py")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w['name']}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "a metric name is used twice")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]), f"name or unit of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["bound"] >= max(
        m["bound"] for m in spec["end_to_end"]), "setup_s must exist with the largest bound")


def check_emission(spec):
    """A one-instance basis-pursuit workload, run untraced and traced,
    must emit every metric of both modes with BENCHMARK.json's unit."""
    workload = BpVariants()
    workload.instances = 1
    workload.prepare(3, None)
    check(all(np.min(i.xhat[i.xhat != 0]) >= BP_MIN_PLANTED for i in workload.insts),
          "bp workload kept a draw with a planted value below BP_MIN_PLANTED")
    passes = run.run_passes(workload, 0.0)
    tracer = Tracer()
    traced = run.run_passes(workload, 0.0, tracer)[0]
    probes = workload.probe_setup(tracer)
    figures = run.end_to_end(passes)
    figures.update(run.per_layer(workload, passes, traced, tracer, probes, 1.0))
    check(not run.consistency_failures(passes, traced), "traced iterations differ")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(spec, trace, figures, 1, 0, True)
        json.loads(json.dumps(line))
        for m in spec[key]:
            got = line["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"]
                  and isinstance(got["value"], float), f"{m['name']} not emitted with a unit")
        check(set(line["metrics"]) == {m["name"] for m in spec[key]}, f"{key} metrics differ from BENCHMARK.json")
    moves = json.loads((run.ROOT / "bench" / "expected_moves.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name, entry in moves.items():
        if name.startswith("_"):
            continue
        check(name in layer_names, f"expected_moves.json names unknown metric {name}")
        check(set(entry["moves"]) <= set(figures), f"{name} moves an unknown figure")
        check(set(entry["on"] + entry["no_effect_on"]) <= set(WORKLOADS), f"{name} workloads")


def check_correctness_flags():
    inst = bp.generate(100, 20, 2, 5)
    good = inst.xhat.copy()
    check(check_bp(inst, "egal", True, good) == [], "correct bp output flagged")
    check(check_bp(inst, "gl", False, good) == [], "GL at the cap flagged")
    check(check_bp(inst, "egal", True, good + 1e-2) != [], "wrong bp output not flagged")
    check(check_bp(inst, "egl", False, good) != [], "non-GL cap not flagged")
    check(check_bp(inst, "gal", True, good * np.nan) != [], "non-finite bp output not flagged")
    # A draw whose planted vector is not its l1 minimizer: the minimizer,
    # found here by linear programming, is a correct output.
    hard = bp.generate(100, 20, 2, 702045878)
    lp = linprog(np.ones(200), A_eq=np.hstack([hard.A, -hard.A]), b_eq=hard.b,
                 bounds=(0, None), method="highs")
    check(check_bp(hard, "egal", True, lp.x[:100] - lp.x[100:]) == [],
          "l1 minimizer of an unrecoverable instance flagged")
    check(check_bp(hard, "egal", True, hard.xhat + 1e-2) != [],
          "wrong output on an unrecoverable instance not flagged")

    finst = fl.generate_block_pattern(200, 20, 0)
    n = finst.n
    y_mid = np.concatenate([finst.xhat, [0.5]])
    x = np.concatenate([finst.xhat, finst.xhat[:-1] - finst.xhat[1:]])
    check(check_fused(finst, True, x, y_mid) == [], "consistent fused output flagged")
    bad = x.copy()
    bad[n + 3] += 1e-2
    check(check_fused(finst, True, bad, y_mid) != [], "fused residual not flagged")
    check(check_fused(finst, False, x, y_mid) != [], "unconverged fused solve not flagged")

    coef = finst.xhat.copy()
    l0, tv0 = fl.sparsity_report(coef)
    row = {"converged": True, "lemma_violations": 0, "l0": l0, "tv0": tv0}
    check(check_cli_solve(0, row, coef, n) == [], "correct CLI output flagged")
    check(check_cli_solve(2, row, coef, n) != [], "nonzero CLI exit not flagged")
    check(check_cli_solve(0, dict(row, lemma_violations=1), coef, n) != [],
          "certificate violation not flagged")
    wrong = coef.copy()
    wrong[150] = 7.0
    check(check_cli_solve(0, row, wrong, n) != [], "coefficients disagreeing with the row not flagged")
    check(check_cli_solve(0, row, None, n) != [], "missing coefficients not flagged")

    a = [Cell("c", "gl", iterations=10)]
    b = [dataclasses.replace(a[0], iterations=11)]
    check(run.consistency_failures([(1.0, a)], (1.0, b)) != [], "traced iteration mismatch not flagged")


def check_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    must exit nonzero without printing a result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in (run.ROOT / "bench").iterdir():
            if f.is_file():
                shutil.copy(f, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "bp_variants", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0, "benchmark ran without the library sources")
        check('"correct"' not in proc.stdout, "benchmark printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = run.load_spec()
    check_spec(spec)
    check_correctness_flags()
    check_emission(spec)
    check_refuses_without_sources()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
