"""The bit ledger: digests of fixed runs, written once per environment.

    python3 tests/ledger.py            # check the runs against tests/ledger.json
    python3 tests/ledger.py --write    # record them for this environment

An iterate cell is one run of ``iterate`` for a fixed number of steps.
Its entry is the sha256 of the final state's (x, y, lam, y_mid,
lam_mid), each as little-endian float64 bytes, one after another, and
the last StepInfo's ``residual_norm``, ``movement`` and ``certificate``
as ``float.hex`` strings (the certificate None where the run records
none).  A CLI cell runs ``egadm`` in this process.  The cells:

- basis pursuit 100 x 20 x 2, seeds 0-3, all four variants, 300 steps at
  the automatic step size and 300 at gamma 0.1, and EGL and EGAL
  monitored at the automatic step size;
- the gate-7 fused instance (blocks 500 x 100, seed 0), GL and EGAL,
  200 steps;
- the gate-6 fused instance (simple 1000 x 500, seed 6), GL and EGAL,
  30 steps;
- ``egadm gen`` of bp 100 x 20 x 5, fused blocks 500 x 100 and fused
  simple 1000 x 500 at seeds 3, 41 and 977: the sha256 of every file it
  writes;
- ``egadm solve --monitor-lemma --emit-coef --max-iters 200`` of those
  nine directories, GL and EGAL: the exit status, the JSON row without
  ``seconds`` and the sha256 of the coefficient file.

Digests depend on the BLAS and the CPU, and the gate-6 instance's
digests differ at two BLAS threads, so the thread variables of
``bench/run.py`` are set to 1 before numpy loads, and ``ledger.json``
keys each record by the numpy version, the BLAS string and the CPU
model.  Check mode prints every changed cell and exits 1; on an
environment with no record it prints the ``--write`` command and exits
3.  A change that alters bits on purpose rewrites the record and names
each changed cell and its reason.  pytest does not collect this file.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "ledger.json"


def pinned_variables():
    """``PINNED_THREADS``, the BLAS and OpenMP thread variables that
    ``bench/run.py`` sets to 1, read from its source: importing it would
    set them in this process."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PINNED_THREADS"]:
            return ast.literal_eval(node.value)
    raise LookupError("bench/run.py assigns no PINNED_THREADS")


if __name__ == "__main__":  # before numpy loads its BLAS; an import changes nothing
    for _var in pinned_variables():
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from egadm import basis_pursuit as bp  # noqa: E402
from egadm import cli  # noqa: E402
from egadm import fused_logistic as fl  # noqa: E402
from egadm.solver import SolverConfig, VariantKind, iterate  # noqa: E402

EXIT_CHANGED, EXIT_UNRECORDED = 1, 3


def environment():
    """The record's key: numpy version, BLAS string and CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"numpy {np.__version__} | {blas} | {cpu}"


def _cells():
    """``(name, problem, config, steps)`` of every cell, in ledger order."""
    for seed in range(4):
        prob = bp.as_problem(bp.generate(100, 20, 2, seed))
        for variant in VariantKind:
            for gamma, label in ((None, "auto"), (0.1, "g0.1")):
                yield f"bp100x20x2-s{seed}-{variant.value}-{label}", prob, SolverConfig(variant, gamma), 300
        for variant in (VariantKind.EGL, VariantKind.EGAL):
            config = SolverConfig(variant, monitor_certificate=True)
            yield f"bp100x20x2-s{seed}-{variant.value}-auto-monitored", prob, config, 300
    fused = (
        ("gate7", fl.generate_block_pattern(500, 100, 0), fl.FusedLogisticConfig(2e-2, 5e-2), 200),
        ("gate6", fl.generate_simple_pattern(1000, 6), fl.FusedLogisticConfig(5e-4, 5e-2), 30),
    )
    for name, inst, penalties, steps in fused:
        prob = inst.as_problem(penalties)
        for variant in (VariantKind.GL, VariantKind.EGAL):
            yield f"{name}-{variant.value}", prob, SolverConfig(variant), steps


def _hex(v):
    return None if v is None else float(v).hex()


def digest(problem, config, steps):
    """One cell's entry: the final state's sha256 and the last StepInfo's floats."""
    for state, info in itertools.islice(iterate(problem, config), steps):
        pass
    sha = hashlib.sha256()
    for name in ("x", "y", "lam", "y_mid", "lam_mid"):
        sha.update(np.ascontiguousarray(getattr(state, name), dtype="<f8").tobytes())
    return {
        "state_sha256": sha.hexdigest(),
        "residual_norm": _hex(info.residual_norm),
        "movement": _hex(info.movement),
        "certificate": _hex(info.certificate),
    }


GEN_SEEDS = (3, 41, 977)
GEN_KINDS = (
    ("bp100x20x5", ["bp", "--n", "100", "--m", "20", "--s", "5"]),
    ("blocks500x100", ["fused", "--pattern", "blocks", "--n", "500", "--m", "100"]),
    ("simple1000x500", ["fused", "--pattern", "simple", "--n", "1000", "--m", "500"]),
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv):
    """``egadm argv`` in this process: its exit status and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def cli_digests(scratch):
    """The gen and solve cells, each directory written under ``scratch``."""
    got = {}
    for (kind, flags), seed in itertools.product(GEN_KINDS, GEN_SEEDS):
        name = f"{kind}-s{seed}"
        inst = scratch / name
        _cli(["gen", *flags, "--seed", str(seed), "--out", str(inst)])
        got[f"gen-{name}"] = {f.name: _sha256(f) for f in sorted(inst.iterdir())}
        for variant in ("gl", "egal"):
            coef = scratch / f"{name}-{variant}.txt"
            status, out = _cli(["solve", str(inst), "--variant", variant, "--monitor-lemma",
                                "--emit-coef", str(coef), "--max-iters", "200"])
            # a solve that fails before it solves prints no row and writes no file
            row = json.loads(out) if out else None
            if row is not None:
                del row["seconds"]
            coef_sha = _sha256(coef) if coef.exists() else None
            got[f"solve-{name}-{variant}"] = {"exit": status, "row": row, "coef_sha256": coef_sha}
    return got


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record this environment's digests")
    args = parser.parse_args(argv)
    env = environment()
    ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
    if not args.write and env not in ledger:
        print(f"no ledger record for {env!r}; record one with: python3 tests/ledger.py --write")
        return EXIT_UNRECORDED
    got = {name: digest(*cell) for name, *cell in _cells()}
    with tempfile.TemporaryDirectory() as scratch:
        got.update(cli_digests(Path(scratch)))
    if args.write:
        ledger[env] = got
        LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(got)} cells for {env!r}")
        return 0
    want = ledger[env]
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in changed:
        print(f"changed: {name}: recorded {want.get(name)}, got {got.get(name)}")
    print(f"{len(want.keys() | got.keys()) - len(changed)} of {len(want)} recorded cells hold their bits")
    return EXIT_CHANGED if changed else 0


if __name__ == "__main__":
    sys.exit(main())
