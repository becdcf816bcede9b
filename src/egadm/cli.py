"""Command-line front end: instance generation, single solves, and
benchmark sweeps with CSV output."""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import basis_pursuit as bp
from . import fused_logistic as fl
from . import storage
from .solver import DivergenceError, SolverConfig, VariantKind, solve

VARIANT_ORDER = [VariantKind.GL, VariantKind.GAL, VariantKind.EGL, VariantKind.EGAL]

CSV_COLUMNS = [
    "problem",
    "variant",
    "seed",
    "iters",
    "err",
    "l0",
    "tv0",
    "seconds",
    "converged",
    "lemma_violations",
]


@dataclass(frozen=True)
class SolveOverrides:
    gamma: Optional[float] = None
    safety: float = 0.9
    tol: float = 1e-4
    max_iters: int = 20000
    alpha: float = 5e-4
    beta: float = 5e-2
    monitor: bool = False


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark sweep: problems x instances x variants."""

    problem: str                  # "bp" | "fused"
    dims: tuple                   # bp: (n, m, s) triples; fused: (m, n) pairs
    instances: int
    variants: tuple
    seed_base: int
    pattern: str
    overrides: SolveOverrides

    def seeds(self):
        return [self.seed_base + i for i in range(self.instances)]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _bp_problem_id(n, m, s):
    return f"bp_n{n}_m{m}_s{s}"


def _fused_problem_id(pattern, m, n):
    return f"fused_{pattern}_m{m}_n{n}"


def _solve_bp(inst, variant, ov):
    problem = bp.as_problem(inst)
    config = SolverConfig(
        variant=variant,
        gamma=ov.gamma,
        safety=ov.safety,
        tol=ov.tol,
        max_iters=ov.max_iters,
        monitor_certificate=ov.monitor,
    )
    report = solve(problem, config)
    coef = report.state.x
    err = bp.recovery_error(inst, coef)
    return report, coef, {"err": err, "l0": None, "tv0": None}


def _solve_fused(inst, variant, ov):
    cfg = fl.FusedLogisticConfig(alpha=ov.alpha, beta=ov.beta, gamma=ov.gamma)
    report = fl.solve_fused(
        inst,
        cfg,
        variant=variant,
        tol=ov.tol,
        max_iters=ov.max_iters,
        safety=ov.safety,
        monitor_certificate=ov.monitor,
    )
    coef = report.state.x[: inst.n]
    l0, tv0 = fl.sparsity_report(coef)
    return report, coef, {"err": None, "l0": l0, "tv0": tv0}


def _run_cell(kind, inst, problem_id, variant, ov):
    """Solve one (instance, variant) cell; failures become a row with
    converged=false rather than aborting the sweep.  Returns the row, the
    coefficient vector (None on failure), and whether the cell errored."""
    runner = _solve_bp if kind == "basis_pursuit" else _solve_fused
    row = {c: None for c in CSV_COLUMNS}
    row["problem"] = problem_id
    row["variant"] = variant.value
    row["seed"] = inst.seed
    coef = None
    failed = False
    try:
        report, coef, extras = runner(inst, variant, ov)
        row.update(extras)
        row["iters"] = report.iterations
        row["seconds"] = report.wall_time
        row["converged"] = report.converged
        row["lemma_violations"] = report.lemma_violations if ov.monitor else None
    except DivergenceError as exc:
        row["iters"] = exc.iteration
        row["converged"] = False
        failed = True
    return row, coef, failed


def cmd_gen(args):
    out = Path(args.out)
    if args.kind == "bp":
        inst = bp.generate(args.n, args.m, args.s, args.seed)
        storage.save_bp_instance(inst, out)
    else:
        if args.pattern == "simple":
            inst = fl.generate_simple_pattern(args.n, args.seed, m=args.m)
        else:
            if args.m is None:
                raise SystemExit("gen fused --pattern blocks requires --m")
            inst = fl.generate_block_pattern(args.n, args.m, args.seed)
        storage.save_fused_instance(inst, out)
    print(out)
    return 0


def cmd_solve(args):
    variant = VariantKind(args.variant)
    inst = storage.load_instance(args.instance)
    if isinstance(inst, bp.BasisPursuitInstance):
        kind = "basis_pursuit"
        problem_id = _bp_problem_id(inst.n, inst.m, inst.s)
    else:
        kind = "fused_logistic"
        problem_id = _fused_problem_id(inst.pattern, inst.m, inst.n)
    row, coef, failed = _run_cell(kind, inst, problem_id, variant, _overrides(args))
    if args.emit_coef and coef is not None:
        storage.write_vector(args.emit_coef, coef)
    print(json.dumps(row))
    if failed:
        return 1
    return 0 if row["converged"] else 2


def _bench_cells(spec):
    """All (kind, instance, problem_id) cells in deterministic order."""
    cells = []
    for dims in spec.dims:
        if spec.problem == "bp":
            n, m, s = dims
            problem_id = _bp_problem_id(n, m, s)
            for seed in spec.seeds():
                cells.append(
                    ("basis_pursuit", bp.generate(n, m, s, seed), problem_id)
                )
        else:
            m, n = dims
            problem_id = _fused_problem_id(spec.pattern, m, n)
            for seed in spec.seeds():
                if spec.pattern == "simple":
                    inst = fl.generate_simple_pattern(n, seed, m=m)
                else:
                    inst = fl.generate_block_pattern(n, m, seed)
                cells.append(("fused_logistic", inst, problem_id))
    return cells


def run_bench(spec):
    """Execute a sweep and return its rows in (problem, variant, seed)
    order, followed by per-(problem, variant) median summary rows."""
    cells = _bench_cells(spec)
    rows = []
    for variant in VARIANT_ORDER:
        if variant not in spec.variants:
            continue
        for kind, inst, problem_id in cells:
            row, _, _ = _run_cell(kind, inst, problem_id, variant, spec.overrides)
            rows.append(row)
    rows.sort(key=lambda r: (r["problem"], VARIANT_ORDER.index(VariantKind(r["variant"])), r["seed"]))

    summaries = []
    for problem_id in sorted({r["problem"] for r in rows}):
        for variant in VARIANT_ORDER:
            group = [
                r
                for r in rows
                if r["problem"] == problem_id and r["variant"] == variant.value
            ]
            if not group:
                continue
            med = {c: None for c in CSV_COLUMNS}
            med["problem"] = problem_id
            med["variant"] = variant.value
            med["seed"] = "median"
            for col in ("iters", "err", "l0", "tv0", "lemma_violations"):
                vals = [r[col] for r in group if r[col] is not None]
                if vals:
                    med[col] = float(np.median(vals))
            n_conv = sum(1 for r in group if r["converged"] is True)
            med["converged"] = f"{n_conv}/{len(group)}"
            summaries.append(med)
    return rows, summaries


def write_csv(path, rows, summaries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows + summaries:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def cmd_bench(args):
    expected = 3 if args.problem == "bp" else 2
    dims = []
    for spec_str in args.dims:
        parts = tuple(int(p) for p in spec_str.split(","))
        if len(parts) != expected:
            raise SystemExit(
                f"--dims for {args.problem} needs {expected} comma-separated integers"
            )
        dims.append(parts)
    variants = tuple(VariantKind(v.strip()) for v in args.variants.split(","))
    spec = BenchSpec(
        problem=args.problem,
        dims=tuple(dims),
        instances=args.instances,
        variants=variants,
        seed_base=args.seed_base,
        pattern=args.pattern,
        overrides=_overrides(args),
    )
    rows, summaries = run_bench(spec)
    write_csv(args.out, rows, summaries)
    print(args.out)
    return 0


def _add_solver_flags(p):
    p.add_argument("--gamma", type=float, default=None, help="explicit step size (bypasses the automatic rule)")
    p.add_argument("--safety", type=float, default=0.9, help="automatic step size scale in (0, 1]")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--alpha", type=float, default=5e-4, help="l1 weight (fused problems)")
    p.add_argument("--beta", type=float, default=5e-2, help="fusion weight (fused problems)")
    p.add_argument("--monitor-lemma", action="store_true", help="record the extragradient certificate and count violations")


def _overrides(args):
    """The ``_add_solver_flags`` values of a parsed ``solve`` or ``bench``."""
    return SolveOverrides(
        gamma=args.gamma,
        safety=args.safety,
        tol=args.tol,
        max_iters=args.max_iters,
        alpha=args.alpha,
        beta=args.beta,
        monitor=args.monitor_lemma,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="egadm",
        description="Extragradient-based alternating-direction solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded instance directory")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_bp = gen_sub.add_parser("bp", help="basis pursuit instance")
    gen_bp.add_argument("--n", type=int, required=True)
    gen_bp.add_argument("--m", type=int, required=True)
    gen_bp.add_argument("--s", type=int, required=True)
    gen_bp.add_argument("--seed", type=int, required=True)
    gen_bp.add_argument("--out", required=True)
    gen_bp.set_defaults(func=cmd_gen)
    gen_fused = gen_sub.add_parser("fused", help="fused logistic instance")
    gen_fused.add_argument("--pattern", choices=("simple", "blocks"), required=True)
    gen_fused.add_argument("--n", type=int, required=True)
    gen_fused.add_argument("--m", type=int, default=None)
    gen_fused.add_argument("--seed", type=int, required=True)
    gen_fused.add_argument("--out", required=True)
    gen_fused.set_defaults(func=cmd_gen)

    sol = sub.add_parser("solve", help="solve one instance directory, print a JSON row")
    sol.add_argument("instance", help="instance directory")
    sol.add_argument("--variant", choices=[v.value for v in VARIANT_ORDER], default="egal")
    sol.add_argument("--emit-coef", default=None, help="write the coefficient vector, one value per line")
    _add_solver_flags(sol)
    sol.set_defaults(func=cmd_solve)

    ben = sub.add_parser("bench", help="sweep instances x variants, write a CSV")
    ben.add_argument("--problem", choices=("bp", "fused"), required=True)
    ben.add_argument("--dims", action="append", required=True,
                     help="bp: n,m,s   fused: m,n   (repeatable)")
    ben.add_argument("--instances", type=int, default=10)
    ben.add_argument("--variants", default="gl,gal,egl,egal")
    ben.add_argument("--seed-base", type=int, default=0)
    ben.add_argument("--pattern", choices=("simple", "blocks"), default="blocks")
    ben.add_argument("--out", required=True)
    _add_solver_flags(ben)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app():
    raise SystemExit(main())
