"""Command-line front end: instance generation, single solves, and
benchmark sweeps with CSV output."""

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import basis_pursuit as bp
from . import fused_logistic as fl
from . import storage
from .solver import DivergenceError, SolverConfig, VariantKind, solve

VARIANT_ORDER = list(VariantKind)

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


@dataclasses.dataclass(frozen=True)
class BenchSpec:
    """One benchmark sweep: problems x instances x solver configs.  Each
    config is one variant's ``SolverConfig``; fused instances take their
    penalty weights from ``penalties``, basis pursuit ignores them."""

    problem: str                  # "bp" | "fused"
    dims: tuple                   # bp: (n, m, s) triples; fused: (m, n) pairs
    instances: int
    seed_base: int
    pattern: str
    configs: tuple                # SolverConfig, one per variant swept
    penalties: fl.FusedLogisticConfig = fl.FusedLogisticConfig()


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _instance(problem, dims, seed, pattern):
    """The seeded instance of ``gen`` and ``bench``: bp dims are (n, m, s)
    and fused dims (m, n), where only the simple pattern may omit m."""
    if problem == "bp":
        return bp.generate(*dims, seed)
    m, n = dims
    if pattern == "simple":
        return fl.generate_simple_pattern(n, seed, m=m)
    if m is None:
        raise SystemExit("gen fused --pattern blocks requires --m")
    return fl.generate_block_pattern(n, m, seed)


def _run_cell(inst, config, penalties):
    """Solve one (instance, config) cell; failures become a row with
    converged=false rather than aborting the sweep.  Everything that
    differs between front ends comes from the instance: the problem id,
    the problem ``inst.as_problem(penalties)`` (basis pursuit ignores the
    penalties), the stop rule ``inst.stop_rule(config.tol)``, the
    coefficients ``x[:n]`` and the row metrics.  ``lemma_violations``
    is filled only where the certificate is recorded: a monitored
    midpoint variant.  Returns the row, the coefficients (None on
    failure), and whether the cell errored."""
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(problem=inst.problem_id, variant=config.variant.value, seed=inst.seed)
    try:
        report = solve(inst.as_problem(penalties), config, stop_rule=inst.stop_rule(config.tol))
    except DivergenceError as exc:
        row.update(iters=exc.iteration, converged=False)
        return row, None, True
    coef = report.state.x[: inst.n]
    monitored = config.monitor_certificate and config.variant.extragradient
    row.update(inst.row_metrics(coef))
    row.update(
        iters=report.iterations,
        seconds=report.wall_time,
        converged=report.converged,
        lemma_violations=report.lemma_violations if monitored else None,
    )
    return row, coef, False


def cmd_gen(args):
    dims = (args.n, args.m, args.s) if args.kind == "bp" else (args.m, args.n)
    inst = _instance(args.kind, dims, args.seed, getattr(args, "pattern", None))
    save = storage.save_bp_instance if args.kind == "bp" else storage.save_fused_instance
    print(save(inst, args.out))
    return 0


def _check_out_dir(path):
    """Refuse an output ``path`` (None: no output) that is a directory or lacks its directory."""
    if path is not None and Path(path).is_dir():
        raise IsADirectoryError(f"the output path {path!r} is a directory")
    if path is not None and not Path(path).parent.is_dir():
        raise FileNotFoundError(f"the directory {str(Path(path).parent)!r} of {path!r} does not exist")


def cmd_solve(args):
    _check_out_dir(args.emit_coef)
    inst = storage.load_instance(args.instance)
    (config,), penalties = _configs(args)
    row, coef, failed = _run_cell(inst, config, penalties)
    if args.emit_coef and coef is not None:
        storage.write_vector(args.emit_coef, coef)
    print(json.dumps(row))
    if failed:
        return 1
    return 0 if row["converged"] else 2


def run_bench(spec):
    """Execute a sweep, each of ``spec.configs`` on every instance, and
    return its rows in (problem, variant, seed) order, followed by
    per-(problem, variant) median summary rows.  Each instance is built,
    solved under every config and dropped before the next is built, so
    one instance is alive at a time."""
    seeds = range(spec.seed_base, spec.seed_base + spec.instances)
    rows = []
    for dims, seed in itertools.product(spec.dims, seeds):
        inst = _instance(spec.problem, dims, seed, spec.pattern)
        rows += [_run_cell(inst, config, spec.penalties)[0] for config in spec.configs]
        del inst
    rows.sort(key=lambda r: (r["problem"], VARIANT_ORDER.index(VariantKind(r["variant"])), r["seed"]))

    summaries = []
    for (problem_id, variant), group in itertools.groupby(rows, lambda r: (r["problem"], r["variant"])):
        group = list(group)
        med = dict.fromkeys(CSV_COLUMNS)
        med.update(problem=problem_id, variant=variant, seed="median")
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
    _check_out_dir(args.out)
    expected = 3 if args.problem == "bp" else 2
    dims = []
    for spec_str in args.dims:
        parts = tuple(int(p) for p in spec_str.split(","))
        if len(parts) != expected:
            raise SystemExit(
                f"--dims for {args.problem} needs {expected} comma-separated integers"
            )
        dims.append(parts)
    configs, penalties = _configs(args)
    spec = BenchSpec(
        problem=args.problem,
        dims=tuple(dims),
        instances=args.instances,
        seed_base=args.seed_base,
        pattern=args.pattern,
        configs=configs,
        penalties=penalties,
    )
    rows, summaries = run_bench(spec)
    write_csv(args.out, rows, summaries)
    print(args.out)
    return 0


def _positive_int(text):
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_solver_flags(p):
    """Flags whose dest is a ``SolverConfig`` or ``FusedLogisticConfig`` field, with its default."""
    cfg, pen = SolverConfig, fl.FusedLogisticConfig
    p.add_argument("--gamma", type=float, default=cfg.gamma, help="explicit step size (default %(default)s: the automatic rule)")
    p.add_argument("--tol", type=float, default=cfg.tol, help="stop tolerance (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=cfg.max_iters, help="iteration cap (default %(default)s)")
    p.add_argument("--alpha", type=float, default=pen.alpha, help="l1 weight, fused problems (default %(default)s)")
    p.add_argument("--beta", type=float, default=pen.beta, help="fusion weight, fused problems (default %(default)s)")
    p.add_argument("--monitor-lemma", dest="monitor_certificate", action="store_true", default=cfg.monitor_certificate,
                   help="record the extragradient certificate and count violations (midpoint variants)")


def _configs(args):
    """The library configs of a parsed ``solve`` or ``bench``: one
    ``SolverConfig`` per requested variant, each once and in
    ``VariantKind`` order, and the ``FusedLogisticConfig`` penalties."""
    names = args.variants.split(",") if args.command == "bench" else [args.variant]
    variants = {VariantKind(name.strip()) for name in names}
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig) if f.name != "variant"}
    configs = tuple(SolverConfig(variant, **settings) for variant in VARIANT_ORDER if variant in variants)
    return configs, fl.FusedLogisticConfig(alpha=args.alpha, beta=args.beta)


@functools.cache
def build_parser():
    """The ``egadm`` parser, built on the first call and then shared: the
    tree of sub-parsers and flags costs about a millisecond to build, and
    ``parse_args`` never changes it, so each call still starts from the
    declared defaults.  Callers must not change it either."""
    parser = argparse.ArgumentParser(
        prog="egadm",
        description="Extragradient-based alternating-direction solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded instance directory")
    gen.set_defaults(func=cmd_gen)
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_bp = gen_sub.add_parser("bp", help="basis pursuit instance")
    gen_bp.add_argument("--n", type=int, required=True)
    gen_bp.add_argument("--m", type=int, required=True)
    gen_bp.add_argument("--s", type=int, required=True)
    gen_bp.add_argument("--seed", type=int, required=True)
    gen_bp.add_argument("--out", required=True)
    gen_fused = gen_sub.add_parser("fused", help="fused logistic instance")
    gen_fused.add_argument("--pattern", choices=("simple", "blocks"), required=True)
    gen_fused.add_argument("--n", type=int, required=True)
    gen_fused.add_argument("--m", type=int, default=None)
    gen_fused.add_argument("--seed", type=int, required=True)
    gen_fused.add_argument("--out", required=True)

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
    ben.add_argument("--instances", type=_positive_int, default=10)
    ben.add_argument("--variants", default="gl,gal,egl,egal")
    ben.add_argument("--seed-base", type=int, default=0)
    ben.add_argument("--pattern", choices=("simple", "blocks"), default="blocks")
    ben.add_argument("--out", required=True)
    _add_solver_flags(ben)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app():
    raise SystemExit(main())


if __name__ == "__main__":
    app()
