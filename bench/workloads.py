"""The benchmark's workloads, their correctness checks, and the direct
set-up probes of the traced run.

A workload is prepared once from the run seed (input generation, outside
the timed region) and then run as whole *passes*; every pass solves the
same cells, so iteration counts repeat exactly from pass to pass.  A cell
is one front-end call and one attempted operation.
"""

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from egadm import basis_pursuit as bp
from egadm import cli
from egadm import fused_logistic as fl
from egadm import storage
from egadm.linalg import SpectralNormError, spectral_norm_sq
from egadm.operators import AffineProjector
from egadm.problem import kkt_lipschitz_bound
from egadm.solver import SolverConfig, VariantKind, resolve_gamma, solve

from tracing import traced_problem

TOL = 1e-4
MAX_ITERS = 20000
BP_RECOVERY_LIMIT = 1e-3
# Smallest planted value of a basis-pursuit instance the workload accepts.
# generate() draws the planted values uniform in (0, 1); with one of them
# near 1e-3, i.e. comparable to TOL, every variant converges so slowly that
# it passes MAX_ITERS (seed 448462757: value 5.5e-4, EGAL needs 21521
# iterations).  Such draws, about 1 in 400, are skipped.
BP_MIN_PLANTED = 1e-2


@dataclass
class Cell:
    """Outcome of one front-end call."""

    label: str
    variant: str
    iterations: int = 0
    loop_s: float = 0.0       # the solver's own loop seconds
    call_s: float = 0.0       # the whole front-end call
    capped: bool = False
    failures: list = field(default_factory=list)
    solve_span: int = -1      # traced runs: index of the solver.solve span
    ref_us: float = 0.0       # untraced runs: mean Reference.us() around the cell
    slowdown: float = 1.0     # untraced runs: Reference.us() before the cell / nominal

    @property
    def setup_s(self):
        return self.call_s - self.loop_s

    @property
    def setup_nominal_s(self):
        """Set-up seconds at the reference kernel's nominal speed."""
        return self.setup_s / self.slowdown


def instance_seeds(seed, k):
    """``k`` instance seeds drawn deterministically from the run seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=k)]


@dataclass(frozen=True)
class _RefState:
    y: np.ndarray
    k: int


class Reference:
    """A fixed kernel shaped like one solver iteration: two products with a
    dense matrix of the workload's coupling shape, a shrink, a small
    triangular solve, finiteness checks, norms and a frozen state object.

    Timed just before and just after each untraced solve, it measures how
    fast this machine runs that kind of code at that moment.  On a shared
    2-vCPU virtual machine, interpreter-heavy code (basis pursuit) ran up
    to 2x slower for tens of seconds at a time while dense products barely
    slowed down; a kernel of the same shape slows down with the solve it
    brackets.  ``nominal_us`` is the kernel's time on that machine when
    undisturbed; it fixes the unit in which set-up time is reported.
    """

    def __init__(self, shape, reps, nominal_us):
        rng = np.random.default_rng(0)
        self.nominal_us = nominal_us
        self.mat = rng.standard_normal(shape) / np.sqrt(shape[0])
        self.lower = np.tril(rng.standard_normal((20, 20))) + 5.0 * np.eye(20)
        self.reps = reps
        self.us()  # the first call pays for first-touch page faults

    def us(self):
        """Microseconds per repetition of the kernel."""
        mat, lower = self.mat, self.lower
        state, r = _RefState(np.ones(mat.shape[1]), 0), np.ones(20)
        t0 = time.perf_counter()
        for _ in range(self.reps):
            v = mat @ state.y
            y = state.y - 1e-3 * (mat.T @ v)
            y = np.sign(y) * np.maximum(np.abs(y) - 1e-6, 0.0)
            r = solve_triangular(lower, r, lower=True)
            r /= float(np.linalg.norm(r))
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(r))):
                raise FloatingPointError("reference kernel diverged")
            state = _RefState(y / float(np.linalg.norm(y)), state.k + 1)
        return 1e6 * (time.perf_counter() - t0) / self.reps


def _run_cell(cell, fn, tracer, reference=None):
    """Run ``fn(cell)``; an error becomes a recorded failure, because the
    benchmark must finish and report every cell.  Spans of one cell share
    a solve id; untraced solves are bracketed by the reference kernel."""
    if tracer is not None:
        tracer.solve_id += 1
    before = reference.us() if reference is not None and tracer is None else None
    try:
        fn(cell)
    except Exception as exc:  # noqa: BLE001 - boundary: report, keep running
        cell.failures.append(f"raised {type(exc).__name__}: {exc}")
    if before is not None:
        cell.ref_us = 0.5 * (before + reference.us())
        cell.slowdown = before / reference.nominal_us
    return cell


def _traced_solve(tracer, problem, config, stop_rule=None):
    idx = tracer.begin("solver.solve")
    try:
        return solve(problem, config, stop_rule=stop_rule), idx
    finally:
        tracer.end(idx)


def _spectral_probe(tracer, name, mat):
    """Time ``spectral_norm_sq`` on one matrix; returns 1 if it raised."""
    idx = tracer.begin(name)
    try:
        spectral_norm_sq(mat)
        return 0
    except SpectralNormError:
        return 1
    finally:
        tracer.end(idx)


# ---------------------------------------------------------------- checks


def planted_not_minimizer(inst, x):
    """Whether ``x`` proves that the planted vector is not the l1 minimizer.

    The planted vector is feasible.  ``x`` plus the least-norm correction
    ``pinv(A) (b - A x)`` is feasible too, and its l1 norm is at most
    ``||x||_1 + sqrt(n) ||b - A x|| / sigma_min(A)``.  When that bound is
    below the planted vector's l1 norm, no solver could recover it.
    """
    smin = np.linalg.svd(inst.A, compute_uv=False)[-1]
    resid = float(np.linalg.norm(inst.A @ x - inst.b))
    bound = float(np.sum(np.abs(x))) + np.sqrt(inst.n) * resid / smin
    return bound < float(np.sum(np.abs(inst.xhat)))


def check_bp(inst, variant, converged, x):
    """Failure reasons for one basis-pursuit cell (empty when correct).

    A converged cell far from the planted vector fails unless its output
    proves the planted vector is not the instance's l1 minimizer (random
    draws at m=20, s=2 occasionally have a sparser-in-l1 solution).
    """
    failures = []
    if not np.all(np.isfinite(x)):
        return ["non-finite coefficients"]
    if variant != VariantKind.GL.value and not converged:
        failures.append(f"{variant} hit the {MAX_ITERS}-iteration cap")
    if converged:
        err = bp.recovery_error(inst, x)
        if err > BP_RECOVERY_LIMIT and not planted_not_minimizer(inst, x):
            failures.append(f"recovery error {err:.3g} > {BP_RECOVERY_LIMIT:g}")
    return failures


def fused_constraint_residual(x, y_mid, n):
    """``max |A x + B y_mid - b|`` for the fused split, computed directly
    from ``x = (x1, w)`` and ``y_mid = (y, c)``: ``x1 = y``, ``w = L y``."""
    y = y_mid[:n]
    return max(
        float(np.max(np.abs(x[:n] - y))),
        float(np.max(np.abs(x[n:] - (y[:-1] - y[1:])))),
    )


def check_fused(inst, converged, x, y_mid):
    """Failure reasons for one fused-logistic solve."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y_mid))):
        return ["non-finite iterate"]
    if not converged:
        return [f"did not converge within {MAX_ITERS} iterations"]
    resid = fused_constraint_residual(x, y_mid, inst.n)
    if not resid < TOL:
        return [f"reported converged but constraint residual {resid:.3g} >= {TOL:g}"]
    return []


def check_cli_solve(rc, row, coef, n):
    """Failure reasons for one ``egadm solve`` call."""
    failures = []
    if rc != 0:
        failures.append(f"egadm solve exited {rc}")
    if row is None:
        return failures + ["no JSON row printed"]
    if row.get("converged") is not True:
        failures.append("did not converge")
    if row.get("lemma_violations") != 0:
        failures.append(f"certificate violations: {row.get('lemma_violations')}")
    if coef is None or coef.shape != (n,) or not np.all(np.isfinite(coef)):
        return failures + ["emitted coefficients missing, misshapen or non-finite"]
    if list(fl.sparsity_report(coef)) != [row.get("l0"), row.get("tv0")]:
        failures.append("emitted coefficients disagree with the row's l0/tv0")
    return failures


# ------------------------------------------------------------- workloads


class BpVariants:
    """Basis pursuit, n=100, m=20, s=2, planted values at least
    ``BP_MIN_PLANTED``: every variant on every instance."""

    name = "bp_variants"
    instances = 4

    def prepare(self, seed, workdir):
        """The first ``instances`` draws whose planted values are all at
        least ``BP_MIN_PLANTED``, from a seed stream fixed by ``seed``."""
        self.reference = Reference((100, 100), 250, nominal_us=36.0)
        self.insts, self.generate_s = [], []
        rng = np.random.default_rng(seed)
        while len(self.insts) < self.instances:
            s = int(rng.integers(0, 2**31 - 1))
            t0 = time.perf_counter()
            inst = bp.generate(100, 20, 2, s)
            self.generate_s.append(time.perf_counter() - t0)
            if np.min(inst.xhat[inst.xhat != 0.0]) >= BP_MIN_PLANTED:
                self.insts.append(inst)

    def run_pass(self, tracer=None):
        cells = []
        for inst in self.insts:
            for variant in VariantKind:
                cell = Cell(label=f"bp seed={inst.seed}", variant=variant.value)
                cells.append(_run_cell(
                    cell, lambda c: self._solve(c, inst, variant, tracer), tracer, self.reference
                ))
        return cells

    def _solve(self, cell, inst, variant, tracer):
        config = SolverConfig(variant=variant, tol=TOL, max_iters=MAX_ITERS)
        t0 = time.perf_counter()
        if tracer is None:
            report = solve(bp.as_problem(inst), config)
        else:
            problem = tracer.call("basis_pursuit.as_problem", bp.as_problem, inst)
            problem = traced_problem(problem, tracer, "basis_pursuit")
            report, cell.solve_span = _traced_solve(tracer, problem, config)
        cell.call_s = time.perf_counter() - t0
        cell.iterations, cell.loop_s = report.iterations, report.wall_time
        cell.capped = not report.converged
        cell.failures += check_bp(inst, variant.value, report.converged, report.state.x)

    def probe_setup(self, tracer):
        """Direct calls into the set-up functions, one instance, traced."""
        inst = self.insts[0]
        problem = bp.as_problem(inst)
        tracer.call("operators.affine_setup", AffineProjector, inst.A, inst.b)
        tracer.call("problem.kkt_lipschitz_bound", kkt_lipschitz_bound, problem)
        config = SolverConfig(variant=VariantKind.EGAL)
        tracer.call("solver.resolve_gamma", resolve_gamma, problem, config)
        return {
            "coupling": _spectral_probe(tracer, "linalg.spectral_norm_sq.coupling", problem.coupling.B),
            # generate() normalizes the raw Gaussian A; the normalized A
            # has the same shape and spectrum shape.
            "data": _spectral_probe(tracer, "linalg.spectral_norm_sq.data", inst.A),
        }


FUSED_SIMPLE_CFG = fl.FusedLogisticConfig(alpha=5e-4, beta=5e-2)
CLI_ALPHA = "2e-2"


def _fused_stop(info):
    # The stop rule solve_fused installs: max-abs midpoint residual < tol.
    return float(np.max(np.abs(info.residual))) < TOL


def _replay_fused(tracer, inst, cfg, monitor):
    """``solve_fused`` rebuilt from its public pieces, with the problem's
    callees traced.  Iterates equal ``solve_fused``'s exactly; the
    benchmark checks that the iteration counts agree."""
    problem = tracer.call("fused_logistic.as_problem", fl.as_problem, inst, cfg)
    signed = fl.LogisticAux.from_data(inst.A, inst.labels).signed
    problem = traced_problem(problem, tracer, "fused_logistic", signed)
    config = SolverConfig(
        variant=VariantKind.EGAL,
        gamma=cfg.gamma,
        tol=TOL,
        max_iters=MAX_ITERS,
        monitor_certificate=monitor,
    )
    return _traced_solve(tracer, problem, config, stop_rule=_fused_stop)


def _probe_fused_setup(tracer, inst, cfg):
    problem = fl.as_problem(inst, cfg)
    aux = fl.LogisticAux.from_data(inst.A, inst.labels)
    tracer.call("fused_logistic.logistic_lipschitz", fl.logistic_lipschitz, aux)
    tracer.call("problem.kkt_lipschitz_bound", kkt_lipschitz_bound, problem)
    config = SolverConfig(variant=VariantKind.EGAL)
    tracer.call("solver.resolve_gamma", resolve_gamma, problem, config)
    augmented = np.hstack([aux.signed, aux.labels[:, None]])
    return {
        "coupling": _spectral_probe(tracer, "linalg.spectral_norm_sq.coupling", problem.coupling.B),
        "data": _spectral_probe(tracer, "linalg.spectral_norm_sq.data", augmented),
    }


class FusedSimple:
    """Fused logistic, simple pattern, n=1000, m=500, EGAL via solve_fused."""

    name = "fused_simple"

    def prepare(self, seed, workdir):
        self.reference = Reference((1999, 1001), 64, nominal_us=1400.0)
        (s,) = instance_seeds(seed, 1)
        self.inst = fl.generate_simple_pattern(1000, s, m=500)

    def run_pass(self, tracer=None):
        cell = Cell(label=f"fused simple seed={self.inst.seed}", variant="egal")
        return [_run_cell(cell, lambda c: self._solve(c, tracer), tracer, self.reference)]

    def _solve(self, cell, tracer):
        t0 = time.perf_counter()
        if tracer is None:
            report = fl.solve_fused(self.inst, FUSED_SIMPLE_CFG, variant=VariantKind.EGAL, tol=TOL)
        else:
            report, cell.solve_span = _replay_fused(tracer, self.inst, FUSED_SIMPLE_CFG, False)
        cell.call_s = time.perf_counter() - t0
        cell.iterations, cell.loop_s = report.iterations, report.wall_time
        cell.capped = not report.converged
        cell.failures += check_fused(self.inst, report.converged, report.state.x, report.state.y_mid)

    def probe_setup(self, tracer):
        return _probe_fused_setup(tracer, self.inst, FUSED_SIMPLE_CFG)


def _cli(argv):
    """``egadm.cli.main`` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CliBlocks:
    """``egadm gen fused --pattern blocks`` then ``egadm solve --monitor-lemma``."""

    name = "cli_blocks"
    instances = 3

    def prepare(self, seed, workdir):
        self.reference = Reference((999, 501), 50, nominal_us=390.0)
        self.seeds = instance_seeds(seed, self.instances)
        self.workdir = Path(workdir)

    def _dir(self, s):
        return self.workdir / f"blocks-{s}"

    def run_pass(self, tracer=None):
        cells = []
        for s in self.seeds:
            gen = Cell(label=f"cli gen seed={s}", variant="gen")
            cells.append(_run_cell(gen, lambda c: self._gen(c, s, tracer), tracer))
            sol = Cell(label=f"cli solve seed={s}", variant="egal")
            run = self._solve if tracer is None else self._replay
            cells.append(_run_cell(sol, lambda c: run(c, s, tracer), tracer, self.reference))
        return cells

    def _gen(self, cell, s, tracer):
        argv = ["gen", "fused", "--pattern", "blocks", "--n", "500", "--m", "100",
                "--seed", str(s), "--out", str(self._dir(s))]
        t0 = time.perf_counter()
        rc, _ = _cli(argv) if tracer is None else tracer.call("cli.gen", _cli, argv)
        cell.call_s = time.perf_counter() - t0
        if rc != 0:
            cell.failures.append(f"egadm gen exited {rc}")

    def _solve(self, cell, s, tracer):
        coef_path = self.workdir / f"coef-{s}.txt"
        coef_path.unlink(missing_ok=True)
        argv = ["solve", str(self._dir(s)), "--variant", "egal", "--alpha", CLI_ALPHA,
                "--monitor-lemma", "--emit-coef", str(coef_path)]
        t0 = time.perf_counter()
        rc, out = _cli(argv)
        cell.call_s = time.perf_counter() - t0
        lines = out.strip().splitlines()
        row = json.loads(lines[-1]) if lines else None
        coef = np.loadtxt(coef_path, ndmin=1) if coef_path.is_file() else None
        if row is not None:
            cell.iterations, cell.loop_s = int(row["iters"]), float(row["seconds"] or 0.0)
            cell.capped = row.get("converged") is not True
        cell.failures += check_cli_solve(rc, row, coef, 500)

    def _replay(self, cell, s, tracer):
        """Traced counterpart of ``egadm solve``: load, then the solve the
        CLI runs, rebuilt from public functions with its callees traced."""
        t0 = time.perf_counter()
        inst = tracer.call("storage.load", storage.load_instance, self._dir(s))
        cfg = fl.FusedLogisticConfig(alpha=float(CLI_ALPHA))
        report, cell.solve_span = _replay_fused(tracer, inst, cfg, True)
        cell.call_s = time.perf_counter() - t0
        cell.iterations, cell.loop_s = report.iterations, report.wall_time
        cell.capped = not report.converged
        cell.failures += check_fused(inst, report.converged, report.state.x, report.state.y_mid)
        if report.lemma_violations:
            cell.failures.append(f"certificate violations: {report.lemma_violations}")

    def probe_setup(self, tracer):
        d = self._dir(self.seeds[0])
        self.bytes_written = sum(p.stat().st_size for p in d.iterdir() if p.is_file())
        inst = storage.load_instance(d)
        copy = self.workdir / "save-probe"
        tracer.call("storage.save", storage.save_fused_instance, inst, copy)
        shutil.rmtree(copy)
        return _probe_fused_setup(tracer, inst, fl.FusedLogisticConfig(alpha=float(CLI_ALPHA)))


WORKLOADS = {w.name: w for w in (BpVariants, FusedSimple, CliBlocks)}
