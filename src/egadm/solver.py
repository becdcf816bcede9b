"""Variant-parametric iteration engine.

Four variants share one loop.  Every iteration first solves the
structured x-subproblem at the current (y, lam), then advances the
(y, lam) pair with projected gradient steps on the Lagrangian (plain or
augmented).  The plain-gradient variants take a single step; the
extragradient variants first move to a midpoint and take the final step
using gradients evaluated there:

    GL / GAL    y+ = proj(y - gamma * grad_y)           (plain / augmented)
                lam+ = lam - gamma * (A x+ + B y+ - b)

    EGL / EGAL  y_mid = proj(y - gamma * grad_y)        (plain / augmented)
                lam_mid = lam - gamma * (A x+ + B y  - b)
                y+ = proj(y - gamma * grad_y@(y_mid, lam_mid))
                lam+ = lam - gamma * (A x+ + B y_mid - b)

Running ergodic sums accumulate (x+, y_mid, lam_mid) for the
extragradient variants; the averaged triple is the object the O(1/N)
complexity bound speaks about.  For GL/GAL the sums accumulate
(x+, y+, lam+) instead and are diagnostic only.
"""

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import spectral_norm_sq
from .operators import MetricH
from .problem import kkt_lipschitz_bound, lagrangian

#: Residual magnitude past which an iterate counts as diverged.
DIVERGENCE_LIMIT = 1e12

#: Slack applied before a positive certificate value counts as a violation.
CERTIFICATE_SLACK = 1e-10


class VariantKind(enum.Enum):
    """The four gradient/extragradient x plain/augmented combinations."""

    GL = "gl"
    GAL = "gal"
    EGL = "egl"
    EGAL = "egal"

    @property
    def extragradient(self):
        return self in (VariantKind.EGL, VariantKind.EGAL)

    @property
    def augmented(self):
        return self in (VariantKind.GAL, VariantKind.EGAL)


class DivergenceError(RuntimeError):
    """An iterate went non-finite or the residual exceeded the limit."""

    def __init__(self, variant, iteration):
        super().__init__(
            f"{variant.value} diverged at iteration {iteration}: "
            f"non-finite iterate or residual above {DIVERGENCE_LIMIT:g}"
        )
        self.variant = variant
        self.iteration = iteration


_ZERO_METRIC = MetricH.zero()


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``gamma=None`` selects the step size automatically as
    ``safety / (2 * Lhat)`` where Lhat is the problem's KKT-map Lipschitz
    bound; an explicit gamma is taken as-is.  ``monitor_certificate``
    records the extragradient contraction certificate each iteration
    (midpoint variants only) and counts violations.
    """

    variant: VariantKind
    gamma: Optional[float] = None
    safety: float = 0.9
    metric: MetricH = _ZERO_METRIC
    max_iters: int = 20000
    tol: float = 1e-4
    monitor_certificate: bool = False
    record_history: bool = False

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")
        if self.max_iters < 0 or self.tol < 0:
            raise ValueError("max_iters and tol must be nonnegative")


@dataclass(frozen=True)
class IterateState:
    """Current iterates plus midpoints and running ergodic sums."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    y_mid: np.ndarray
    lam_mid: np.ndarray
    k: int
    sum_x: np.ndarray
    sum_y: np.ndarray
    sum_lam: np.ndarray


@dataclass(frozen=True)
class StepInfo:
    """Per-iteration diagnostics used by stop rules and monitors."""

    residual: np.ndarray
    residual_norm: float      # 2-norm of ``residual``
    movement: float
    certificate: Optional[float] = None


@dataclass
class SolveReport:
    """Outcome of a solve: counts, histories, and final/averaged iterates."""

    iterations: int
    converged: bool
    residual_history: list
    certificate_history: list
    lemma_violations: int
    wall_time: float
    state: IterateState
    ergodic: Optional[tuple]


def resolve_gamma(problem, config):
    """Step size actually used: explicit gamma, or safety / (2 * Lhat)."""
    if config.gamma is not None:
        return float(config.gamma)
    lhat = kkt_lipschitz_bound(problem)
    if lhat <= 0:
        raise ValueError("cannot auto-select a step size: the KKT map bound is zero")
    return config.safety / (2.0 * lhat)


def initial_state(problem):
    """Canonical deterministic start: x = 0, y = proj_Y(0), lam = 0."""
    x = np.zeros(problem.prox_block.dim)
    y = problem.smooth_block.project(np.zeros(problem.smooth_block.dim))
    lam = np.zeros(problem.coupling.b.shape[0])
    return IterateState(
        x=x,
        y=y,
        lam=lam,
        y_mid=y.copy(),
        lam_mid=lam.copy(),
        k=0,
        sum_x=np.zeros_like(x),
        sum_y=np.zeros_like(y),
        sum_lam=np.zeros_like(lam),
    )


def _grad_dual(problem, gamma, resid, y, lam, augmented):
    """grad_y of the (augmented) Lagrangian at fixed x; ``resid`` is the
    already-computed primal residual at (x, y)."""
    if augmented:
        lam = lam - gamma * resid
    return problem.smooth_block.gradient(y) - problem.coupling.apply_bt(lam)


def _advance(problem, config, state, gamma):
    variant = config.variant
    c = problem.coupling
    sm = problem.smooth_block
    x, y, lam = state.x, state.y, state.lam

    offset = c.apply_b(y) - c.b
    x_next = problem.prox_block.solve_subproblem(x, offset, lam, gamma, config.metric)
    ax_next = c.apply_a(x_next)
    resid_k = ax_next + offset

    if variant.extragradient:
        g = _grad_dual(problem, gamma, resid_k, y, lam, variant.augmented)
        y_mid = sm.project(y - gamma * g)
        lam_mid = lam - gamma * resid_k
        resid_mid = ax_next + c.apply_b(y_mid) - c.b
        g_mid = _grad_dual(problem, gamma, resid_mid, y_mid, lam_mid, variant.augmented)
        y_next = sm.project(y - gamma * g_mid)
        lam_next = lam - gamma * resid_mid
        acc = (x_next, y_mid, lam_mid)
        stop_resid = resid_mid
    else:
        g = _grad_dual(problem, gamma, resid_k, y, lam, variant.augmented)
        y_next = sm.project(y - gamma * g)
        resid_next = ax_next + c.apply_b(y_next) - c.b
        lam_next = lam - gamma * resid_next
        # No midpoints for the plain-gradient variants; the fields track
        # the accumulated pair so downstream code has one shape to handle.
        y_mid, lam_mid = y_next, lam_next
        acc = (x_next, y_next, lam_next)
        stop_resid = resid_next

    k_next = state.k + 1
    resid_norm = float(np.linalg.norm(stop_resid))
    movement = float(
        np.sqrt(
            np.linalg.norm(y_next - y) ** 2 + np.linalg.norm(lam_next - lam) ** 2
        )
    )
    # A NaN or inf in the residual, y+, lam+ or x+ reaches one of these
    # scalars, and NaN fails every comparison.
    if not (
        resid_norm <= DIVERGENCE_LIMIT
        and math.isfinite(movement + float(np.sum(x_next)))
    ):
        raise DivergenceError(variant, k_next)

    certificate = None
    if config.monitor_certificate and variant.extragradient:
        certificate = extragradient_certificate(
            problem, gamma, x_next, (y, lam), (y_mid, lam_mid), (y_next, lam_next)
        )

    new_state = IterateState(
        x=x_next,
        y=y_next,
        lam=lam_next,
        y_mid=y_mid,
        lam_mid=lam_mid,
        k=k_next,
        sum_x=state.sum_x + acc[0],
        sum_y=state.sum_y + acc[1],
        sum_lam=state.sum_lam + acc[2],
    )
    return new_state, StepInfo(
        residual=stop_resid,
        residual_norm=resid_norm,
        movement=movement,
        certificate=certificate,
    )


def step(problem, config, state, gamma=None):
    """One full iteration of the configured variant.

    ``gamma``, when given, overrides the config (callers looping over
    ``step`` should resolve the automatic step size once instead of per
    call).  Raises DivergenceError on non-finite iterates.
    """
    if gamma is None:
        gamma = resolve_gamma(problem, config)
    new_state, _ = _advance(problem, config, state, gamma)
    return new_state


def extragradient_certificate(problem, gamma, x_next, z_prev, z_mid, z_next):
    """Left-hand side of the extragradient contraction inequality.

    Evaluates ``gamma * <F(x+, z_mid), z_mid - z_next> - (1/2)||z_prev -
    z_next||^2`` where F stacks the smooth block's dual gradient and the
    primal residual.  Whenever ``gamma <= 1 / (2 * Lhat)`` this value is
    nonpositive up to round-off; positive values beyond a small slack
    indicate the step size violates the admissible range.
    """
    c = problem.coupling
    y_prev, lam_prev = z_prev
    y_mid, lam_mid = z_mid
    y_next, lam_next = z_next
    f_top = problem.smooth_block.gradient(y_mid) - c.apply_bt(lam_mid)
    f_bottom = c.apply_a(x_next) + c.apply_b(y_mid) - c.b
    inner = float(f_top @ (y_mid - y_next)) + float(f_bottom @ (lam_mid - lam_next))
    dist_sq = (
        float(np.linalg.norm(y_prev - y_next) ** 2)
        + float(np.linalg.norm(lam_prev - lam_next) ** 2)
    )
    return gamma * inner - 0.5 * dist_sq


def ergodic_averages(state):
    """Running means of the accumulated iterates, ``sums / k``."""
    if state.k == 0:
        raise ValueError("no iterations taken yet")
    return state.sum_x / state.k, state.sum_y / state.k, state.sum_lam / state.k


def gap_surrogate(problem, avg_x, avg_y, avg_lam, reference):
    """Duality-gap surrogate against a fixed reference saddle point.

    Returns ``L(avg_x, avg_y; lam*) - L(x*, y*; avg_lam)`` for the
    reference triple ``(x*, y*, lam*)``.  When the reference is optimal
    this is nonnegative and decays like O(1/N) along ergodic averages.
    The exact gap quantity maximizes over the (unknown) optimal sets, so
    a single high-accuracy reference point is used in its place.
    """
    ref_x, ref_y, ref_lam = reference
    return lagrangian(problem, avg_x, avg_y, ref_lam) - lagrangian(
        problem, ref_x, ref_y, avg_lam
    )


def _validate_metric(problem, config, gamma):
    metric = config.metric
    if metric.kind != "scaled_identity_minus_gram":
        return
    lmax = spectral_norm_sq(problem.coupling.A)
    if metric.tau <= gamma * lmax:
        raise ValueError(
            f"metric tau {metric.tau:g} must exceed gamma * lmax(A^T A) "
            f"= {gamma * lmax:g}"
        )


def solve(problem, config, init=None, stop_rule=None):
    """Iterate the configured variant until the stop rule fires or the cap.

    The default stop rule requires both the primal residual and the
    (y, lam) movement to drop below ``config.tol`` in the 2-norm; the
    residual is taken at the midpoint for extragradient variants and at
    the new iterate otherwise.  ``stop_rule``, when given, replaces the
    default; it receives each iteration's StepInfo.  The rule is checked
    every iteration, including the one that would hit the cap.
    """
    gamma = resolve_gamma(problem, config)
    _validate_metric(problem, config, gamma)
    state = initial_state(problem) if init is None else init
    residual_history = []
    certificate_history = []
    violations = 0
    converged = False
    start = time.perf_counter()
    for _ in range(config.max_iters):
        state, info = _advance(problem, config, state, gamma)
        if config.record_history:
            residual_history.append(info.residual_norm)
        if info.certificate is not None:
            certificate_history.append(info.certificate)
            if info.certificate > CERTIFICATE_SLACK:
                violations += 1
        if stop_rule is not None:
            stopped = bool(stop_rule(info))
        else:
            stopped = info.residual_norm < config.tol and info.movement < config.tol
        if stopped:
            converged = True
            break
    wall = time.perf_counter() - start
    ergodic = ergodic_averages(state) if state.k > 0 else None
    return SolveReport(
        iterations=state.k,
        converged=converged,
        residual_history=residual_history,
        certificate_history=certificate_history,
        lemma_violations=violations,
        wall_time=wall,
        state=state,
        ergodic=ergodic,
    )


def ergodic_checkpoints(problem, config, checkpoints, init=None):
    """Run without stopping and snapshot ergodic averages at given counts.

    Returns a list of (x, y, lam) average triples, one per checkpoint,
    in increasing checkpoint order.
    """
    marks = sorted(set(int(k) for k in checkpoints))
    if not marks or marks[0] < 1:
        raise ValueError("checkpoints must be positive iteration counts")
    gamma = resolve_gamma(problem, config)
    state = initial_state(problem) if init is None else init
    out = []
    wanted = set(marks)
    for _ in range(marks[-1]):
        state, _ = _advance(problem, config, state, gamma)
        if state.k in wanted:
            out.append(ergodic_averages(state))
    return out
