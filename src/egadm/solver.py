"""Variant-parametric iteration engine.

Four variants share one loop body, run by the generator ``iterate``
that ``solve`` and ``ergodic_checkpoints`` consume; one iteration from a
state is ``next(iterate(problem, config, state))[0]``.  Every iteration
first solves the structured x-subproblem at the current (y, lam), then
advances the (y, lam) pair with projected gradient steps on the
Lagrangian (plain or augmented).  The plain-gradient variants
take a single step; the extragradient variants first move to a midpoint
and take the final step using gradients evaluated there:

    GL / GAL    y+ = proj(y - gamma * grad_y)           (plain / augmented)
                lam+ = lam - gamma * (A x+ + B y+ - b)

    EGL / EGAL  y_mid = proj(y - gamma * grad_y)        (plain / augmented)
                lam_mid = lam - gamma * (A x+ + B y  - b)
                y+ = proj(y - gamma * grad_y@(y_mid, lam_mid))
                lam+ = lam - gamma * (A x+ + B y_mid - b)

The O(1/N) complexity bound speaks about the ergodic average of
(x+, y_mid, lam_mid), (x+, y+, lam+) for GL/GAL; only
``ergodic_checkpoints`` forms it, from the states ``iterate`` yields.
"""

import enum
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import kkt_lipschitz_bound, lagrangian

#: Residual magnitude past which an iterate counts as diverged.
DIVERGENCE_LIMIT = 1e12

#: Fraction of the stability limit ``1 / (2 * Lhat)`` the automatic step size takes.
STEP_SAFETY = 0.9

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


def _count(value, what):
    """``value`` as an int; a non-integer such as 2.5, NaN or a bool is a ValueError."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index takes True as 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``gamma=None`` selects the step size automatically as
    ``STEP_SAFETY / (2 * Lhat)`` where Lhat is the problem's KKT-map Lipschitz
    bound; an explicit gamma is taken as-is.  ``monitor_certificate``
    records the extragradient contraction certificate each iteration
    (midpoint variants only) and counts violations.
    """

    variant: VariantKind
    gamma: Optional[float] = None
    max_iters: int = 20000
    tol: float = 1e-4
    monitor_certificate: bool = False

    def __post_init__(self):
        if not isinstance(self.variant, VariantKind):
            kinds = ", ".join(str(v) for v in VariantKind)
            raise ValueError(f"variant must be one of {kinds}, got {self.variant!r}")
        for name in ("gamma", "tol"):  # True would pass as 1.0
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        # each test is written so that NaN fails it
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not (_count(self.max_iters, "max_iters") >= 0 and 0 <= self.tol < math.inf):
            raise ValueError("max_iters and tol must be nonnegative, tol finite")


@dataclass(slots=True)
class IterateState:
    """Current iterates, the midpoints they came from, and the count ``k``.

    Treat it as immutable: nothing may assign to its fields or write into
    its arrays.  ``dataclasses.replace`` makes a modified copy.  (It is not
    ``frozen`` because a frozen ``__init__`` is a measurable part of one
    iteration.)
    """

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    y_mid: np.ndarray
    lam_mid: np.ndarray
    k: int


@dataclass(slots=True)
class StepInfo:
    """Per-iteration diagnostics used by stop rules and monitors; like
    ``IterateState``, never mutated by its readers."""

    residual: np.ndarray
    residual_norm: float      # 2-norm of ``residual``
    movement: float
    certificate: Optional[float] = None


@dataclass
class SolveReport:
    """Outcome of a solve: counts, certificate history, and the final state
    (averaged iterates come from ``ergodic_checkpoints``)."""

    iterations: int
    converged: bool
    certificate_history: list
    lemma_violations: int
    wall_time: float
    state: IterateState


def resolve_gamma(problem, config):
    """Step size actually used: explicit gamma, or STEP_SAFETY / (2 * Lhat)."""
    if config.gamma is not None:
        return float(config.gamma)
    lhat = kkt_lipschitz_bound(problem)
    if not 0.0 < lhat < np.inf:  # NaN fails the test too
        what = "zero" if lhat == 0 else f"{lhat!r}, not positive and finite"
        raise ValueError(f"cannot auto-select a step size: the KKT map bound is {what}")
    return STEP_SAFETY / (2.0 * lhat)


def initial_state(problem):
    """Canonical deterministic start: x = 0, y = proj_Y(0), lam = 0."""
    y = problem.smooth_block.project(np.zeros(problem.smooth_block.dim))
    lam = np.zeros(problem.coupling.b.shape[0])
    return IterateState(np.zeros(problem.prox_block.dim), y, lam, y.copy(), lam.copy(), 0)


def _run(problem, config, gamma, state):
    """The loop ``iterate`` returns: yields ``(state, StepInfo)`` per step.

    Everything the loop reads from ``problem`` and ``config`` is bound to
    a local once, before the first step: the coupling's ``apply_*`` as
    bound methods (so a subclass's overrides still see every product),
    the prox and the smooth block's callables, ``b``, the variant's
    traits and whether to monitor.
    """
    c = problem.coupling
    apply_a, apply_b, apply_bt = c.apply_a, c.apply_b, c.apply_bt
    b, b_is_zero = c.b, c.b_is_zero
    solve_subproblem = problem.prox_block.solve_subproblem
    gradient, project = problem.smooth_block.gradient, problem.smooth_block.project
    variant = config.variant
    extragradient, augmented = variant.extragradient, variant.augmented
    monitor = config.monitor_certificate and extragradient
    sqrt, isfinite, add_reduce = math.sqrt, math.isfinite, np.add.reduce

    while True:
        y, lam = state.y, state.lam
        # ``v - 0.0`` is v bit for bit, so a zero b is not subtracted
        offset = apply_b(y)
        if not b_is_zero:
            offset = offset - b
        x_next = solve_subproblem(offset, lam, gamma)
        ax_next = apply_a(x_next)
        # the residual at the current y and lam - gamma * resid_k, which is
        # the augmented pull and the extragradient lam_mid; GL reads neither
        if augmented or extragradient:
            resid_k = ax_next + offset
            lam_mid = lam - gamma * resid_k
        # grad_y of the (augmented) Lagrangian takes B^T of lam, or of
        # lam - gamma * resid_k for the augmented variants
        bt_pull = apply_bt(lam_mid if augmented else lam)
        y_mid = project(y - gamma * (gradient(y) - bt_pull))
        resid_mid = ax_next + apply_b(y_mid)
        if not b_is_zero:
            resid_mid = resid_mid - b
        step_mid = gamma * resid_mid
        lam_next = lam - step_mid
        if extragradient:
            grad_mid = gradient(y_mid)
            pull = lam_mid - step_mid if augmented else lam_mid
            g_mid = grad_mid - apply_bt(pull)
            y_next = project(y - gamma * g_mid)
        else:
            # Plain-gradient variants end at (y_mid, lam_next); the midpoint
            # fields repeat that pair so downstream code has one shape to handle.
            y_next, lam_mid = y_mid, lam_next

        # 2-norms as ``np.linalg.norm`` takes them: ``sqrt(v.dot(v))``
        resid_norm = sqrt(resid_mid.dot(resid_mid))
        dy, dlam = y_next - y, lam_next - lam
        # ``** 2`` as in ``np.linalg.norm(v) ** 2``: ``r * r`` rounds
        # differently for about 1 r in 1700
        dist_sq = sqrt(dy.dot(dy)) ** 2 + sqrt(dlam.dot(dlam)) ** 2
        movement = sqrt(dist_sq)
        # A NaN or inf in the residual, y+, lam+ or x+ reaches one of these
        # scalars, and NaN fails every comparison.  ``add_reduce(v, None)``
        # is ``v.sum()`` without its Python-level wrapper.
        if not (resid_norm <= DIVERGENCE_LIMIT
                and isfinite(movement + float(add_reduce(x_next, None)))):
            raise DivergenceError(variant, state.k + 1)

        certificate = None
        if monitor:
            # F(x+, z_mid) from the values above: its bottom is resid_mid, its
            # top is g_mid without the augmented pull, which for EGAL is
            # grad_mid - B^T lam_mid with B^T lam_mid the first pull's product
            f_top = grad_mid - bt_pull if augmented else g_mid
            inner = float(f_top.dot(y_mid - y_next)) + float(resid_mid.dot(lam_mid - lam_next))
            certificate = gamma * inner - 0.5 * dist_sq

        state = IterateState(x_next, y_next, lam_next, y_mid, lam_mid, state.k + 1)
        yield state, StepInfo(resid_mid, resid_norm, movement, certificate)


def iterate(problem, config, init=None):
    """Endless generator of ``(state, StepInfo)``, one pair per iteration.

    The set-up runs here, when ``iterate`` is called: the step size is
    resolved and the start is ``init`` or ``initial_state(problem)``.
    Every callable the loop uses is looked up once, before the first
    step, so a callable replaced on the problem during a run does not
    reach this iterator.  The iteration stops only when the caller does,
    or with DivergenceError.
    """
    gamma = resolve_gamma(problem, config)
    state = initial_state(problem) if init is None else init
    return _run(problem, config, gamma, state)


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


def solve(problem, config, init=None, stop_rule=None):
    """Iterate the configured variant until the stop rule fires or the cap.

    The default stop rule requires both the primal residual and the
    (y, lam) movement to drop below ``config.tol`` in the 2-norm; the
    residual is taken at the midpoint for extragradient variants and at
    the new iterate otherwise.  ``stop_rule``, when given, replaces the
    default; it receives each iteration's StepInfo.  The rule is checked
    every iteration, including the one that would hit the cap.
    ``wall_time`` covers the iterations only, not the set-up.

    ``max_iters`` caps the new steps of this call, while the report's
    ``iterations`` is the final ``state.k``: a run from ``init`` counts
    ``init.k`` in it too.
    """
    if stop_rule is None:
        def stop_rule(info):
            return info.residual_norm < config.tol and info.movement < config.tol
    state = initial_state(problem) if init is None else init
    steps = itertools.islice(iterate(problem, config, state), config.max_iters)
    certificate_history = []
    converged = False
    start = time.perf_counter()
    for state, info in steps:
        if info.certificate is not None:
            certificate_history.append(info.certificate)
        if stop_rule(info):
            converged = True
            break
    wall = time.perf_counter() - start
    return SolveReport(
        iterations=state.k,
        converged=converged,
        certificate_history=certificate_history,
        lemma_violations=sum(v > CERTIFICATE_SLACK for v in certificate_history),
        wall_time=wall,
        state=state,
    )


def ergodic_checkpoints(problem, config, checkpoints, init=None):
    """Run without stopping and snapshot ergodic averages at given counts.

    A checkpoint is an integer iteration count ``state.k``, which counts
    the steps already in ``init``: each must exceed ``init.k`` (0 without
    ``init``), and the run takes ``max(checkpoints) - init.k`` new steps.
    Returns one (x, y, lam) triple per distinct checkpoint, in increasing
    order: the mean of (x+, y_mid, lam_mid) over the steps this call took,
    summed in step order from zeros and divided by ``state.k - init.k``,
    so a start with ``k > 0`` adds neither its iterates nor its count.
    """
    marks = {_count(k, "checkpoint") for k in checkpoints}
    start = 0 if init is None else init.k
    if not marks or min(marks) <= start:
        raise ValueError(f"checkpoints must be iteration counts above the start's k = {start}")
    steps = itertools.islice(iterate(problem, config, init), max(marks) - start)
    averages, sum_x, sum_y, sum_lam = [], 0.0, 0.0, 0.0
    for state, _ in steps:
        sum_x, sum_y, sum_lam = sum_x + state.x, sum_y + state.y_mid, sum_lam + state.lam_mid
        if state.k in marks:
            n = state.k - start
            averages.append((sum_x / n, sum_y / n, sum_lam / n))
    return averages
