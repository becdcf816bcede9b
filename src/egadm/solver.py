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
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import (
    _check_bound, _check_dimensions, _check_gamma, frozen_copy, kkt_lipschitz_bound, lagrangian,
)

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
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))
        object.__setattr__(self, "tol", _check_bound("tol", self.tol))
        _check_dimensions(max_iters=self.max_iters)


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
    (averaged iterates come from ``ergodic_checkpoints``).  A solve that
    did not record the certificate (see ``_records_certificate``) has
    ``certificate_history`` and ``lemma_violations`` None, not empty."""

    iterations: int
    converged: bool
    certificate_history: Optional[list]
    lemma_violations: Optional[int]
    wall_time: float
    state: IterateState


def _records_certificate(config):
    """Whether a run under ``config`` records the extragradient certificate:
    only when monitored, and only for a midpoint variant, which has one."""
    return config.monitor_certificate and config.variant.extragradient


def resolve_gamma(problem, config):
    """Step size actually used: explicit gamma, or STEP_SAFETY / (2 * Lhat)."""
    if config.gamma is not None:
        return config.gamma
    lhat = kkt_lipschitz_bound(problem)
    if not 0.0 < lhat < np.inf:  # NaN fails the test too
        what = "zero" if lhat == 0 else f"{lhat!r}, not positive and finite"
        raise ValueError(f"cannot auto-select a step size: the KKT map bound is {what}")
    return STEP_SAFETY / (2.0 * lhat)


def initial_state(problem):
    """Canonical deterministic start: x = 0, y = proj_Y(0), lam = 0, sized by the coupling."""
    y = problem.smooth_block.project(np.zeros(problem.coupling.B.shape[1]))
    lam = np.zeros(problem.coupling.b.shape[0])
    return IterateState(np.zeros(problem.coupling.A.shape[1]), y, lam, y, lam, 0)


def _run(problem, config, gamma, state):
    """The loop ``iterate`` returns: yields ``(state, StepInfo)`` per step.

    Everything the loop reads from ``problem`` and ``config`` is bound to
    a local once, before the first step: the coupling's ``apply_*`` as
    bound methods (so a subclass's overrides still see every product),
    the prox and the smooth block's callables, ``b``, the variant's
    traits and whether to monitor.  The step products take gamma as
    ``g``, a read-only 0-d float64 array: a ufunc converts a Python-float
    operand on every call, about 0.3 us each at these sizes, and the
    product is the same, bit for bit.  ``solve_subproblem`` and the
    certificate keep the Python float.
    """
    c = problem.coupling
    apply_a, apply_b, apply_bt = c.apply_a, c.apply_b, c.apply_bt
    b, b_is_zero = c.b, c.b_is_zero
    solve_subproblem = problem.prox_block.solve_subproblem
    gradient, project = problem.smooth_block.gradient, problem.smooth_block.project
    variant = config.variant
    extragradient, augmented = variant.extragradient, variant.augmented
    monitor = _records_certificate(config)
    sqrt, isfinite, add_reduce = math.sqrt, math.isfinite, np.add.reduce
    g = frozen_copy(gamma)

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
            lam_mid = lam - g * resid_k
        # grad_y of the (augmented) Lagrangian takes B^T of lam, or of
        # lam - gamma * resid_k for the augmented variants
        bt_pull = apply_bt(lam_mid if augmented else lam)
        y_mid = project(y - g * (gradient(y) - bt_pull))
        resid_mid = ax_next + apply_b(y_mid)
        if not b_is_zero:
            resid_mid = resid_mid - b
        step_mid = g * resid_mid
        lam_next = lam - step_mid
        if extragradient:
            grad_mid = gradient(y_mid)
            pull = lam_mid - step_mid if augmented else lam_mid
            g_mid = grad_mid - apply_bt(pull)
            y_next = project(y - g * g_mid)
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


def default_stop_rule(tol):
    """``solve``'s stop rule: the primal residual and the (y, lam) movement
    both below ``tol`` in the 2-norm, the residual taken at the midpoint
    for extragradient variants and at the new iterate otherwise."""
    return lambda info: info.residual_norm < tol and info.movement < tol


def solve(problem, config, init=None, stop_rule=None):
    """Iterate the configured variant until the stop rule fires or the cap.

    ``stop_rule`` receives each iteration's StepInfo; when not given it is
    ``default_stop_rule(config.tol)``.  The rule is checked every
    iteration, including the one that would hit the cap.
    ``wall_time`` covers the iterations only, not the set-up.  The
    certificate history and its violation count are None unless the run
    recorded the certificate (``_records_certificate``).

    ``max_iters`` caps the new steps of this call, while the report's
    ``iterations`` is the final ``state.k``: a run from ``init`` counts
    ``init.k`` in it too.
    """
    if stop_rule is None:
        stop_rule = default_stop_rule(config.tol)
    state = initial_state(problem) if init is None else init
    steps = itertools.islice(iterate(problem, config, state), config.max_iters)
    recording = _records_certificate(config)
    certificate_history = [] if recording else None
    converged = False
    start = time.perf_counter()
    for state, info in steps:
        if recording:
            certificate_history.append(info.certificate)
        if stop_rule(info):
            converged = True
            break
    wall = time.perf_counter() - start
    violations = sum(v > CERTIFICATE_SLACK for v in certificate_history) if recording else None
    return SolveReport(
        iterations=state.k,
        converged=converged,
        certificate_history=certificate_history,
        lemma_violations=violations,
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
    marks = set()
    for k in checkpoints:
        _check_dimensions(checkpoint=k)
        marks.add(k)
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
