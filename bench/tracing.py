"""In-memory span recording around calls into egadm's public functions.

Spans are recorded only from the benchmark's side of the call.  The
solver's callees are reached from outside the package:

* ``TracedCoupling`` subclasses ``egadm.problem.Coupling`` and times
  ``apply_a``/``apply_b``/``apply_bt``;
* ``traced_problem`` uses ``dataclasses.replace`` on the problem's
  ``ProxBlock``/``SmoothBlock`` to wrap ``solve_subproblem``,
  ``gradient`` and ``project``.

Each wrapped call also carries a computed work count (flops and bytes
moved, derived from operand shapes, never from hardware counters).
"""

import dataclasses
import functools
import json
import time

import numpy as np

from egadm.operators import AffineProjector
from egadm.problem import Coupling

_F8 = 8  # bytes per float64


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, solve_id]``.

    ``parent`` is the index of the enclosing open span (or -1); spans of
    one solve share ``solve_id``.  ``work[name]`` holds the computed
    ``(flops, bytes)`` of one call of that span.
    """

    def __init__(self):
        self.spans = []
        self.work = {}
        self._open = []
        self.solve_id = -1

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solve_id])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def wrap(self, name, fn, work=None):
        """``fn`` wrapped in a span; ``work`` is its per-call (flops, bytes)."""
        if work is not None:
            self.work[name] = work
        return functools.partial(self.call, name, fn)

    def write_jsonl(self, path):
        """One JSON array per span, after a header line naming the fields;
        a span's id is its line number after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "solve_id"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _is_identity(m, sign):
    return m.shape[0] == m.shape[1] and np.array_equal(m, sign * np.eye(m.shape[0]))


def matvec_work(mat, sign_identity=None):
    """Computed (flops, bytes) of one product with ``mat``.

    ``sign_identity`` = +1 or -1 marks the coupling's identity fast paths
    (``x`` returned as is, or ``-x``), which move no matrix entries.
    """
    p, q = mat.shape
    if sign_identity == 1:
        return 0, 0
    if sign_identity == -1:
        return q, 2 * _F8 * q
    return 2 * p * q, _F8 * (p * q + p + q)


def coupling_work(c):
    """Computed per-call work of ``apply_a``, ``apply_b``, ``apply_bt``."""
    a_sign = 1 if _is_identity(c.A, 1.0) else None
    b_sign = -1 if _is_identity(c.B, -1.0) else None
    return {
        "problem.apply_a": matvec_work(c.A, a_sign),
        "problem.apply_b": matvec_work(c.B, b_sign),
        "problem.apply_bt": matvec_work(c.B.T, b_sign),
    }


def affine_project_work(A):
    """Computed work of ``AffineProjector.__call__`` for an m x n ``A``:
    ``A @ w`` and ``A.T @ v`` (each m*n entries), two triangular solves
    against the m x m Cholesky factor, and O(n + m) vector updates."""
    m, n = A.shape
    flops = 4 * m * n + 2 * m * m + 2 * n + m
    moved = _F8 * (2 * m * n + m * (m + 1) + 4 * n + 4 * m)
    return flops, moved


def logistic_gradient_work(signed):
    """Computed work of the logistic gradient's two matvecs with the m x n
    signed feature matrix (``signed @ y`` and ``signed.T @ r``)."""
    m, n = signed.shape
    return 4 * m * n, 2 * _F8 * (m * n + m + n)


@dataclasses.dataclass(frozen=True)
class TracedCoupling(Coupling):
    """Coupling whose products are recorded as ``problem.apply_*`` spans."""

    tracer: Tracer = None

    def apply_a(self, x):
        return self.tracer.call("problem.apply_a", super().apply_a, x)

    def apply_b(self, y):
        return self.tracer.call("problem.apply_b", super().apply_b, y)

    def apply_bt(self, v):
        return self.tracer.call("problem.apply_bt", super().apply_bt, v)


def traced_problem(problem, tracer, front_end, signed=None):
    """Copy of ``problem`` whose callees record spans into ``tracer``.

    ``front_end`` names the module that built the smooth block (its
    gradient span is ``<front_end>.gradient``); ``signed`` is the logistic
    feature matrix when the gradient is the logistic one.
    """
    c = problem.coupling
    tracer.work.update(coupling_work(c))
    coupling = TracedCoupling(A=c.A, B=c.B, b=c.b, tracer=tracer)
    prox = dataclasses.replace(
        problem.prox_block,
        solve_subproblem=tracer.wrap(
            "operators.shrink", problem.prox_block.solve_subproblem
        ),
    )
    sm = problem.smooth_block
    if isinstance(sm.project, AffineProjector):
        project = tracer.wrap(
            "operators.affine_project", sm.project, affine_project_work(sm.project.A)
        )
    else:
        project = tracer.wrap(f"{front_end}.project", sm.project)
    grad_work = logistic_gradient_work(signed) if signed is not None else None
    smooth = dataclasses.replace(
        sm,
        gradient=tracer.wrap(f"{front_end}.gradient", sm.gradient, grad_work),
        project=project,
    )
    return dataclasses.replace(
        problem, prox_block=prox, smooth_block=smooth, coupling=coupling
    )


def summarize(tracer):
    """Per span name: ``[calls, total seconds]``."""
    out = {}
    for name, start, end, _, _ in tracer.spans:
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += end - start
    return out


def loop_child_seconds(tracer):
    """Per ``solver.solve`` span index: seconds covered by its direct
    children inside the iteration loop.

    The loop's first action is ``apply_b``, so children that start before
    the solve's first ``problem.apply_b`` belong to set-up (the initial
    projection) and are left out.
    """
    children = {}
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0 and tracer.spans[parent][0] == "solver.solve":
            children.setdefault(parent, []).append((name, start, end))
    out = {}
    for idx, kids in children.items():
        first_b = min((s for n, s, _ in kids if n == "problem.apply_b"), default=0.0)
        out[idx] = sum(e - s for _, s, e in kids if s >= first_b)
    return out
