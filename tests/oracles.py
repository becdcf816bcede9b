"""Independent reference computations the tests check the library against.

Most of these avoid the library's own code paths: the eigensolver is a
classical Jacobi sweep, prox values come from brute-force grid search,
gradients from central differences, and the iteration oracles are
line-by-line transcriptions of the update formulas with their own linear
algebra; ``soft_threshold`` is the closed-form l1 prox they share,
written out in float64 with a Python-float zero.  The first-order
oracles (``augmented_lagrangian``, ``kkt_map``,
``extragradient_certificate``) evaluate their formulas on a
``TwoBlockProblem`` through the problem's own callables (``evaluate``,
``gradient``, the coupling products), never through the solver's
iteration; so does ``reference_advance``, one whole iteration written
out in the solver's operation order, which the solver must match bit
for bit.  ``next_state`` is no oracle but the solver itself: the one
iteration the transcription and hand-computation tests compare with.
``dense_map`` is no oracle either: it wraps a dense test matrix as the
``LinearMap`` a ``Coupling`` takes; nor is ``step_moving``, the
``StepInfo.step`` of a hand-built info with a given movement; nor is
``run_pinned``, which runs code in a fresh interpreter at one BLAS
thread.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
from scipy.io import mmwrite

from egadm.linalg import spectral_norm_sq
from egadm.problem import LinearMap, frozen_copy, lagrangian
from egadm.solver import iterate
from ledger import pinned_variables


def dense_map(mat):
    """A read-only copy M of ``mat`` as ``LinearMap(M.shape, M.dot, M.T.dot,
    spectral_norm_sq(M))``: its products are the gemvs of ``M @ v`` and
    ``M.T @ w``, bit for bit, and its ``norm_sq`` is exact to rounding."""
    M = frozen_copy(mat)
    return LinearMap(M.shape, M.dot, M.T.dot, spectral_norm_sq(M))


def step_moving(movement):
    """A ``StepInfo.step`` ``(y, y+, lam, lam+)`` whose movement is
    ``movement`` exactly: y moves by it in its one entry and lam stays,
    and ``sqrt(sqrt(v * v) ** 2)`` is v for every float v >= 0 whose
    square neither overflows nor underflows."""
    return (np.zeros(1), np.array([movement]), np.zeros(1), np.zeros(1))


def soft_threshold(z, tau):
    """``sign(z) * max(|z| - tau, 0)`` of a float64 copy of z: the minimizer of
    ``tau*||x||_1 + (1/2)||x - z||^2`` for thresholds ``tau >= 0``."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def augmented_lagrangian(problem, x, y, lam, gamma):
    """Lagrangian plus the quadratic penalty (gamma/2)||A x + B y - b||^2."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    r = problem.coupling.residual(x, y)
    return lagrangian(problem, x, y, lam) + 0.5 * gamma * float(r @ r)


def kkt_map(problem, x, y, lam):
    """Stacked first-order map ``(grad_y L, -grad_lam L)`` at (x, y, lam).

    Concretely ``(grad g(y) - B^T lam, A x + B y - b)``; its zeros over
    X x Y x R^m are the saddle points of the Lagrangian.
    """
    top = problem.smooth_block.gradient(y) - problem.coupling.apply_bt(lam)
    bottom = problem.coupling.residual(x, y)
    return np.concatenate([top, bottom])


def extragradient_certificate(problem, gamma, x_next, z_prev, z_mid, z_next):
    """Left-hand side of the extragradient contraction inequality.

    Evaluates ``gamma * <F(x+, z_mid), z_mid - z_next> - (1/2)||z_prev -
    z_next||^2`` where F stacks the smooth block's dual gradient and the
    primal residual.  Whenever ``gamma <= 1 / (2 * Lhat)`` this value is
    nonpositive up to round-off.  The solver's monitored certificate comes
    from its own iteration values in the same operation order, so the two
    agree bit for bit.
    """
    c = problem.coupling
    (y_mid, lam_mid), (y_next, lam_next) = z_mid, z_next
    f_top = problem.smooth_block.gradient(y_mid) - c.apply_bt(lam_mid)
    f_bottom = c.apply_a(x_next) + c.apply_b(y_mid) - c.b
    dist_sq = sum(float(np.linalg.norm(p - q) ** 2) for p, q in zip(z_prev, z_next))
    inner = float(f_top @ (y_mid - y_next)) + float(f_bottom @ (lam_mid - lam_next))
    return gamma * inner - 0.5 * dist_sq


def next_state(problem, config, state):
    """The state one iteration after ``state``, from the loop ``solve``
    runs: a fresh ``iterate`` from ``state``, advanced once."""
    return next(iterate(problem, config, state))[0]


def reference_advance(problem, variant, gamma, monitor, y, lam):
    """One solver iteration from ``(y, lam)``, written out step by step.

    The update formulas in the solver's operation order, taken through
    the problem's public callables (``solve_subproblem``, ``gradient``,
    ``project``, the coupling's ``apply_*`` and ``b``), with the norms from
    ``np.linalg.norm``.  Returns ``((x+, y+, lam+, y_mid, lam_mid),
    residual_norm, movement, certificate)``; the certificate is None
    unless ``monitor`` is set for an extragradient variant.
    """
    c, sm = problem.coupling, problem.smooth_block
    eg, aug = variant.extragradient, variant.augmented
    offset = c.apply_b(y)
    if not c.b_is_zero:
        offset = offset - c.b
    x_next = problem.prox_block.solve_subproblem(offset, lam, gamma)
    ax_next = c.apply_a(x_next)
    if aug or eg:
        lam_mid = lam - gamma * (ax_next + offset)
    bt_pull = c.apply_bt(lam_mid if aug else lam)
    y_mid = sm.project(y - gamma * (sm.gradient(y) - bt_pull))
    resid_mid = ax_next + c.apply_b(y_mid)
    if not c.b_is_zero:
        resid_mid = resid_mid - c.b
    step_mid = gamma * resid_mid
    lam_next = lam - step_mid
    if eg:
        grad_mid = sm.gradient(y_mid)
        g_mid = grad_mid - c.apply_bt(lam_mid - step_mid if aug else lam_mid)
        y_next = sm.project(y - gamma * g_mid)
    else:
        y_next, lam_mid = y_mid, lam_next
    dist_sq = np.linalg.norm(y_next - y) ** 2 + np.linalg.norm(lam_next - lam) ** 2
    certificate = None
    if monitor and eg:
        f_top = grad_mid - bt_pull if aug else g_mid
        inner = float(f_top @ (y_mid - y_next)) + float(resid_mid @ (lam_mid - lam_next))
        certificate = gamma * inner - 0.5 * float(dist_sq)
    iterates = (x_next, y_next, lam_next, y_mid, lam_mid)
    return iterates, float(np.linalg.norm(resid_mid)), float(np.sqrt(dist_sq)), certificate


def jacobi_eigenvalues(sym, max_sweeps=100, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, float(np.max(np.abs(np.diag(a))))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def grid_prox_scalar(z, tau, lo=-5.0, hi=5.0, step=1e-4):
    """Brute-force minimizer of tau*|x| + 0.5*(x - z)^2 over a grid."""
    grid = np.arange(lo, hi + step, step)
    obj = tau * np.abs(grid) + 0.5 * (grid - z) ** 2
    return float(grid[np.argmin(obj)])


def central_diff_gradient(fun, point, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    point = np.asarray(point, dtype=float)
    out = np.zeros_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        out[i] = (fun(point + e) - fun(point - e)) / (2.0 * h)
    return out


def c_ordered_spectral_norm_sq(mat):
    """``lmax(M^T M)`` from ``scipy.linalg.eigh`` (top index only) on the
    C-ordered Gram matrix, which f2py copies into Fortran order before the
    solve: the lower triangle of that copy is what LAPACK reads.  The
    in-place solve of ``spectral_norm_sq`` must give these bits."""
    import scipy.linalg

    a = np.asarray(mat, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    k = gram.shape[0]
    return float(scipy.linalg.eigh(
        gram, subset_by_index=[k - 1, k - 1], eigvals_only=True,
        driver="evr", overwrite_a=True, check_finite=False,
    )[0])


def traced_call(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), held, peak)``: the call's result, the bytes
    tracemalloc sees still allocated when it returns (what the result and
    anything the call cached keep alive), and the most it saw allocated
    during the call, both counted from the call's start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - start, peak - start


def masked_sigmoid(t):
    """``1 / (1 + exp(-t))`` where ``t >= 0`` and ``exp(t) / (1 + exp(t))``
    elsewhere, each branch on its own entries."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def fused_coupling_rmatvec(v):
    """``B.T @ v`` for the fused coupling ``B = -[I 0; L 0]`` of a chain of
    ``n = (len(v) + 1) // 2`` coefficients, written with ``__setitem__``
    updates: ``-v[:n]``, then ``v[n:]`` added to entries 1..n-1 and
    subtracted from entries 0..n-2, and a zero intercept entry."""
    n = (v.shape[0] + 1) // 2
    out = np.zeros((n + 1,) + v.shape[1:])
    out[:n] = -v[:n]
    out[1:n] += v[n:]
    out[: n - 1] -= v[n:]
    return out


def logistic_gradient(data, z):
    """The average logistic loss's gradient at the stacked point ``z`` for
    the augmented data matrix ``data``, as one formula written with ``@``
    and Python-number operands: ``(data.T @ (1 - sigmoid(data @ z))) / -m``,
    the sigmoid in its masked form."""
    return (data.T @ (1.0 - masked_sigmoid(data @ z))) / -data.shape[0]


def bp_midpoint_transcription(A, b, gamma, iters):
    """Direct transcription of the five-line midpoint iteration for
    min ||x||_1 s.t. x = y, A y = b, using its own LU-based projection.

    Returns the per-iteration tuples (x, y_mid, lam_mid, y, lam).
    """
    m, n = A.shape
    gram = A @ A.T

    def proj(w):
        return w + A.T @ np.linalg.solve(gram, b - A @ w)

    y = proj(np.zeros(n))
    lam = np.zeros(n)
    traj = []
    for _ in range(iters):
        x = soft_threshold(y + lam / gamma, 1.0 / gamma)
        y_bar = proj(y - gamma * lam)
        lam_bar = lam - gamma * (x - y)
        y_new = proj(y - gamma * lam_bar)
        lam_new = lam - gamma * (x - y_bar)
        y, lam = y_new, lam_new
        traj.append((x, y_bar, lam_bar, y, lam))
    return traj


def fused_midpoint_transcription(A, labels, alpha, beta, gamma, iters):
    """Line-by-line transcription of the twelve-step fused-logistic loop:
    two shrinks, plain sigmoid gradients, midpoint multipliers from the
    previous y, final steps using gradients at the midpoint.

    Returns per-iteration tuples
    (x, w, y_mid, c_mid, lam1_mid, lam2_mid, y, c, lam1, lam2).
    """
    m, n = A.shape
    signed = labels[:, None] * A

    def diff(v):
        return v[:-1] - v[1:]

    def diff_t(w):
        out = np.zeros(n)
        out[:-1] += w
        out[1:] -= w
        return out

    y = np.zeros(n)
    c = 0.0
    lam1 = np.zeros(n)
    lam2 = np.zeros(n - 1)
    traj = []
    for _ in range(iters):
        x = soft_threshold(y + lam1 / gamma, alpha / gamma)
        w = soft_threshold(diff(y) + lam2 / gamma, beta / gamma)
        d = 1.0 / (1.0 + np.exp(-signed @ y - labels * c))
        gy = -(signed.T @ (1.0 - d)) / m
        gc = -(labels @ (1.0 - d)) / m
        y_mid = y - gamma * (
            gy + lam1 + diff_t(lam2) + gamma * (y - x) + gamma * diff_t(diff(y) - w)
        )
        c_mid = c - gamma * gc
        lam1_mid = lam1 - gamma * (x - y)
        lam2_mid = lam2 - gamma * (w - diff(y))
        d_mid = 1.0 / (1.0 + np.exp(-signed @ y_mid - labels * c_mid))
        gy_mid = -(signed.T @ (1.0 - d_mid)) / m
        gc_mid = -(labels @ (1.0 - d_mid)) / m
        y_new = y - gamma * (
            gy_mid
            + lam1_mid
            + diff_t(lam2_mid)
            + gamma * (y_mid - x)
            + gamma * diff_t(diff(y_mid) - w)
        )
        c_new = c - gamma * gc_mid
        lam1_new = lam1 - gamma * (x - y_mid)
        lam2_new = lam2 - gamma * (w - diff(y_mid))
        y, c, lam1, lam2 = y_new, c_new, lam1_new, lam2_new
        traj.append((x, w, y_mid, c_mid, lam1_mid, lam2_mid, y, c, lam1, lam2))
    return traj


def write_format_1_matrix(directory, A):
    """Store ``A`` in instance ``directory`` as format 1 did: MatrixMarket
    array text at 17 significant digits in ``A.mtx``, ``format_version: 1``
    in ``meta.json``, and no ``A.npy``."""
    d = Path(directory)
    mmwrite(str(d / "A.mtx"), A, precision=17)
    (d / "A.npy").unlink(missing_ok=True)
    meta = json.loads((d / "meta.json").read_text())
    meta["format_version"] = 1
    (d / "meta.json").write_text(json.dumps(meta))


def vector_text(v):
    """The text ``storage.write_vector`` must write for ``v``: each value
    as float64, formatted on its own as ``f"{val:.17g}\\n"``."""
    return "".join(f"{val:.17g}\n" for val in np.asarray(v, dtype=float).tolist())


def loadtxt_vector(path):
    """The vector file ``path`` as ``np.loadtxt`` reads it, which is how
    ``storage`` read vector files before its own reader: a file without
    data is an empty vector, with no warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, dtype=float, ndmin=1)


_ROOT = Path(__file__).resolve().parent.parent


def run_pinned(code, timeout=120):
    """``code`` run in a fresh interpreter with every thread variable that
    ``bench/run.py`` pins set to 1, as it runs, and ``src`` and
    ``tests`` first on ``sys.path``.  Returns the ``CompletedProcess``,
    its output as text."""
    env = os.environ | {var: "1" for var in pinned_variables()}
    prelude = f"import sys; sys.path[:0] = [{str(_ROOT / 'src')!r}, {str(_ROOT / 'tests')!r}]\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
