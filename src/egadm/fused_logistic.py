"""Fused logistic regression.

Minimizes the average logistic loss plus an l1 penalty on the
coefficients and a total-variation penalty on their successive
differences:

    min_{x, c}  loss(x, c) + alpha*||x||_1 + beta*sum_j |x_j - x_{j+1}|.

Splitting with auxiliary variables x = y and w = L y (L the forward
difference operator) puts this in two-block form: the (x, w) block is
one shrink with per-component thresholds, while the (y, c) block carries
the smooth loss, whose gradient is one product each way with the
augmented data matrix.  The intercept c is unpenalized and enters only the
smooth block, never the coupling.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import blas_threads, spectral_norm_sq
from .operators import l1_prox
from .problem import (
    Coupling, LinearMap, ProxBlock, SmoothBlock, TwoBlockProblem, _check_bound,
    _check_dimensions, frozen_copy, identity_map,
)
from .solver import SolverConfig, VariantKind, solve


class _DataFromAux:
    """The field ``A`` of a ``FusedLogisticInstance``, rebuilt from the
    instance's augmented matrix on each access as ``signed * labels``:
    exact, since each label is -1.0 or +1.0, so every bit of the
    constructor's A comes back, signed zeros included.  The result is a
    fresh read-only m x n array.

    Access on the class raises AttributeError, so the dataclass gives the
    field no default; having no ``__set__``, the generated ``__init__``
    stores the caller's A in the instance's ``__dict__``, from where
    ``__post_init__`` takes it.
    """

    def __get__(self, inst, owner=None):
        if inst is None:
            raise AttributeError("A")
        A = inst.aux.signed * inst.aux.labels[:, None]
        A.flags.writeable = False
        return A


def stop_rule(tol):
    """The fused stop rule: the constraint residual at the midpoint (the
    new iterate for the plain-gradient variants) satisfies ``max(|x -
    y_mid|, |w - L y_mid|) < tol`` componentwise.  Unlike the solver's
    default rule it ignores the (y, lam) movement.  A NaN residual never
    stops the run.  ``np.maximum.reduce(v, None)`` is ``v.max()`` without
    its Python-level wrapper."""
    max_reduce = np.maximum.reduce
    return lambda info: max_reduce(np.abs(info.residual), None) < tol


@dataclass(frozen=True, eq=False)
class FusedLogisticInstance:
    """Binary-labelled data with a planted piecewise-constant coefficient
    vector; labels are exactly -1.0 or +1.0.

    The data are held once, as ``aux``, the read-only ``LogisticAux`` the
    constructor builds from A and labels (a label other than -1 or +1 is
    a ``LabelError`` there, and a label count other than A's row count a
    ValueError).
    ``labels`` is a view into it, and ``A`` is rebuilt from it on each
    access, bit for bit, at the cost of one m x n array; ``m``, ``n``,
    ``problem_id`` and the solves read ``aux`` alone.  With ``xhat`` a
    read-only float copy, the set-up derived from the data, ``lipschitz``,
    ``coupling`` and ``smooth_block``, is built on first use and reused by
    every later solve of this object without going stale (``load_instance``
    may set ``lipschitz`` to the checked bits a directory stores);
    ``dataclasses.replace`` makes a new instance with its own set-up.
    Instances compare by identity: the generated ``__eq__`` would compare
    the rebuilt arrays.  ``as_problem`` and ``stop_rule`` are the front-end
    protocol that ``solve_fused`` and the CLI solve through."""

    A: np.ndarray = _DataFromAux()
    labels: np.ndarray
    xhat: np.ndarray
    c_true: float
    seed: int
    pattern: str = "custom"

    stop_rule = staticmethod(stop_rule)

    def __post_init__(self):
        aux = LogisticAux.from_data(vars(self).pop("A"), self.labels)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "labels", aux.labels)
        object.__setattr__(self, "xhat", frozen_copy(self.xhat))

    @functools.cached_property
    def lipschitz(self):
        """``logistic_lipschitz(self.aux)``, the smooth block's constant."""
        return logistic_lipschitz(self.aux)

    @functools.cached_property
    def coupling(self):
        """The ``Coupling`` of x = y and w = L y: A = I over the stacked
        (x, w), ``B = fused_coupling(n)``, b = 0."""
        p = 2 * self.n - 1
        return Coupling(A=identity_map(p), B=fused_coupling(self.n), b=np.zeros(p))

    @functools.cached_property
    def smooth_block(self):
        """The ``SmoothBlock`` of the loss over the stacked (y, c): value
        and gradient from ``aux.data``, constant ``lipschitz``, and no
        constraint (projection is the identity).  The gradient is
        ``_logistic_gradient(data)``, whose operands are bound once."""
        data = self.aux.data
        return SmoothBlock(
            evaluate=functools.partial(_loss, data),
            gradient=_logistic_gradient(data),
            lipschitz_constant=self.lipschitz,
            project=lambda z: z,
        )

    def as_problem(self, penalties):
        """Two-block form under the penalty pair ``(alpha, beta)`` of
        ``penalties``, a ``FusedLogisticConfig``: the x-step is ``l1_prox``
        of ``[alpha]*n + [beta]*(n-1)`` over the stacked (x, w), around the
        cached ``smooth_block`` and ``coupling``.  Built once per pair and
        kept in the instance's own ``__dict__``, so it is freed with the
        instance; keys compare by ``==`` (0.0 and -0.0 share one)."""
        key = (penalties.alpha, penalties.beta)
        problems = vars(self).setdefault("_problems", {})
        if key not in problems:
            n, (alpha, beta) = self.n, key
            weights = np.concatenate([np.full(n, alpha), np.full(n - 1, beta)])
            prox = ProxBlock(
                evaluate=lambda v: float(
                    alpha * np.sum(np.abs(v[:n])) + beta * np.sum(np.abs(v[n:]))
                ),
                solve_subproblem=l1_prox(weights),
            )
            problems[key] = TwoBlockProblem(prox, self.smooth_block, self.coupling)
        return problems[key]

    @property
    def m(self):
        return self.aux.data.shape[0]

    @property
    def n(self):
        return self.aux.data.shape[1] - 1

    @property
    def problem_id(self):
        """The ``problem`` column of this instance's CLI rows."""
        return f"fused_{self.pattern}_m{self.m}_n{self.n}"

    def row_metrics(self, x):
        """The row metrics of coefficients x: ``sparsity_report`` counts."""
        l0, tv0 = sparsity_report(x)
        return {"l0": l0, "tv0": tv0}


class LabelError(ValueError):
    """A label other than -1 or +1, which ``LogisticAux.from_data`` refuses."""


@dataclass(frozen=True)
class LogisticAux:
    """The augmented data matrix ``data = [diag(labels) A, labels]``,
    m x (n+1): each feature row scaled by its label, with the label as the
    intercept column, so the margins at coefficients y and intercept c are
    ``data @ [y, c]``.  ``signed`` and ``labels`` are views into it, and
    ``from_data`` leaves it read-only."""

    data: np.ndarray

    @classmethod
    def from_data(cls, A, labels):
        A = np.asarray(A, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if A.ndim != 2 or labels.shape != A.shape[:1]:
            raise ValueError(
                f"need a 2-d A and one label per row: A has shape {A.shape}, "
                f"labels {labels.shape}"
            )
        # |label| == 1 holds for -1.0 and +1.0 alone: NaN, +-0 and 0.5 fail it
        if not (np.abs(labels) == 1.0).all():
            raise LabelError("labels must be exactly -1 or +1")
        m, n = A.shape
        data = np.empty((m, n + 1))
        np.multiply(labels[:, None], A, out=data[:, :n])
        data[:, n] = labels
        data.flags.writeable = False
        return cls(data)

    @property
    def signed(self):
        return self.data[:, :-1]

    @property
    def labels(self):
        return self.data[:, -1]

    @property
    def m(self):
        return self.data.shape[0]


def _softplus(t):
    # log(1 + exp(t)), safe for arguments of either sign and any size
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


# read-only 0-d operands: a ufunc converts a Python number on every call
_ZERO, _ONE = frozen_copy(0.0), frozen_copy(1.0)


def _sigmoid(t):
    # exp(-|t|) never overflows: it is exp(-t) where t >= 0 and exp(t) elsewhere
    e = np.exp(-np.abs(t))
    return np.where(t >= _ZERO, _ONE, e) / (_ONE + e)


def _loss(data, z):
    # average logistic loss at the stacked point z = [y, c]
    return float(np.mean(_softplus(-(data @ z))))


# The margins are read in row panels of about this many bytes, half of a
# 2 MiB L2 cache, when the augmented matrix holds more than one panel.
_PANEL_BYTES = 1 << 20


def _logistic_gradient(data):
    """The gradient in z of ``_loss(data, z)``, one product each way with
    the augmented matrix: ``z -> (data.T @ (1 - sigmoid(data @ z))) / -m``.

    Its operands are bound once, bit for bit the same as that formula:
    the products as ``data.dot`` and ``data.T.dot``, the same gemv as
    ``@`` without the ``matmul`` ufunc's dispatch, and 1 and -m as
    read-only 0-d arrays, since a ufunc converts a Python number on every
    call (about 0.3 us each).  For one sample it is ``data.T.__matmul__``:
    there ``data.T.dot`` can give -0.0 where ``@`` gives +0.0.

    When the matrix holds more than one panel of ``_PANEL_BYTES`` (rows per
    panel a multiple of 64, at least 64) and ``blas_threads()`` is 1, the
    margins are filled panel by panel from the bottom up, so the rows that
    ``data.T.dot`` read last are still in cache when they are read again.
    The bits stay: each margin is one row's dot product, and OpenBLAS's
    one-thread gemv computes it by the same kernel in any panel, as long
    as each panel starts on a multiple of its row group of 4 and no panel
    is a single row, which numpy hands to a dot product instead (a last
    row alone joins the panel above).  At more threads, or when the count
    cannot be asked, the margins are one product: there, panels change
    how OpenBLAS splits the rows between threads, and the bits.
    """
    m = data.shape[0]
    margins = data.dot
    back = data.T.__matmul__ if m == 1 else data.T.dot
    neg_m = frozen_copy(-m)
    rows = max(64, _PANEL_BYTES // (data.shape[1] * data.itemsize) // 64 * 64)
    # the panels' first rows below m - 1, so that no panel is one row alone
    starts = range(0, m - 1, rows)
    bounds = zip(starts, [*starts[1:], m]) if len(starts) > 1 else ()
    panels = [(data[a:b].dot, a, b) for a, b in bounds][::-1]

    def gradient(z):
        if panels and blas_threads() == 1:
            t = np.empty(m)
            for dot, a, b in panels:
                dot(z, t[a:b])
        else:
            t = margins(z)
        return back(_ONE - _sigmoid(t)) / neg_m

    return gradient


def logistic_lipschitz(aux):
    """Upper bound on the loss gradient's Lipschitz constant in (y, c).

    The sigmoid's derivative never exceeds 1/4, so the Hessian is
    dominated by ``M^T M / (4m)`` with M the augmented data matrix
    ``aux.data`` (signed features plus the label column, the intercept
    direction); the bound is ``lmax(M^T M) / (4m)``, exact to rounding:
    ``spectral_norm_sq`` takes the top eigenvalue of the smaller Gram
    matrix, ``M M^T`` for wide data and ``M^T M`` for tall.
    """
    return spectral_norm_sq(aux.data) / (4.0 * aux.m)


def fused_coupling(n):
    """``B = -[I 0; L 0]`` of the split x = y, w = L y, shape (2n-1) x (n+1),
    with ``(L v)_j = v_j - v_{j+1}`` and a zero intercept column.

    Each product writes its parts into one fresh output array, the sums
    in place through the ufuncs' output argument (``out[1:n] += w`` would
    pay a copy of the view onto itself).
    lmax(B^T B) = 1 + lmax(L^T L) = 3 + 2cos(pi/n): L^T L is the path
    Laplacian, eigenvalues 2 - 2cos(k pi/n) for k < n (Strang, "The
    Discrete Cosine Transform", SIAM Review 1999)."""

    def matvec(z):
        out = np.empty((2 * n - 1,) + z.shape[1:])
        np.negative(z[:n], out[:n])
        np.subtract(z[1:n], z[: n - 1], out[n:])
        return out

    def rmatvec(v):
        out = np.empty((n + 1,) + v.shape[1:])
        np.negative(v[:n], out[:n])
        w, upper, lower = v[n:], out[1:n], out[: n - 1]
        np.add(upper, w, upper)
        np.subtract(lower, w, lower)
        out[n] = 0.0
        return out

    return LinearMap((2 * n - 1, n + 1), matvec, rmatvec, 3.0 + 2.0 * np.cos(np.pi / n))


@dataclass(frozen=True)
class FusedLogisticConfig:
    """The penalty pair ``(alpha, beta)``, finite nonnegative floats and
    ``as_problem``'s cache key.  A step size is a ``SolverConfig`` setting;
    ``gamma`` is a class constant, ``None``, for callers that still read it."""

    alpha: float = 5e-4
    beta: float = 5e-2
    gamma = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_bound("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_bound("beta", self.beta))


# kept beside the method for callers that take the front end as a module
as_problem = FusedLogisticInstance.as_problem


def _finish_instance(rng, xhat, n, m, seed, pattern):
    A = rng.standard_normal((m, n))
    c = float(rng.uniform(0.0, 1.0))
    labels = np.where(A @ xhat + c >= 0.0, 1.0, -1.0)
    return FusedLogisticInstance(
        A=A, labels=labels, xhat=xhat, c_true=c, seed=int(seed), pattern=pattern
    )


def generate_simple_pattern(n, seed, m=None):
    """Planted coefficients constant on four wide blocks.

    Blocks sit at indices 1-100, 201-300, 401-500, 601-700 (1-based) with
    heights drawn uniform in (0, 20); everything else is zero.  ``m``
    defaults to n // 2, matching the canonical n = 1000, m = 500 sizing.
    """
    _check_dimensions(n=n, seed=seed)
    m = n // 2 if m is None else m
    _check_dimensions(m=m)
    if n < 1000:
        raise ValueError("the simple block pattern needs n >= 1000")
    if m < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng([seed, 0])
    heights = rng.uniform(0.0, 20.0, size=4)
    while np.any(heights == 0.0):
        redo = heights == 0.0
        heights[redo] = rng.uniform(0.0, 20.0, size=int(np.count_nonzero(redo)))
    xhat = np.zeros(n)
    for h, (lo, hi) in zip(heights, ((0, 100), (200, 300), (400, 500), (600, 700))):
        xhat[lo:hi] = h
    return _finish_instance(rng, xhat, n, m, seed, "simple")


def generate_block_pattern(n, m, seed):
    """Planted coefficients with narrow blocks and an isolated spike:
    20 on 1-20, 30 at 41, 10 on 71-85, 20 on 121-125 (1-based)."""
    _check_dimensions(n=n, m=m, seed=seed)
    if n < 126:
        raise ValueError("the narrow block pattern needs n >= 126")
    if m < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng([seed, 0])
    xhat = np.zeros(n)
    xhat[0:20] = 20.0
    xhat[40] = 30.0
    xhat[70:85] = 10.0
    xhat[120:125] = 20.0
    return _finish_instance(rng, xhat, n, m, seed, "blocks")


def sparsity_report(x):
    """Counts of coefficients and of successive differences above
    ``1e-6 * max|x|`` (an exact zero count is meaningless on a float
    solution).  Returns ``(nnz(x), nnz(L x))``.
    """
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x))) if x.size else 0.0
    if not np.isfinite(top):  # max|x| is inf or NaN exactly when an entry is
        raise ValueError("x has non-finite entries")
    threshold = 1e-6 * top  # 0 where it underflows: then every nonzero counts
    # a difference that overflows is +-inf, above every finite threshold
    with np.errstate(over="ignore"):
        diffs = x[:-1] - x[1:]
    return (
        int(np.count_nonzero(np.abs(x) > threshold)),
        int(np.count_nonzero(np.abs(diffs) > threshold)),
    )


def solve_fused(inst, cfg, variant=VariantKind.EGAL, **settings):
    """``solve`` on ``inst.as_problem(cfg)`` with ``inst.stop_rule(tol)``.

    ``settings`` are further ``SolverConfig`` fields (``gamma``, ``tol``,
    ``max_iters``, ``monitor_certificate``); any not given
    keeps ``SolverConfig``'s default.  The run stops by ``stop_rule(tol)``
    or at the iteration cap.
    """
    config = SolverConfig(variant=variant, **settings)
    return solve(inst.as_problem(cfg), config, stop_rule=inst.stop_rule(config.tol))
