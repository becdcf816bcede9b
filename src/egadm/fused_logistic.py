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
from typing import Optional

import numpy as np

from .linalg import spectral_norm_sq
from .operators import l1_prox
from .problem import (
    Coupling, LinearMap, ProxBlock, SmoothBlock, TwoBlockProblem, frozen_copy, identity_map,
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
    every later solve of this object without going stale;
    ``dataclasses.replace`` makes a new instance with its own set-up.
    Instances compare by identity: the generated ``__eq__`` would compare
    the rebuilt arrays."""

    A: np.ndarray = _DataFromAux()
    labels: np.ndarray
    xhat: np.ndarray
    c_true: float
    seed: int
    pattern: str = "custom"

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
            dim=self.n + 1,
            evaluate=functools.partial(_loss, data),
            gradient=_logistic_gradient(data),
            lipschitz_constant=self.lipschitz,
            project=lambda z: z,
        )

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


def _logistic_gradient(data):
    """The gradient in z of ``_loss(data, z)``, one product each way with
    the augmented matrix: ``z -> (data.T @ (1 - sigmoid(data @ z))) / -m``.

    Its operands are bound once, bit for bit the same as that formula:
    the products as ``data.dot`` and ``data.T.dot``, the same gemv as
    ``@`` without the ``matmul`` ufunc's dispatch, and 1 and -m as
    read-only 0-d arrays, since a ufunc converts a Python number on every
    call (about 0.3 us each).
    """
    margins, back = data.dot, data.T.dot
    neg_m = frozen_copy(-data.shape[0])

    def gradient(z):
        return back(_ONE - _sigmoid(margins(z))) / neg_m

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

    Each product writes its parts into one fresh output array.
    lmax(B^T B) = 1 + lmax(L^T L) = 3 + 2cos(pi/n): L^T L is the path
    Laplacian, eigenvalues 2 - 2cos(k pi/n) for k < n (Strang, "The
    Discrete Cosine Transform", SIAM Review 1999)."""

    def matvec(z):
        out = np.empty((2 * n - 1,) + z.shape[1:])
        np.negative(z[:n], out=out[:n])
        np.subtract(z[1:n], z[: n - 1], out=out[n:])
        return out

    def rmatvec(v):
        out = np.empty((n + 1,) + v.shape[1:])
        np.negative(v[:n], out=out[:n])
        out[1:n] += v[n:]
        out[: n - 1] -= v[n:]
        out[n] = 0.0
        return out

    return LinearMap((2 * n - 1, n + 1), matvec, rmatvec, 3.0 + 2.0 * np.cos(np.pi / n))


@dataclass(frozen=True)
class FusedLogisticConfig:
    """Penalty weights and step size.  Only ``solve_fused`` reads
    ``gamma`` (``None`` selects it automatically from the problem's
    Lipschitz data); ``as_problem`` ignores it."""

    alpha: float = 5e-4
    beta: float = 5e-2
    gamma: Optional[float] = None

    def __post_init__(self):
        for name in ("alpha", "beta"):  # True would pass as 1.0
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError("penalty weights must be nonnegative and finite")


def as_problem(inst, cfg):
    """Two-block form of the fused logistic program.

    The nonsmooth block stacks (x, w); its x-step is ``l1_prox`` of the
    weights ``[alpha]*n + [beta]*(n-1)``.  Only the weights and the prox
    depend on ``cfg`` (``cfg.gamma`` is not read), so only they are built
    per call.  The smooth block stacks (y, c) and takes its gradient from
    one product each way with the augmented data matrix; the coupling
    enforces x = y and w = L y through A = I and ``B = fused_coupling(n)``,
    two structured maps, so nothing of size n^2 is stored.  Both are the
    instance's cached ``smooth_block`` and ``coupling``, shared by every
    config.
    """
    n = inst.n
    weights = np.concatenate([np.full(n, float(cfg.alpha)), np.full(n - 1, float(cfg.beta))])
    prox = ProxBlock(
        dim=weights.size,
        evaluate=lambda v: float(
            cfg.alpha * np.sum(np.abs(v[:n])) + cfg.beta * np.sum(np.abs(v[n:]))
        ),
        solve_subproblem=l1_prox(weights),
    )
    return TwoBlockProblem(prox, inst.smooth_block, inst.coupling)


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
    if n < 1000:
        raise ValueError("the simple block pattern needs n >= 1000")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    m = n // 2 if m is None else int(m)
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
    if n < 126:
        raise ValueError("the narrow block pattern needs n >= 126")
    if m < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
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


def stop_rule(tol):
    """The fused stop rule: the constraint residual at the midpoint (the
    new iterate for the plain-gradient variants) satisfies ``max(|x -
    y_mid|, |w - L y_mid|) < tol`` componentwise.  Unlike the solver's
    default rule it ignores the (y, lam) movement.  A NaN residual never
    stops the run.  ``np.maximum.reduce(v, None)`` is ``v.max()`` without
    its Python-level wrapper."""
    max_reduce = np.maximum.reduce
    return lambda info: max_reduce(np.abs(info.residual), None) < tol


def solve_fused(inst, cfg, variant=VariantKind.EGAL, **settings):
    """``solve`` on ``as_problem(inst, cfg)`` with ``stop_rule``.

    ``settings`` are further ``SolverConfig`` fields (``tol``,
    ``max_iters``, ``monitor_certificate``); any not given
    keeps ``SolverConfig``'s default.  The step size is ``cfg.gamma``.  The
    run stops by ``stop_rule(tol)`` or at the iteration cap.
    """
    config = SolverConfig(variant=variant, gamma=cfg.gamma, **settings)
    return solve(as_problem(inst, cfg), config, stop_rule=stop_rule(config.tol))
