"""Two-block problem model: a prox-friendly block, a smooth block, and a
linear coupling ``A x + B y = b`` between them.

The solver core only touches the nonsmooth block through its structured
proximal subproblem and the smooth block through its gradient, so both are
supplied as callables; the coupling's A and B are ``LinearMap``s that
declare their own norm, and their column counts are the sizes of x and y.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ProxBlock:
    """Nonsmooth block f over its constraint set X.

    ``solve_subproblem(offset, lam, gamma)`` must return the minimizer
    over X of

        f(x) - <lam, A x + offset> + (gamma/2) ||A x + offset||^2

    where ``offset`` stands for ``B y - b`` at the current y: the paper's
    x-step with its proximal term H = 0.  It must not write into its
    arguments: with ``B = identity_map(n)`` and ``b = 0``, ``offset`` is
    the iterate y itself.  x has the coupling's ``A.shape[1]`` entries."""

    evaluate: Callable[[np.ndarray], float]
    solve_subproblem: Callable


def _check_bound(name, value, positive=False):
    """``value`` as the Python float its holder stores, a ValueError naming
    it unless that float is in [0, inf) ((0, inf) if ``positive``) and
    ``value`` is no bool, NaN, string, None, list or array that is not 0-d."""
    held = np.nan
    try:
        if getattr(value, "ndim", 0) == 0 and not isinstance(value, (bool, np.bool_)) and 0.0 <= value:
            held = float(value)  # a long double may round to 0 or overflow to inf
    except (TypeError, ValueError, OverflowError):
        pass
    if (0.0 < held if positive else 0.0 <= held) and held < np.inf:
        return held
    sign = "positive" if positive else "nonnegative"
    raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def _check_gamma(gamma):
    """A step size: None (chosen automatically) or a finite positive float."""
    return None if gamma is None else _check_bound("gamma", gamma, positive=True)


def _is_dimension(k):
    """A nonnegative integer; a bool, a float such as 2.5 or a negative is none."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 0


def _check_dimensions(**counts):
    """A ValueError naming the first of ``counts`` that fails ``_is_dimension``."""
    for name, k in counts.items():
        if not _is_dimension(k):
            raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")


@dataclass(frozen=True)
class SmoothBlock:
    """Smooth block g over Y, exposed through value, gradient, and projection.

    ``lipschitz_constant`` is a declared analytic bound on the gradient's
    Lipschitz constant, not an estimate; each specialization supplies it.
    The constant is no bool, and y has the coupling's ``B.shape[1]`` entries.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    project: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "lipschitz_constant",
                           _check_bound("lipschitz_constant", self.lipschitz_constant))


@dataclass(frozen=True)
class LinearMap:
    """A matrix M of ``shape`` (two nonnegative integers) given by its
    products ``M @ v`` and ``M.T @ w`` and a declared upper bound ``norm_sq``
    on ``lmax(M^T M)``.  The products also take a matrix of columns, so
    ``np.asarray(M)`` is ``M @ I``, a new dense matrix; asked for no copy
    (``copy=False``), it raises ValueError, as NumPy's ``__array__`` says."""

    shape: tuple
    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray]
    norm_sq: float

    def __post_init__(self):
        shape = self.shape
        if not (isinstance(shape, tuple) and len(shape) == 2 and all(map(_is_dimension, shape))):
            raise ValueError(f"shape must be two nonnegative integers, got {shape!r}")
        object.__setattr__(self, "norm_sq", _check_bound("norm_sq", self.norm_sq))

    def __matmul__(self, v):
        return self.matvec(v)

    @property
    def T(self):
        return LinearMap(self.shape[::-1], self.rmatvec, self.matvec, self.norm_sq)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a LinearMap has no dense array to share: np.asarray(M) builds M @ I")
        return np.asarray(self.matvec(np.eye(self.shape[1])), dtype=dtype)


def identity_map(n, sign=1.0):
    """``sign * I`` of size n, sign +1 or -1 (no bool): products return v or -v."""
    ops = {1.0: lambda v: v, -1.0: np.negative}
    if isinstance(sign, (bool, np.bool_)) or sign not in ops:
        raise ValueError(f"identity_map sign must be +1 or -1, got {sign!r}")
    op = ops[sign]
    return LinearMap((n, n), op, op, 1.0)


def frozen_copy(m):
    """A read-only float copy of ``m`` (its C or Fortran order kept)."""
    out = np.array(m, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Coupling:
    """Linear constraint data ``A x + B y = b``: A and B are ``LinearMap``s,
    kept as given; a dense matrix M becomes one as
    ``LinearMap(M.shape, M.dot, M.T.dot, spectral_norm_sq(M))``.

    ``b_is_zero`` records whether every entry of b is +0.0, so that
    subtracting b would return its operand bit for bit (``v - (-0.0)``
    turns ``-0.0`` into ``+0.0``, so a negative zero does not count); b is
    a read-only copy, so the flag cannot go stale.

    ``apply_a``, ``apply_b`` and ``apply_bt`` are read-only properties
    that return ``A.matvec``, ``B.matvec`` and ``B.rmatvec`` themselves,
    so a caller that binds one calls the map's own product, with no
    forwarding frame between.  A subclass may override them with methods
    (or a class-level patch may replace them): attribute lookup finds the
    override first, and ``super().apply_a`` still returns the product."""

    A: LinearMap
    B: LinearMap
    b: np.ndarray

    def __post_init__(self):
        A, B, b = self.A, self.B, frozen_copy(self.b)
        if not (isinstance(A, LinearMap) and isinstance(B, LinearMap)):
            raise TypeError("A and B must be LinearMaps; a dense matrix M becomes one as "
                            "LinearMap(M.shape, M.dot, M.T.dot, spectral_norm_sq(M))")
        if b.ndim != 1:
            raise ValueError("b must be a vector")
        if A.shape[0] != B.shape[0] or A.shape[0] != b.shape[0]:
            raise ValueError("A, B, b row dimensions disagree")
        object.__setattr__(self, "b", b)
        # every bit clear: +0.0 only
        object.__setattr__(self, "b_is_zero", not np.count_nonzero(b.view(np.uint64)))

    @property
    def apply_a(self):
        return self.A.matvec

    @property
    def apply_b(self):
        return self.B.matvec

    @property
    def apply_bt(self):
        return self.B.rmatvec

    def residual(self, x, y):
        """Primal residual ``A x + B y - b``."""
        return self.apply_a(x) + self.apply_b(y) - self.b


@dataclass(frozen=True)
class TwoBlockProblem:
    """min f(x) + g(y)  s.t.  A x + B y = b,  x in X,  y in Y."""

    prox_block: ProxBlock
    smooth_block: SmoothBlock
    coupling: Coupling


def lagrangian(problem, x, y, lam):
    """f(x) + g(y) - <lam, A x + B y - b>."""
    r = problem.coupling.residual(x, y)
    return (
        float(problem.prox_block.evaluate(x))
        + float(problem.smooth_block.evaluate(y))
        - float(lam @ r)
    )


def kkt_lipschitz_bound(problem):
    """Lipschitz constant of the stacked map in (y, lam).

    Equals ``sqrt(max(2 Lg^2 + lmax, 2 lmax))``: Lg is the smooth block's
    declared gradient Lipschitz constant, lmax = lmax(B^T B) the coupling's
    declared ``B.norm_sq``, an upper bound, so the bound is never an
    estimate from below.  Nothing here computes a spectral norm.
    The certificate needs ``gamma <= 1 / (2 * bound)``.
    """
    lg = problem.smooth_block.lipschitz_constant
    lmax = problem.coupling.B.norm_sq
    return math.sqrt(max(2.0 * lg * lg + lmax, 2.0 * lmax))
