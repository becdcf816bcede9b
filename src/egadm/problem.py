"""Two-block problem model: a prox-friendly block, a smooth block, and a
linear coupling ``A x + B y = b`` between them.

The solver core only touches the nonsmooth block through its structured
proximal subproblem and the smooth block through its gradient, so both are
supplied as callables bundled with their dimensions.  The coupling's A
and B are dense matrices or ``LinearMap``s that declare their own norm.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import spectral_norm_sq


@dataclass(frozen=True)
class ProxBlock:
    """Nonsmooth block f over its constraint set X.

    ``solve_subproblem(x_prev, offset, lam, gamma, metric)`` must return
    the minimizer over X of

        f(x) - <lam, A x + offset> + (gamma/2) ||A x + offset||^2
             + (1/2) ||x - x_prev||_H^2

    where ``offset`` stands for ``B y - b`` at the current y and H is
    described by ``metric``.  It must not write into its arguments: with
    ``B = identity_map(n)`` and ``b = 0``, ``offset`` is the iterate y itself.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    solve_subproblem: Callable


def _check_bound(name, value):
    """A declared bound must be a number in [0, inf); NaN fails the test."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class SmoothBlock:
    """Smooth block g over Y, exposed through value, gradient, and projection.

    ``lipschitz_constant`` is a declared analytic bound on the gradient's
    Lipschitz constant, not an estimate; each specialization supplies it.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    project: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_bound("lipschitz_constant", self.lipschitz_constant)


@dataclass(frozen=True)
class LinearMap:
    """A matrix M given by its products ``M @ v`` and ``M.T @ w`` and a
    declared upper bound ``norm_sq`` on ``lmax(M^T M)``.  The products also
    take a matrix of columns, so ``np.asarray(M)`` is ``M @ I``."""

    shape: tuple
    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray]
    norm_sq: float

    def __post_init__(self):
        _check_bound("norm_sq", self.norm_sq)

    def __matmul__(self, v):
        return self.matvec(v)

    @property
    def T(self):
        return LinearMap(self.shape[::-1], self.rmatvec, self.matvec, self.norm_sq)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matvec(np.eye(self.shape[1])), dtype=dtype)


def identity_map(n, sign=1.0):
    """``sign * I`` of size n, sign +1 or -1: products return v or np.negative(v)."""
    ops = {1.0: lambda v: v, -1.0: np.negative}
    if sign not in ops:
        raise ValueError(f"identity_map sign must be +1 or -1, got {sign!r}")
    op = ops[sign]
    return LinearMap((n, n), op, op, 1.0)


def _norm_sq(M):
    """lmax(M^T M): a ``LinearMap``'s declared ``norm_sq``, else the exact
    top eigenvalue of the dense matrix's smaller Gram matrix."""
    return M.norm_sq if isinstance(M, LinearMap) else spectral_norm_sq(M)


def frozen_copy(m):
    """A read-only float copy of ``m`` (its memory layout kept)."""
    out = np.array(m, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Coupling:
    """Linear constraint data ``A x + B y = b``; A and B are dense or ``LinearMap``s.

    Caches ``Bt`` = B^T and ``lmax_btb`` = lmax(B^T B), which a ``LinearMap``
    B declares and a dense B gets exactly from ``spectral_norm_sq`` (the
    top eigenvalue of its smaller Gram matrix, exact to rounding);
    ``lmax_ata`` = lmax(A^T A) likewise, taken on first use.  ``b_is_zero``
    records whether every entry of b is +0.0, so that subtracting b would
    return its operand bit for bit (``v - (-0.0)`` turns ``-0.0`` into
    ``+0.0``, so a negative zero does not count).  Dense A, B and b are
    kept as read-only copies, so no cached value can go stale; a
    ``LinearMap`` is kept as given."""

    A: np.ndarray | LinearMap
    B: np.ndarray | LinearMap
    b: np.ndarray

    def __post_init__(self):
        A, B = (m if isinstance(m, LinearMap) else frozen_copy(m) for m in (self.A, self.B))
        b = frozen_copy(self.b)
        if len(A.shape) != 2 or len(B.shape) != 2 or b.ndim != 1:
            raise ValueError("A and B must be matrices, b a vector")
        if A.shape[0] != B.shape[0] or A.shape[0] != b.shape[0]:
            raise ValueError("A, B, b row dimensions disagree")
        lmax = _norm_sq(B)
        b_is_zero = not b.view(np.uint64).any()  # every bit clear: +0.0 only
        for name, value in zip(
            ("A", "B", "b", "Bt", "lmax_btb", "b_is_zero"), (A, B, b, B.T, lmax, b_is_zero)
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def lmax_ata(self):
        return _norm_sq(self.A)

    def apply_a(self, x):
        return self.A @ x

    def apply_b(self, y):
        return self.B @ y

    def apply_bt(self, v):
        return self.Bt @ v

    def residual(self, x, y):
        """Primal residual ``A x + B y - b``."""
        return self.apply_a(x) + self.apply_b(y) - self.b


@dataclass(frozen=True)
class TwoBlockProblem:
    """min f(x) + g(y)  s.t.  A x + B y = b,  x in X,  y in Y."""

    prox_block: ProxBlock
    smooth_block: SmoothBlock
    coupling: Coupling

    def __post_init__(self):
        if self.coupling.A.shape[1] != self.prox_block.dim:
            raise ValueError("A column count does not match the prox block")
        if self.coupling.B.shape[1] != self.smooth_block.dim:
            raise ValueError("B column count does not match the smooth block")


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
    ``lmax_btb`` (a ``LinearMap``'s declared ``norm_sq``, else the exact
    ``spectral_norm_sq``, the top eigenvalue of B's smaller Gram matrix),
    so the bound is never an estimate from below.
    The certificate needs ``gamma <= 1 / (2 * bound)``.
    """
    lg = problem.smooth_block.lipschitz_constant
    lmax = problem.coupling.lmax_btb
    return float(np.sqrt(max(2.0 * lg * lg + lmax, 2.0 * lmax)))
