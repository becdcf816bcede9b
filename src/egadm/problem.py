"""Two-block problem model: a prox-friendly block, a smooth block, and a
linear coupling ``A x + B y = b`` between them.

The solver core only touches the nonsmooth block through its structured
proximal subproblem and the smooth block through its gradient, so both are
supplied as callables bundled with their dimensions.  The coupling's A
and B are dense matrices or ``LinearMap``s that declare their own norm.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import spectral_norm_sq


@dataclass(frozen=True)
class ProxBlock:
    """Nonsmooth block f over its constraint set X.

    ``solve_subproblem(offset, lam, gamma)`` must return the minimizer
    over X of

        f(x) - <lam, A x + offset> + (gamma/2) ||A x + offset||^2

    where ``offset`` stands for ``B y - b`` at the current y: the paper's
    x-step with its proximal term H = 0.  It must not write into its
    arguments: with ``B = identity_map(n)`` and ``b = 0``, ``offset`` is
    the iterate y itself.
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


def _product(M):
    """``v -> M @ v`` as one bound callable: no wrapper frame around it.
    A dense matrix's is ``M.dot``, the same gemv as ``@`` with less dispatch."""
    return M.matvec if isinstance(M, LinearMap) else M.dot


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
    top eigenvalue of its smaller Gram matrix, exact to rounding).
    ``b_is_zero`` records whether every entry of b is +0.0, so that
    subtracting b would return its operand bit for bit (``v - (-0.0)``
    turns ``-0.0`` into ``+0.0``, so a negative zero does not count).
    Dense A, B and b are kept as read-only copies, so no cached value can
    go stale; a ``LinearMap`` is kept as given.  Each product is bound
    once, to a ``LinearMap``'s ``matvec`` or the dense matrix's ``dot``
    (the same gemv as ``@``, bit for bit, without the ``matmul`` ufunc's
    dispatch), so ``apply_*`` is one call on top of it.  The solver calls
    the ``apply_*`` methods, so a subclass's overrides see every product."""

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
        lmax = B.norm_sq if isinstance(B, LinearMap) else spectral_norm_sq(B)
        b_is_zero = not np.count_nonzero(b.view(np.uint64))  # every bit clear: +0.0 only
        Bt = B.T
        for name, value in zip(
            ("A", "B", "b", "Bt", "lmax_btb", "b_is_zero", "_a", "_b", "_bt"),
            (A, B, b, Bt, lmax, b_is_zero, _product(A), _product(B), _product(Bt)),
        ):
            object.__setattr__(self, name, value)

    def apply_a(self, x):
        return self._a(x)

    def apply_b(self, y):
        return self._b(y)

    def apply_bt(self, v):
        return self._bt(v)

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
