"""Concrete operators used by the specializations: projection onto an
affine set, and the closed-form weighted l1 x-step, a soft-threshold."""

import math

import numpy as np

from .problem import frozen_copy

# a read-only 0-d float64 operand: a Python float would be converted on every call
_ZERO = frozen_copy(0.0)


class AffineProjector:
    """Euclidean projection onto ``{w : A w = rhs}`` for full-row-rank A.

    Built once from the reduced QR factorization ``A^T = Q R`` (Golub &
    Van Loan, *Matrix Computations*, 4th ed., §5.3), each call returns
    ``w - Q (Q^T w) + c`` with ``c = Q R^{-T} rhs``: two m x n matvecs, on
    the set to machine precision whatever cond(A) is.  ``Q^T`` is kept
    C-ordered like A, and the matvecs go through ``Q^T.dot`` and ``Q.dot``,
    bound once: the same gemv as ``@``, bit for bit, without the ``matmul``
    ufunc's dispatch, which costs more than the product at these sizes.

    Raises ValueError at construction if the shapes disagree or A or rhs
    has a non-finite entry, and ``np.linalg.LinAlgError`` (a ValueError
    subclass) if A is rank deficient: fewer than m of R's diagonal entries
    exceed ``max(m, n) * eps * max_j |R_jj|`` in magnitude, the tolerance
    of ``np.linalg.matrix_rank``.
    """

    def __init__(self, A, rhs):
        A = np.asarray(A, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if A.ndim != 2 or rhs.shape != (A.shape[0],):
            raise ValueError("A must be a matrix with one rhs entry per row")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
            raise ValueError("A and rhs must have finite entries")
        self.A = A
        q, r = np.linalg.qr(A.T)
        diag = np.abs(np.diagonal(r))  # min(m, n) entries, so m > n is deficient
        rank = np.count_nonzero(diag > max(A.shape) * np.finfo(float).eps * diag.max(initial=0.0))
        if rank < len(rhs):
            raise np.linalg.LinAlgError(f"A is rank deficient: numerical rank {rank} < {len(rhs)} rows")
        self._qt = np.ascontiguousarray(q.T)
        self._c = q @ np.linalg.solve(r.T, rhs)
        self._qt_dot, self._q_dot = self._qt.dot, self._qt.T.dot

    def __call__(self, w):
        # ``w - Q (Q^T w) + c`` in that order, each step written over the
        # fresh product, whose dtype (float64, or w's if wider) it keeps
        out = self._q_dot(self._qt_dot(w))
        np.subtract(w, out, out=out)
        out += self._c
        return out


def l1_prox(weights):
    """The x-step of ``f(x) = sum_j weights_j |x_j|`` with identity coupling:
    ``solve_subproblem(offset, lam, gamma)`` minimizes over x

        f(x) - <lam, x + offset> + (gamma/2)||x + offset||^2

    by the soft-threshold ``sign(a) * max(|a| - weights/gamma, 0)`` of
    ``a = lam/gamma - offset``.  ``weights``, a nonnegative float or float
    array that broadcasts against x, is checked once, here: a negative or
    NaN weight is a ValueError; so, on each call, is a gamma that is not
    positive and finite.  It keeps the weights as a Python float or a
    read-only float copy, and no other state but a bound computed from
    them, so solves with different gammas may share it.  ``offset`` and
    ``lam`` are real 1-d arrays; it never writes into them (they may be
    read-only), and a threshold that overflows is inf, silently.

    The threshold is an array, 0-d for a scalar weight, and the zero a
    read-only 0-d array: a ufunc converts a Python-float operand on every
    call, about 0.3 us each at these sizes, for the same bits.
    """
    # one reduction to the least weight, NaN if any is NaN, so that NaN fails the test
    if not np.minimum.reduce(weights, None, float, initial=np.inf) >= 0:
        raise ValueError("weights must be nonnegative")
    weights = float(weights) if np.ndim(weights) == 0 else frozen_copy(weights)
    # float64 ends below 2**1024, so ``weights / gamma`` can overflow only
    # for a gamma below this bound; only there is NumPy's overflow warning
    # silenced, so that an array weight gives inf silently as a Python float does
    overflow_gamma = math.ldexp(np.max(weights, initial=0.0, where=np.isfinite(weights)), -1020)
    # bound once, as the solver binds its callables: no module lookups per call
    sign, maximum, absolute, multiply, asarray = np.sign, np.maximum, np.abs, np.multiply, np.asarray

    def solve_subproblem(offset, lam, gamma):
        # written so that a NaN gamma fails the test
        if not 0 < gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if gamma < overflow_gamma:
            with np.errstate(over="ignore"):
                threshold = asarray(weights / gamma)
        else:
            threshold = asarray(weights / gamma)
        a = lam / gamma - offset
        shrunk = maximum(absolute(a) - threshold, _ZERO)
        # ``sign(a) * shrunk``, the sign written over the fresh anchor (its
        # own dtype) and the product over the fresh shrink (float64 or wider).
        # Not np.copysign: at a = -0.0 it returns -0.0, where np.sign(-0.0) is +0.0
        return multiply(sign(a, a), shrunk, shrunk)

    return solve_subproblem
