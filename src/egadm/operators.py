"""Concrete operators used by the specializations: soft-thresholding,
projection onto an affine set, and the closed-form weighted l1 x-step."""

import numpy as np


def shrink(z, tau):
    """Soft-threshold ``z`` componentwise at level ``tau``.

    Returns ``sign(z) * max(|z| - tau, 0)``, the exact minimizer of
    ``tau*||x||_1 + (1/2)||x - z||^2``.  Components with ``|z| == tau``
    map to zero.  ``tau`` is a scalar or an array of per-component
    thresholds broadcast against ``z``, nonnegative in every entry.
    """
    # written so that a NaN threshold fails the test
    if not ((tau >= 0).all() if isinstance(tau, np.ndarray) else tau >= 0):
        raise ValueError("threshold must be nonnegative")
    return shrink_unchecked(np.asarray(z, dtype=float), tau)


def shrink_unchecked(z, tau):
    """``shrink`` of a float array ``z`` without validating ``tau``: the
    caller has checked that every threshold is nonnegative."""
    # not np.copysign: at z = -0.0 it returns -0.0, where np.sign(-0.0) is +0.0
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


class AffineProjector:
    """Euclidean projection onto ``{w : A w = rhs}`` for full-row-rank A.

    Everything is computed once at construction: the Cholesky factor L of
    ``A A^T``, ``M = A^T (A A^T)^{-1}`` and ``c = M rhs``.  Each call
    returns ``w - M (A w) + c``, two m x n matvecs and no triangular
    solves.  The matvecs go through ``M.dot`` and ``A.dot``, bound once
    here: the same gemv as ``@``, bit for bit, without the ``matmul``
    ufunc's dispatch, which costs more than the product at these sizes.

    Raises ValueError at construction if the shapes disagree or A or rhs
    has a non-finite entry, and ``np.linalg.LinAlgError`` (a ValueError
    subclass) if A is rank deficient: ``A A^T`` has no Cholesky factor, or
    ``A M`` misses the identity by more than 1e-2 in some entry.
    """

    def __init__(self, A, rhs):
        A = np.asarray(A, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if A.ndim != 2 or rhs.shape != (A.shape[0],):
            raise ValueError("A must be a matrix with one rhs entry per row")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
            raise ValueError("A and rhs must have finite entries")
        self.A = A
        # M^T = (A A^T)^{-1} A = L^{-T} L^{-1} A.  Inverting the m x m
        # factor once is cheaper here than two solves with n right-hand sides.
        inv_lower = np.linalg.inv(np.linalg.cholesky(A @ A.T))
        self._M = (inv_lower.T @ (inv_lower @ A)).T
        # Cholesky passes some rank-deficient A on a rounding-sized pivot; their
        # A M misses I by 0.25 or more, a full-rank A's by 2e-3 even at cond 1e7
        miss = float(np.max(np.abs(A @ self._M - np.eye(A.shape[0]))))
        if not miss <= 1e-2:  # NaN fails the test too
            raise np.linalg.LinAlgError(f"A is rank deficient: max|A M - I| = {miss:.2g}")
        self._c = self._M @ rhs
        self._mdot, self._adot = self._M.dot, A.dot

    def __call__(self, w):
        return w - self._mdot(self._adot(w)) + self._c


def l1_prox(weights):
    """The x-step of ``f(x) = sum_j weights_j |x_j|`` with identity coupling:
    ``solve_subproblem(offset, lam, gamma)`` minimizes over x

        f(x) - <lam, x + offset> + (gamma/2)||x + offset||^2

    by one shrink of ``lam/gamma - offset`` at ``weights/gamma``; a gamma
    that is not positive and finite is a ValueError.  It keeps no state, so
    solves with different gammas may share it.  ``weights``, a nonnegative
    float or float array that broadcasts against x, is not checked.
    """

    def solve_subproblem(offset, lam, gamma):
        # written so that a NaN gamma fails the test
        if not 0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        return shrink_unchecked(np.asarray(lam / gamma - offset, dtype=float), weights / gamma)

    return solve_subproblem
