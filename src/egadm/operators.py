"""Concrete operators used by the specializations: soft-thresholding,
projection onto an affine set, and the closed-form l1 x-subproblem."""

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class MetricH:
    """Proximal metric for the x-subproblem.

    Either the zero metric (no proximal term, valid when A is the
    identity) or ``H = tau*I - gamma*A^T A``, which cancels the Gram term
    of the quadratic penalty; the latter needs ``tau > gamma *
    lmax(A^T A)`` to keep H positive definite.
    """

    kind: str
    tau: Optional[float] = None

    _KINDS = ("zero", "scaled_identity_minus_gram")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "scaled_identity_minus_gram":
            if self.tau is None or not 0 < self.tau < np.inf:
                raise ValueError("scaled_identity_minus_gram needs a finite tau > 0")
        elif self.tau is not None:
            raise ValueError("zero metric takes no tau")

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def scaled_identity_minus_gram(cls, tau):
        return cls("scaled_identity_minus_gram", float(tau))


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
    subclass) if A is rank deficient, so that ``A A^T`` has no Cholesky
    factor.
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
        self._c = self._M @ rhs
        self._mdot, self._adot = self._M.dot, A.dot

    def __call__(self, w):
        return w - self._mdot(self._adot(w)) + self._c


def solve_l1_subproblem(alpha, gamma, metric, x_prev, offset, lam, A=None):
    """Exact minimizer of the l1 x-subproblem.

    Minimizes, over x,

        alpha*||x||_1 - <lam, A x + offset> + (gamma/2)||A x + offset||^2
            + (1/2)||x - x_prev||_H^2

    with ``offset = B y - b``.  Supported combinations: ``A=None``
    (identity coupling) with either metric, or a general A with the
    gram-cancelling metric, which collapses the quadratic to
    ``(tau/2)||x - v||^2`` so the minimizer is a single shrink.  A gamma
    that is not positive and finite is a ValueError.
    """
    # written so that a NaN gamma fails the test
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if A is None:
        anchor = lam / gamma - offset
        if metric.kind == "zero":
            return shrink(anchor, alpha / gamma)
        tau = metric.tau
        v = (gamma * anchor + (tau - gamma) * x_prev) / tau
        return shrink(v, alpha / tau)
    if metric.kind != "scaled_identity_minus_gram":
        raise ValueError(
            "a non-identity A requires the gram-cancelling metric "
            "H = tau*I - gamma*A^T A"
        )
    tau = metric.tau
    v = (
        A.T @ lam
        - gamma * (A.T @ offset)
        + tau * x_prev
        - gamma * (A.T @ (A @ x_prev))
    ) / tau
    return shrink(v, alpha / tau)
