"""Dense linear-algebra kernel: spectral-norm estimation by power iteration."""

import numpy as np


class SpectralNormError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate so far."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def spectral_norm_sq(mat, tol=1e-10, max_iters=5000):
    """Estimate the largest eigenvalue of ``mat.T @ mat``.

    Power iteration on the Gram matrix, stopped when the Rayleigh
    quotient's relative change drops below ``tol``.  The start vector is
    deterministic (all-ones blended with a small fixed-seed Gaussian) so
    repeated runs are reproducible.  The blend matters: a pure all-ones
    start can be an exact non-dominant eigenvector (the difference
    operator's Gram matrix is one such case) and would stagnate there.
    If the start lies in the null space (iterates collapse to exactly
    zero), the iteration restarts once from a second seeded vector.

    Raises
    ------
    SpectralNormError
        If the relative-change criterion is not met within ``max_iters``;
        the exception's ``estimate`` attribute holds the best value.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.shape[1]
    v = np.ones(n) + 1e-2 * np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    restarted = False
    for _ in range(max_iters):
        w = a.T @ (a @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            if restarted:
                return 0.0
            v = np.random.default_rng(1).standard_normal(n)
            v /= np.linalg.norm(v)
            restarted = True
            continue
        new_est = float(v @ w)
        v = w / norm_w
        if abs(new_est - est) <= tol * max(abs(new_est), np.finfo(float).tiny):
            return new_est
        est = new_est
    raise SpectralNormError(
        f"power iteration did not converge within {max_iters} iterations", est
    )
