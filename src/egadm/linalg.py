"""Dense linear-algebra kernel: the exact squared spectral norm."""

import numpy as np


class SpectralNormError(RuntimeError):
    """Kept for importers only; ``spectral_norm_sq`` no longer raises it."""


def spectral_norm_sq(mat):
    """Largest eigenvalue of ``mat.T @ mat``, i.e. the squared largest
    singular value, from one LAPACK SVD.

    Exact to rounding, so callers that need an upper bound (a Lipschitz
    constant, a unit-norm rescaling) never get a value from below.

    Raises
    ------
    ValueError
        If ``mat`` is not a nonempty 2-d matrix or has non-finite entries.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(a, 2)) ** 2
