"""Dense linear-algebra kernel: the exact squared spectral norm.

``lmax(M^T M)`` is the top eigenvalue of the smaller Gram matrix,
``M M^T`` when M is wide and ``M^T M`` when it is tall (both nonzero
spectra agree).  Forming the Gram matrix squares the condition number,
which costs accuracy only at the small end of the spectrum: the top
eigenvalue keeps a relative error of a few units in the last place
(Golub & Van Loan, *Matrix Computations*, 4th ed., §8.6).

The eigenvalue comes from one direct call of LAPACK's ``dsyevr`` through
``scipy.linalg.lapack``, with the arguments ``scipy.linalg.eigh`` passes
it when asked for the top eigenvalue alone from its "evr" routine: the
top index only (``range="I"``, ``il = iu = k``), the lower triangle, no
eigenvectors, and the workspace sizes ``dsyevr_lwork`` gives.  The same
routine on the same triangle with the same workspace computes the same
bits, and the call skips ``eigh``'s argument checks and routine lookup.
"""

import numpy as np


class SpectralNormError(RuntimeError):
    """Kept for importers only; ``spectral_norm_sq`` no longer raises it."""


def spectral_norm_sq(mat):
    """Largest eigenvalue of ``mat.T @ mat``, i.e. the squared largest
    singular value, from the top eigenvalue of the smaller Gram matrix
    (LAPACK ``dsyevr``, called directly, on the top index only, in place:
    the one full-size temporary is the Gram matrix, beside its finiteness
    mask).

    Exact to rounding, so callers that need an upper bound (a Lipschitz
    constant, a unit-norm rescaling) never get a value from below.

    Raises
    ------
    ValueError
        If ``mat`` is not a nonempty 2-d matrix, has non-finite entries,
        or its Gram matrix or lmax overflows float64; a failure inside
        ``dsyevr`` is an ``np.linalg.LinAlgError``, a ValueError too.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    if not np.all(np.isfinite(gram)):
        raise ValueError("Gram matrix has non-finite entries: lmax(M^T M) overflows float64")
    # imported here, so that a process that never needs a spectral norm
    # (loading and solving a basis-pursuit directory) never imports scipy
    from scipy.linalg.lapack import dsyevr, dsyevr_lwork

    # The Gram matrix is exactly symmetric: numpy forms ``a @ a.T`` of a
    # contiguous ``a`` with syrk and mirrors the triangle, and of a strided
    # one entry by entry, the same products summed in the same order.  So
    # its F-ordered view ``gram.T`` holds the same lower triangle, which is
    # all LAPACK reads, and f2py passes that view without the copy it makes
    # of a C-ordered argument: ``overwrite_a`` then really works in place.
    # The other arguments are eigh's (module docstring).
    k = gram.shape[0]
    work, iwork, _ = dsyevr_lwork(k, lower=1)
    w, _, _, _, info = dsyevr(
        gram.T, compute_v=0, range="I", lower=1, il=k, iu=k,
        lwork=int(work), liwork=int(iwork), overwrite_a=1,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info = {info}")
    lmax = float(w[0])
    if not np.isfinite(lmax):
        raise ValueError("lmax(M^T M) overflows float64")
    return lmax
