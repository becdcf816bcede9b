"""Dense linear-algebra kernel: the exact squared spectral norm.

``lmax(M^T M)`` is the top eigenvalue of the smaller Gram matrix,
``M M^T`` when M is wide and ``M^T M`` when it is tall (both nonzero
spectra agree).  Forming the Gram matrix squares the condition number,
which costs accuracy only at the small end of the spectrum: the top
eigenvalue keeps a relative error of a few units in the last place
(Golub & Van Loan, *Matrix Computations*, 4th ed., §8.6).

The eigenvalue comes from ``scipy.linalg.eigh``'s "evr" driver, asked
for the top index only, without eigenvectors.

``blas_threads`` asks the OpenBLAS that numpy's products run in how many
threads it uses now.
"""

import functools

import numpy as np


class SpectralNormError(RuntimeError):
    """Kept for importers only; ``spectral_norm_sq`` no longer raises it."""


def spectral_norm_sq(mat):
    """Largest eigenvalue of ``mat.T @ mat``, i.e. the squared largest
    singular value, from the top eigenvalue of the smaller Gram matrix
    (``eigh``'s "evr" driver on the top index only, in place: the one
    full-size temporary is the Gram matrix, beside its finiteness mask).

    Exact to rounding, so callers that need an upper bound (a Lipschitz
    constant, a unit-norm rescaling) never get a value from below.

    Raises
    ------
    ValueError
        If ``mat`` is not a nonempty 2-d matrix, has non-finite entries,
        or its Gram matrix or lmax overflows float64; a failure inside
        LAPACK is an ``np.linalg.LinAlgError``, a ValueError too.
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
    # imported here: a process that needs no spectral norm (solving a bp
    # directory, or a fused one that stores its constant) never imports scipy
    from scipy.linalg import eigh

    # The Gram matrix is exactly symmetric: numpy forms ``a @ a.T`` of a
    # contiguous ``a`` with syrk and mirrors the triangle, and of a strided
    # one entry by entry, the same products summed in the same order.  So
    # its F-ordered view ``gram.T`` holds the same lower triangle, which is
    # all LAPACK reads, and f2py passes that view without the copy it makes
    # of a C-ordered argument: ``overwrite_a`` then really works in place.
    k = gram.shape[0]
    w = eigh(gram.T, eigvals_only=True, subset_by_index=(k - 1, k - 1), driver="evr",
             overwrite_a=True, check_finite=False)
    lmax = float(w[0])
    if not np.isfinite(lmax):
        raise ValueError("lmax(M^T M) overflows float64")
    return lmax


# ``openblas_get_num_threads`` as OpenBLAS builds name it: plain, and with
# the prefix and 64-bit-integer suffix of the scipy-openblas that numpy's
# wheels bundle (``scipy_openblas_get_num_threads64_``)
_THREAD_COUNT_SYMBOLS = tuple(
    f"{prefix}openblas_get_num_threads{suffix}" for prefix in ("", "scipy_") for suffix in ("", "64_")
)


@functools.cache
def _openblas_thread_count():
    """OpenBLAS's ``get_num_threads`` as a ctypes function, or None.

    It is looked up through numpy's own extension module: the dynamic
    linker then searches that module and the libraries it was linked with,
    so the function found is the one of the OpenBLAS numpy calls, not of
    another copy in the process (scipy's wheels bundle their own).  None
    when numpy was built on another BLAS, or where a symbol cannot be
    looked up this way.  Resolved on the first call only, so a process
    that never asks pays nothing for it."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in _THREAD_COUNT_SYMBOLS:
        func = getattr(lib, name, None)
        if func is not None:
            func.restype, func.argtypes = ctypes.c_int, ()
            return func
    return None


def blas_threads():
    """The number of threads numpy's OpenBLAS runs a product in now
    (``OPENBLAS_NUM_THREADS`` at start-up, or the count set since), or None
    when there is no OpenBLAS to ask.  About 0.3 us a call after the first."""
    count = _openblas_thread_count()
    return None if count is None else count()
