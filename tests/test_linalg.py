import numpy as np
import pytest

from egadm.linalg import blas_threads, spectral_norm_sq
from oracles import c_ordered_spectral_norm_sq, jacobi_eigenvalues, run_pinned, traced_call


def test_spectral_norm_identity():
    assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(4.0, rel=1e-12)
    assert spectral_norm_sq(np.array([[2.0]])) == 4.0


# The Jacobi oracle stops once its off-diagonal Frobenius norm is below
# 1e-13 * max(1, max diagonal), which by Weyl's inequality moves no
# eigenvalue of these lmax >= 1 Gram matrices by more than 1.5e-13
# relative; rel=1e-12 leaves room for rounding.


def test_spectral_norm_matches_jacobi_oracle():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 8))
    expected = jacobi_eigenvalues(m.T @ m)[-1]
    assert spectral_norm_sq(m) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_transpose_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        a = spectral_norm_sq(m)
        b = spectral_norm_sq(m.T)
        assert a == pytest.approx(b, rel=1e-12)


def test_spectral_norm_difference_operator():
    # the all-ones direction is annihilated by the forward-difference operator
    n = 6
    diff = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    expected = jacobi_eigenvalues(diff.T @ diff)[-1]
    assert spectral_norm_sq(diff) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_when_ones_is_a_nondominant_eigenvector():
    # ones is an exact eigenvector of I + D^T D at eigenvalue 1, far below
    # the top of the spectrum
    n = 7
    diff = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    stacked = np.vstack([np.eye(n), diff])
    expected = jacobi_eigenvalues(stacked.T @ stacked)[-1]
    assert spectral_norm_sq(stacked) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm_sq(np.zeros((3, 4))) == 0.0


def test_spectral_norm_input_validation():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        spectral_norm_sq(np.ones(3))
    for bad in (np.nan, np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            spectral_norm_sq(m)


def test_spectral_norm_overflow_is_a_value_error():
    # lmax = 6e400 is past float64; the error names the overflow
    with pytest.raises(ValueError, match="Gram matrix has non-finite entries.*overflows float64"):
        spectral_norm_sq(np.full((2, 3), 1e200))
    with pytest.raises(ValueError, match="Gram matrix has non-finite entries.*overflows float64"):
        spectral_norm_sq(np.full((3, 2), 1e200))
    # here the Gram entries are finite (1.62e308) and only lmax = 3.24e308 overflows
    with pytest.raises(ValueError, match=r"^lmax\(M\^T M\) overflows float64"):
        spectral_norm_sq(np.full((2, 2), 0.9e154))
    # the largest finite case still comes back exact
    assert spectral_norm_sq(np.full((2, 3), 1e150)) == pytest.approx(6e300, rel=1e-12)


def _layouts():
    """Wide, tall and square matrices, each C-ordered, F-ordered and as a
    strided view, with the augmented matrix's shape of the fused benchmark
    among them; then random shapes over nine decades of scale."""
    rng = np.random.default_rng(7)
    for shape in ((1, 9), (9, 1), (5, 8), (8, 5), (6, 6), (40, 90), (90, 40), (500, 1001)):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
        yield f"{shape}", a
        yield f"{shape}-F", np.asfortranarray(a)
        yield f"{shape}-strided", np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[::2, ::3]
    yield "every-other", rng.standard_normal((30, 70))[::2, 1::2]
    # random shapes at scales from 1e-5 to 1e4, and a one-row and a
    # one-column matrix, whose Gram matrix is 1 x 1 (k = 1)
    for scale in (1e-5, 1e-2, 1.0, 1e2, 1e4):
        m = int(rng.integers(2, 120))
        for kind, shape in (("wide", (m, m + int(rng.integers(1, 80)))),
                            ("tall", (m + int(rng.integers(1, 80)), m)), ("square", (m, m))):
            yield f"random-{kind}-{shape}-x{scale:g}", rng.standard_normal(shape) * scale
        yield f"k=1-row-x{scale:g}", rng.standard_normal((1, 257)) * scale
        yield f"k=1-column-x{scale:g}", rng.standard_normal((257, 1)) * scale


@pytest.mark.parametrize("name, mat", list(_layouts()))
def test_spectral_norm_has_the_bits_of_the_c_ordered_eigensolve(name, mat):
    # handing dsyevr the F-ordered view of the Gram matrix, not a copy, with
    # the arguments eigh passes it, changes no bit of lmax, whatever the
    # input's shape, layout or scale
    assert np.float64(spectral_norm_sq(mat)).tobytes() == np.float64(
        c_ordered_spectral_norm_sq(mat)
    ).tobytes()


@pytest.mark.parametrize("shape", [(300, 400), (400, 300)])
def test_spectral_norm_solves_the_gram_matrix_in_place(shape):
    # the one full-size temporary is the 300 x 300 Gram matrix, beside its
    # 1-byte finiteness mask and dsyevr's O(k) workspace; a copy of the Gram
    # matrix for LAPACK would put the peak past twice its size
    mat = np.random.default_rng(3).standard_normal(shape)
    gram_bytes = 8 * min(shape) ** 2
    lmax, _, peak = traced_call(spectral_norm_sq, mat)
    assert lmax == c_ordered_spectral_norm_sq(mat)
    assert gram_bytes < peak < 1.25 * gram_bytes


def test_blas_threads_is_one_under_the_pin_and_a_count_or_none_otherwise():
    proc = run_pinned("from egadm.linalg import blas_threads; print(repr(blas_threads()))")
    assert proc.stdout == "1\n", proc.stderr
    count = blas_threads()
    assert count is None or (type(count) is int and count >= 1)


_LAZY_PROBE = """
import numpy as np
import egadm.cli
from egadm import fused_logistic as fl, linalg

def resolved():
    return linalg._openblas_thread_count.cache_info().currsize

imported = resolved()
inst = fl.generate_block_pattern(130, 150, 0)
fl.solve_fused(inst, fl.FusedLogisticConfig(), max_iters=20)
solved = resolved()
fl._PANEL_BYTES = 1
fl._logistic_gradient(inst.aux.data)(np.zeros(131))
print(imported, solved, resolved())
"""


def test_the_thread_count_is_first_asked_by_a_gradient_that_reads_panels():
    # importing the CLI and a solve whose matrix is one panel never look up
    # OpenBLAS; the first gradient over several panels does
    proc = run_pinned(_LAZY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 1\n"
