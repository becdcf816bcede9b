"""Property tests: the structured coupling maps are adjoint pairs whose
declared ``norm_sq`` bounds lmax(M^T M) from above."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egadm.fused_logistic import fused_coupling
from egadm.problem import identity_map

entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def maps_and_vectors(draw):
    """``identity_map(n, +-1)`` or ``fused_coupling(n)`` for 2 <= n <= 64,
    with an x for its columns and a y for its rows."""
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["plus", "minus", "fused"]))
    M = fused_coupling(n) if kind == "fused" else identity_map(n, 1.0 if kind == "plus" else -1.0)
    rows, cols = M.shape
    return M, draw(arrays(float, cols, elements=entries)), draw(arrays(float, rows, elements=entries))


@settings(max_examples=60, deadline=None)
@given(maps_and_vectors())
# products in the subnormal range: lhs - rhs is 5e-324 while 1e-12 * scale is 0
@example((fused_coupling(2), np.array([1.5, 0.0, 0.0]), np.full(3, 5e-324)))
def test_products_are_adjoint(case):
    M, x, y = case
    rows, cols = M.shape
    lhs, rhs = (M @ x) @ y, x @ (M.T @ y)
    # both sides sum the products x_j M_ij y_i in different orders, so the
    # error is relative to the sum of their magnitudes; below the normal
    # range a rounded operation errs by up to half the smallest subnormal
    # besides (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., sec. 2.1), and each side rounds at most 2 * (rows + cols) times;
    # the count comes first, as half the smallest subnormal rounds to 0
    scale = np.abs(x) @ (np.abs(np.asarray(M)).T @ np.abs(y))
    tiny = 0.5 * 4 * (rows + cols) * np.nextafter(0.0, 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale + tiny


@settings(max_examples=30, deadline=None)
@given(maps_and_vectors())
def test_declared_norm_sq_bounds_the_top_eigenvalue(case):
    M = case[0]
    dense = np.asarray(M)
    lmax = np.linalg.eigvalsh(dense.T @ dense)[-1]
    assert M.norm_sq >= lmax * (1 - 1e-12)
    assert M.norm_sq == pytest.approx(lmax, rel=1e-12)
