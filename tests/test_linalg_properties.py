"""Property tests: ``spectral_norm_sq`` against the SVD over small shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egadm.linalg import spectral_norm_sq

dims = st.integers(1, 30)
entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    """Tall, wide, 1 x k, rank-deficient (outer products, repeated rows)
    and all-zero matrices of shapes up to 30 x 30."""
    m, n = draw(dims), draw(dims)
    kind = draw(st.sampled_from(["dense", "outer", "repeated", "zero"]))
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "outer":
        u = draw(arrays(float, m, elements=entries))
        v = draw(arrays(float, n, elements=entries))
        return np.outer(u, v)
    if kind == "repeated":
        rows = draw(arrays(float, (draw(st.integers(1, m)), n), elements=entries))
        return rows[np.arange(m) % rows.shape[0]]
    return draw(arrays(float, (m, n), elements=entries))


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_spectral_norm_sq_matches_svd(a):
    value = spectral_norm_sq(a)
    assert value >= 0.0
    assert value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0] ** 2, rel=1e-12)
    assert value == pytest.approx(spectral_norm_sq(a.T), rel=1e-12)
