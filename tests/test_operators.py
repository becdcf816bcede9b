import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egadm.operators import AffineProjector, shrink, solve_l1_subproblem
from oracles import grid_prox_scalar


def test_shrink_componentwise():
    out = shrink(np.array([3.0, -0.5, 0.0]), 1.0)
    assert np.array_equal(out, np.array([2.0, 0.0, 0.0]))


def test_shrink_zero_threshold_is_identity():
    z = np.array([1.5, -2.0, 0.0, 0.3])
    assert np.array_equal(shrink(z, 0.0), z)


def test_shrink_at_exact_threshold_returns_zero():
    assert shrink(np.array([1.0, -1.0]), 1.0).tolist() == [0.0, 0.0]


def test_shrink_negative_threshold_rejected():
    with pytest.raises(ValueError):
        shrink(np.ones(2), -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        shrink(np.ones(3), np.array([0.5, -1e-300, 0.5]))
    # NaN, alone or in an array, is no threshold; infinity maps all to zero
    with pytest.raises(ValueError, match="nonnegative"):
        shrink(np.ones(2), np.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        shrink(np.ones(3), np.array([0.5, np.nan, 0.5]))
    assert shrink(np.array([3.0, -2.0]), np.inf).tolist() == [0.0, 0.0]


def test_shrink_array_threshold_equals_the_two_slice_form_bit_for_bit():
    # the fused prox: one shrink against [alpha]*k + [beta]*(len-k) thresholds
    special = [0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 2.0, -2.0, 1e-300, -1e-300]
    rng = np.random.default_rng(7)
    for draw in range(200):
        a, b = (float(t) for t in rng.choice([0.0, 0.5, 2.0, rng.uniform(0, 3)], 2))
        k = int(rng.integers(0, 41))
        tau = np.concatenate([np.full(k, a), np.full(40 - k, b)])
        z = rng.standard_normal(40) * 3.0
        z[:10] = rng.choice(special, 10)
        at = rng.choice(40, 5, replace=False)
        z[at] = tau[at] * rng.choice([-1.0, 1.0], 5)  # |z| == tau exactly
        two = np.concatenate([shrink(z[:k], a), shrink(z[k:], b)])
        assert shrink(z, tau).tobytes() == two.tobytes(), draw


def test_shrink_matches_grid_prox_oracle():
    assert shrink(np.array([1.5]), 1.0)[0] == pytest.approx(
        grid_prox_scalar(1.5, 1.0), abs=1e-3
    )
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 2))
        assert shrink(np.array([z]), tau)[0] == pytest.approx(
            grid_prox_scalar(z, tau), abs=1e-3
        )


def test_shrink_nonexpansive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        tau = float(rng.uniform(0, 3))
        assert np.linalg.norm(shrink(u, tau) - shrink(v, tau)) <= np.linalg.norm(
            u - v
        ) + 1e-12


def test_projector_identity_matrix_maps_to_rhs():
    proj = AffineProjector(np.eye(3), np.array([1.0, 2.0, -1.0]))
    assert np.allclose(proj(np.array([5.0, -7.0, 0.0])), [1.0, 2.0, -1.0])


def test_projector_symmetric_two_dim_case():
    proj = AffineProjector(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(proj(np.zeros(2)), [1.0, 1.0])


def test_projector_constraint_idempotence_and_variational():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        n = m + int(rng.integers(1, 20))
        A = rng.standard_normal((m, n))
        bvec = rng.standard_normal(m)
        proj = AffineProjector(A, bvec)
        w = rng.standard_normal(n)
        out = proj(w)
        assert np.linalg.norm(A @ out - bvec) <= 1e-9 * (1 + np.linalg.norm(bvec))
        assert np.max(np.abs(proj(out) - out)) <= 1e-10
        # projection is the closest feasible point
        null_proj = np.eye(n) - np.linalg.pinv(A) @ A
        for _ in range(100):
            feas = out + null_proj @ rng.standard_normal(n)
            assert np.linalg.norm(w - out) <= np.linalg.norm(w - feas) + 1e-9


def test_projector_nonexpansive():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 12))
    proj = AffineProjector(A, rng.standard_normal(4))
    for _ in range(30):
        u, v = rng.standard_normal(12), rng.standard_normal(12)
        assert np.linalg.norm(proj(u) - proj(v)) <= np.linalg.norm(u - v) + 1e-12


@st.composite
def projectors_and_points(draw):
    """The projector of a Gaussian m x n A (full row rank with probability
    one), m <= n <= 60, and a point: a contiguous vector, a strided view,
    or an (n, K) block in C or Fortran order."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proj = AffineProjector(rng.standard_normal((m, n)), rng.standard_normal(m))
    form = draw(st.sampled_from(["contiguous", "strided", "block C", "block F"]))
    if form == "contiguous":
        return proj, rng.standard_normal(n)
    if form == "strided":
        return proj, rng.standard_normal((n, 3))[:, 1]
    block = rng.standard_normal((n, draw(st.integers(2, 8))))
    return proj, block if form == "block C" else np.asfortranarray(block)


@settings(max_examples=150, deadline=None)
@given(projectors_and_points())
def test_projector_gives_the_bits_of_its_matmul_form(case):
    proj, w = case
    M, A, c = proj._M, proj.A, proj._c
    if w.ndim == 1:
        assert proj(w).tobytes() == (w - M @ (A @ w) + c).tobytes()
    else:
        # c is one vector, so a block goes only through the call's two products
        assert proj._mdot(proj._adot(w)).tobytes() == (M @ (A @ w)).tobytes()


def test_projector_rank_deficient_rejected_at_construction():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        AffineProjector(A, np.zeros(2))


def test_projector_rejects_nan_in_matrix():
    A = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        AffineProjector(A, np.zeros(2))


def test_projector_rejects_inf_in_rhs():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        AffineProjector(A, np.array([1.0, np.inf]))


def test_l1_subproblem_identity_coupling_reduces_to_shrink():
    # offset = -y for the x - y = 0 split
    y = np.array([1.0, -2.0])
    out = solve_l1_subproblem(1.0, 1.0, -y, np.zeros(2))
    assert np.array_equal(out, np.array([0.0, -1.0]))


def test_l1_subproblem_multiplier_shifts_anchor():
    lam = np.array([2.0, 0.0])
    out = solve_l1_subproblem(1.0, 1.0, np.zeros(2), lam)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_l1_subproblem_matches_2d_grid_search():
    rng = np.random.default_rng(4)
    gamma = 0.7
    alpha = 0.4
    offset = rng.standard_normal(2)
    lam = rng.standard_normal(2)
    out = solve_l1_subproblem(alpha, gamma, offset, lam)

    def obj(x):
        r = x + offset
        return alpha * np.sum(np.abs(x)) - r @ lam + 0.5 * gamma * (r @ r)

    grid = np.arange(-4.0, 4.0, 2.5e-3)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    # vectorized scan of the 2-d lattice
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    r = pts + offset
    vals = alpha * np.sum(np.abs(pts), axis=1) - r @ lam + 0.5 * gamma * np.sum(r * r, axis=1)
    best = pts[np.argmin(vals)]
    assert np.max(np.abs(out - best)) <= 2.5e-3
    assert obj(out) <= obj(best) + 1e-12


def test_l1_subproblem_gives_the_bits_of_one_shrink():
    # the prox closures of both front ends are compared to this bit for bit
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.05, 3.0))
        alpha = float(rng.uniform(0.0, 1.0))
        offset = rng.standard_normal(n)
        lam = rng.standard_normal(n)
        out = solve_l1_subproblem(alpha, gamma, offset, lam)
        assert out.tobytes() == shrink(lam / gamma - offset, alpha / gamma).tobytes()


def test_l1_subproblem_subgradient_optimality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.2, 2.0))
        alpha = float(rng.uniform(0.05, 1.0))
        offset = rng.standard_normal(n)
        lam = rng.standard_normal(n)
        x = solve_l1_subproblem(alpha, gamma, offset, lam)
        g = -lam + gamma * (x + offset)
        for i in range(n):
            if x[i] != 0.0:
                assert abs(g[i] + alpha * np.sign(x[i])) <= 1e-8
            else:
                assert -alpha - 1e-8 <= g[i] <= alpha + 1e-8


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_l1_subproblem_rejects_a_gamma_that_is_not_positive_and_finite(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        solve_l1_subproblem(1.0, gamma, np.ones(2), np.ones(2))
