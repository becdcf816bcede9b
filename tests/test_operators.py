import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm.operators import AffineProjector, l1_prox, shrink
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
    Q, c = proj._qt.T, proj._c
    if w.ndim == 1:
        assert proj(w).tobytes() == (w - Q @ (Q.T @ w) + c).tobytes()
    else:
        # c is one vector, so a block goes only through the call's two products
        assert proj._q_dot(proj._qt_dot(w)).tobytes() == (Q @ (Q.T @ w)).tobytes()


def test_projector_rank_deficient_rejected_at_construction():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        AffineProjector(A, np.zeros(2))


def _rank_deficient(kind):
    """The 20 x 100 A of ``bp.generate(100, 20, 2, 7)`` with one row made
    a combination of others (row 1 equal to row 0, three times row 0, or
    row 2 equal to row 0 - 2 row 1) or zero, or its first 21 columns: a
    tall 20 x 21 block read as 21 x 20."""
    A = np.array(bp.generate(100, 20, 2, 7).A)
    if kind == "duplicate":
        A[1] = A[0]
    elif kind == "scaled":
        A[1] = 3.0 * A[0]
    elif kind == "combined":
        A[2] = A[0] - 2.0 * A[1]
    elif kind == "zero row":
        A[5] = 0.0
    else:
        return A[:, :21].T.copy()
    return A


@pytest.mark.parametrize(
    "kind, rank",
    [("duplicate", 19), ("scaled", 19), ("combined", 19), ("zero row", 19), ("more rows than columns", 20)],
)
def test_projector_rejects_a_rank_deficient_A_by_its_numerical_rank(kind, rank):
    A = _rank_deficient(kind)
    m = A.shape[0]
    with pytest.raises(np.linalg.LinAlgError, match=rf"A is rank deficient: numerical rank {rank} < {m} rows"):
        AffineProjector(A, np.zeros(m))


def _conditioned(m, n, cond, rng):
    """An m x n A (m <= n) with singular values spaced log-uniformly from
    1 down to 1/cond, between random orthonormal bases."""
    left, _ = np.linalg.qr(rng.standard_normal((m, m)))
    right, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (left * np.logspace(0, -np.log10(cond), m)) @ right.T


@pytest.mark.parametrize("cond", [1e7, 1e9])
def test_projector_accepts_an_ill_conditioned_full_rank_A(cond):
    A = _conditioned(20, 100, cond, np.random.default_rng(8))
    assert np.linalg.cond(A) == pytest.approx(cond, rel=1e-6)
    assert np.linalg.matrix_rank(A) == 20
    proj = AffineProjector(A, np.zeros(20))
    Q = proj._qt.T
    assert np.max(np.abs(Q.T @ Q - np.eye(20))) <= 1e-14
    w = np.random.default_rng(9).standard_normal(100)
    assert np.linalg.norm(A @ proj(w)) <= 1e-14 * np.linalg.norm(w)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 120))),
    st.floats(0.0, 8.0),
    st.integers(0, 2**32 - 1),
)
def test_projector_is_feasible_and_idempotent_to_machine_precision(shape, log_cond, seed):
    rng = np.random.default_rng(seed)
    A = _conditioned(*shape, 10.0**log_cond, rng)
    bvec = rng.standard_normal(shape[0])
    proj = AffineProjector(A, bvec)
    out = proj(rng.standard_normal(shape[1]))
    assert np.linalg.norm(A @ out - bvec) <= 1e-13 * (np.linalg.norm(out) + np.linalg.norm(bvec))
    assert np.linalg.norm(proj(out) - out) <= 1e-13 * np.linalg.norm(out)


def test_projector_rejects_nan_in_matrix():
    A = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        AffineProjector(A, np.zeros(2))


def test_projector_rejects_inf_in_rhs():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        AffineProjector(A, np.array([1.0, np.inf]))


def test_l1_prox_identity_coupling_reduces_to_shrink():
    # offset = -y for the x - y = 0 split
    y = np.array([1.0, -2.0])
    out = l1_prox(1.0)(-y, np.zeros(2), 1.0)
    assert np.array_equal(out, np.array([0.0, -1.0]))


def test_l1_prox_multiplier_shifts_anchor():
    lam = np.array([2.0, 0.0])
    out = l1_prox(1.0)(np.zeros(2), lam, 1.0)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def _weights(kind, n):
    """The weights of each front end's x-step: basis pursuit's scalar 1,
    or per-component weights like the fused ``[alpha]*k + [beta]*(n-k)``,
    here with a zero weight as well."""
    if kind == "scalar":
        return 1.0
    w = np.concatenate([np.full(n // 2, 0.4), np.full(n - n // 2, 1.3)])
    w[-1] = 0.0
    return w


WEIGHT_KINDS = ["scalar", "array"]


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_l1_prox_matches_2d_grid_search(kind):
    rng = np.random.default_rng(4)
    gamma = 0.7
    weights = 0.4 if kind == "scalar" else np.array([0.4, 1.3])
    offset = rng.standard_normal(2)
    lam = rng.standard_normal(2)
    out = l1_prox(weights)(offset, lam, gamma)
    w = np.broadcast_to(weights, 2)

    def obj(x):
        r = x + offset
        return w @ np.abs(x) - r @ lam + 0.5 * gamma * (r @ r)

    grid = np.arange(-4.0, 4.0, 2.5e-3)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    # vectorized scan of the 2-d lattice
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    r = pts + offset
    vals = np.abs(pts) @ w - r @ lam + 0.5 * gamma * np.sum(r * r, axis=1)
    best = pts[np.argmin(vals)]
    assert np.max(np.abs(out - best)) <= 2.5e-3
    assert obj(out) <= obj(best) + 1e-12


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_l1_prox_gives_the_bits_of_one_shrink_at_each_calls_gamma(kind):
    # the operation order both front ends' iterates are pinned to
    weights = _weights(kind, 40)
    prox = l1_prox(weights)
    rng = np.random.default_rng(5)
    for gamma in (0.3, 0.3, 0.07, 0.3, 2.0):
        for dtype in (np.float64, np.float32):
            offset, lam = rng.standard_normal((2, 40)).astype(dtype)
            # the inputs hold negative zeros, where the shrink's sign matters
            offset[:5], lam[:5] = -0.0, -0.0
            # a float32 anchor is shrunk in float64
            want = shrink(np.asarray(lam / gamma - offset, dtype=float), np.divide(weights, gamma))
            out = prox(offset, lam, gamma)
            assert out.dtype == np.float64 and out.tobytes() == want.tobytes(), (gamma, dtype)


def test_l1_prox_recomputes_the_threshold_when_gamma_changes():
    prox = l1_prox(1.0)
    zeros, ones = np.zeros(40), np.ones(40)
    # lam / gamma = 2 against the thresholds 1 / gamma = 2 and 4
    assert np.array_equal(prox(zeros, ones, 0.5), zeros)
    assert np.array_equal(prox(zeros, 2 * ones, 0.5), 2 * ones)
    assert np.array_equal(prox(zeros, 0.5 * ones, 0.25), zeros)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_l1_prox_rejects_a_gamma_that_is_not_positive_and_finite(kind, gamma):
    weights = _weights(kind, 7)
    prox = l1_prox(weights)
    args = np.random.default_rng(9).standard_normal((2, 7))
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        prox(*args, gamma)
    # also right after a valid call, and a rejected gamma changes nothing after it
    want = prox(*args, 0.5)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        prox(*args, gamma)
    assert prox(*args, 0.5).tobytes() == want.tobytes()


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def l1_subproblems(draw):
    """Weights (zeros among them, as a scalar or per component), gamma,
    offset and lam of one x-step."""
    n = draw(st.integers(1, 12))
    vector = st.lists(_finite, min_size=n, max_size=n).map(np.array)
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    weights = draw(st.one_of(weight, st.lists(weight, min_size=n, max_size=n).map(np.array)))
    gamma = draw(st.floats(1e-3, 1e3))
    return weights, gamma, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None)
@given(l1_subproblems())
def test_l1_prox_satisfies_the_optimality_condition(case):
    # 0 is in w * d|x| - r with r = lam - gamma * (x + offset): |r_j| <= w_j
    # where x_j = 0, and r_j = w_j * sign(x_j) elsewhere
    weights, gamma, offset, lam = case
    x = l1_prox(weights)(offset, lam, gamma)
    w = np.broadcast_to(weights, x.shape)
    r = lam - gamma * (x + offset)
    slack = 1e-12 * (np.abs(lam) + gamma * (np.abs(x) + np.abs(offset)) + w)
    zero = x == 0.0
    assert np.all(np.abs(r[zero]) <= w[zero] + slack[zero])
    assert np.all(np.abs(r[~zero] - w[~zero] * np.sign(x[~zero])) <= slack[~zero])


def _front_end_prox(front_end):
    """A prox of each kind shared by the threads, with its weights; every
    array holds at least 1000 entries, since numpy keeps the GIL through
    the elementwise loops of shorter ones."""
    if front_end == "l1_prox-scalar":
        return l1_prox(1.0), 1000, 1.0
    if front_end == "l1_prox-array":
        weights = _weights("array", 1000)
        return l1_prox(weights), 1000, weights
    if front_end == "basis_pursuit":
        inst = bp.generate(1000, 10, 2, 3)
        return bp.as_problem(inst).prox_block.solve_subproblem, 1000, 1.0
    cfg = fl.FusedLogisticConfig(alpha=0.3, beta=0.7)
    prox = fl.as_problem(fl.generate_block_pattern(1000, 10, 0), cfg).prox_block.solve_subproblem
    return prox, 1999, np.concatenate([np.full(1000, 0.3), np.full(999, 0.7)])


@pytest.mark.parametrize(
    "front_end", ["l1_prox-scalar", "l1_prox-array", "basis_pursuit", "fused_logistic"]
)
def test_a_shared_prox_keeps_each_threads_gamma(front_end):
    # four threads (more than the cores) share one prox and alternate two
    # gammas, with a thread switch forced about every microsecond: each
    # output must be the shrink at its own call's gamma, never at another
    # thread's thresholds
    prox, p, weights = _front_end_prox(front_end)
    offset, lam = np.random.default_rng(8).standard_normal((2, p))
    gammas = (0.3, 0.7)
    want = {g: shrink(lam / g - offset, np.divide(weights, g)).tobytes() for g in gammas}
    wrong, finished = [], []

    def run(first):
        for k in range(5_000):
            gamma = gammas[(first + k) % 2]
            if prox(offset, lam, gamma).tobytes() != want[gamma]:
                wrong.append(gamma)
        finished.append(first)

    threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1, 0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(finished) == len(threads)
    assert wrong == []
