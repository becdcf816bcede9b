import dataclasses
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm.linalg import spectral_norm_sq
from egadm.problem import (
    Coupling,
    LinearMap,
    ProxBlock,
    SmoothBlock,
    TwoBlockProblem,
    identity_map,
    kkt_lipschitz_bound,
    lagrangian,
)
from egadm.solver import initial_state
from oracles import (
    augmented_lagrangian, central_diff_gradient, dense_map, jacobi_eigenvalues, kkt_map,
)


def _unused_subproblem(*_args):
    raise NotImplementedError("these tests never take solver steps")


def _quadratic_problem(seed=0, m=4, n=6, p=5):
    """f = ||.||_1, g = 0.5*||y||^2, random dense coupling through ``dense_map``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, p))
    b = rng.standard_normal(m)
    prox = ProxBlock(
        evaluate=lambda x: float(np.sum(np.abs(x))),
        solve_subproblem=_unused_subproblem,
    )
    smooth = SmoothBlock(
        evaluate=lambda y: 0.5 * float(y @ y),
        gradient=lambda y: y,
        lipschitz_constant=1.0,
        project=lambda y: y,
    )
    return TwoBlockProblem(prox, smooth, Coupling(A=dense_map(A), B=dense_map(B), b=b))


def test_lagrangian_feasible_point_ignores_multiplier():
    rng = np.random.default_rng(1)
    prob = _quadratic_problem()
    A, B, b = prob.coupling.A, prob.coupling.B, prob.coupling.b
    y = rng.standard_normal(5)
    # make (x, y) feasible by solving for x on A's row space
    x = np.linalg.lstsq(A, b - B @ y, rcond=None)[0]
    base = lagrangian(prob, x, y, np.zeros(4))
    for _ in range(5):
        lam = rng.standard_normal(4)
        assert lagrangian(prob, x, y, lam) == pytest.approx(base, abs=1e-10)


def test_lagrangian_zero_multiplier_is_objective():
    rng = np.random.default_rng(2)
    prob = _quadratic_problem()
    x, y = rng.standard_normal(6), rng.standard_normal(5)
    expected = np.sum(np.abs(x)) + 0.5 * y @ y
    assert lagrangian(prob, x, y, np.zeros(4)) == pytest.approx(expected, rel=1e-14)


def test_lagrangian_matches_naive_evaluation():
    rng = np.random.default_rng(3)
    prob = _quadratic_problem()
    A, B, b = prob.coupling.A, prob.coupling.B, prob.coupling.b
    for _ in range(10):
        x, y, lam = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4)
        naive = (
            np.sum(np.abs(x)) + 0.5 * y @ y - lam @ (A @ x + B @ y - b)
        )
        assert lagrangian(prob, x, y, lam) == pytest.approx(naive, rel=1e-13)
        gamma = float(rng.uniform(0.1, 3.0))
        r = A @ x + B @ y - b
        assert augmented_lagrangian(prob, x, y, lam, gamma) == pytest.approx(
            naive + 0.5 * gamma * r @ r, rel=1e-13
        )


def test_augmented_lagrangian_feasible_equals_plain():
    rng = np.random.default_rng(4)
    prob = _quadratic_problem()
    A, B, b = prob.coupling.A, prob.coupling.B, prob.coupling.b
    y = rng.standard_normal(5)
    x = np.linalg.lstsq(A, b - B @ y, rcond=None)[0]
    lam = rng.standard_normal(4)
    assert augmented_lagrangian(prob, x, y, lam, 2.0) == pytest.approx(
        lagrangian(prob, x, y, lam), abs=1e-10
    )


def test_augmented_lagrangian_monotone_in_gamma_when_infeasible():
    rng = np.random.default_rng(5)
    prob = _quadratic_problem()
    x, y, lam = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4)
    vals = [augmented_lagrangian(prob, x, y, lam, g) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(earlier < later for earlier, later in zip(vals, vals[1:]))


def test_augmented_lagrangian_vanishing_penalty_limit():
    rng = np.random.default_rng(6)
    prob = _quadratic_problem()
    x, y, lam = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4)
    plain = lagrangian(prob, x, y, lam)
    assert augmented_lagrangian(prob, x, y, lam, 1e-300) == pytest.approx(plain)
    with pytest.raises(ValueError):
        augmented_lagrangian(prob, x, y, lam, 0.0)


def test_kkt_map_zero_at_stationary_feasible_point():
    inst = bp.generate(12, 5, 2, 0)
    prob = bp.as_problem(inst)
    y = prob.smooth_block.project(np.zeros(12))
    out = kkt_map(prob, y, y, np.zeros(12))
    assert np.max(np.abs(out)) <= 1e-12


def test_kkt_map_top_block_is_gradient_when_multiplier_zero():
    rng = np.random.default_rng(7)
    prob = _quadratic_problem()
    x, y = rng.standard_normal(6), rng.standard_normal(5)
    out = kkt_map(prob, x, y, np.zeros(4))
    assert np.allclose(out[:5], y)


def test_kkt_map_matches_finite_differences():
    rng = np.random.default_rng(8)
    prob = _quadratic_problem()
    x, y, lam = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4)
    out = kkt_map(prob, x, y, lam)
    fd_y = central_diff_gradient(lambda v: lagrangian(prob, x, v, lam), y)
    assert np.allclose(out[:5], fd_y, rtol=1e-6, atol=1e-8)
    resid = prob.coupling.A @ x + prob.coupling.B @ y - prob.coupling.b
    assert np.allclose(out[5:], resid, rtol=1e-13)


def test_lipschitz_bound_basis_pursuit_value():
    inst = bp.generate(10, 4, 2, 1)
    assert kkt_lipschitz_bound(bp.as_problem(inst)) == pytest.approx(
        np.sqrt(2.0), rel=1e-9
    )


def test_lipschitz_bound_identity_coupling_with_unit_gradient():
    prob = _quadratic_problem()
    ident = TwoBlockProblem(
        prob.prox_block,
        prob.smooth_block,
        Coupling(A=dense_map(np.eye(5, 6)), B=dense_map(np.eye(5)), b=np.zeros(5)),
    )
    assert kkt_lipschitz_bound(ident) == pytest.approx(np.sqrt(3.0), rel=1e-9)


def test_lipschitz_bound_fused_coupling_matches_oracle():
    rng = np.random.default_rng(9)
    n = 5
    A = rng.standard_normal((4, n))
    xh = np.array([1.0, 1.0, 0.0, -0.5, 2.0])
    labels = np.where(A @ xh + 0.2 >= 0, 1.0, -1.0)
    inst = fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=0.2, seed=0)
    prob = fl.as_problem(inst, fl.FusedLogisticConfig())
    B = np.asarray(prob.coupling.B)
    lmax = jacobi_eigenvalues(B.T @ B)[-1]
    lg = prob.smooth_block.lipschitz_constant
    expected = np.sqrt(max(2 * lg * lg + lmax, 2 * lmax))
    assert kkt_lipschitz_bound(prob) == pytest.approx(expected, rel=1e-8)


def test_kkt_map_is_lipschitz_with_the_declared_bound():
    rng = np.random.default_rng(10)
    n = 5
    A = rng.standard_normal((4, n))
    xh = np.array([0.5, 0.0, 1.0, -1.0, 0.0])
    labels = np.where(A @ xh + 0.1 >= 0, 1.0, -1.0)
    inst = fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=0.1, seed=0)
    prob = fl.as_problem(inst, fl.FusedLogisticConfig())
    bound = kkt_lipschitz_bound(prob)
    x = rng.standard_normal(prob.coupling.A.shape[1])
    for _ in range(50):
        y1 = rng.standard_normal(prob.coupling.B.shape[1])
        y2 = rng.standard_normal(prob.coupling.B.shape[1])
        l1 = rng.standard_normal(prob.coupling.b.size)
        l2 = rng.standard_normal(prob.coupling.b.size)
        num = np.linalg.norm(kkt_map(prob, x, y1, l1) - kkt_map(prob, x, y2, l2))
        den = np.sqrt(np.linalg.norm(y1 - y2) ** 2 + np.linalg.norm(l1 - l2) ** 2)
        assert num <= bound * (1.0 + 1e-6) * den


def test_block_evaluations_are_convex_on_sampled_segments():
    rng = np.random.default_rng(11)
    inst = bp.generate(30, 8, 2, 0)
    prob = bp.as_problem(inst)
    rng2 = np.random.default_rng(12)
    n = 5
    A = rng2.standard_normal((4, n))
    xh = np.array([1.0, 0.0, 2.0, -1.0, 0.0])
    labels = np.where(A @ xh + 0.1 >= 0, 1.0, -1.0)
    fused = fl.as_problem(
        fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=0.1, seed=0),
        fl.FusedLogisticConfig(alpha=0.2, beta=0.4),
    )
    for problem in (prob, fused):
        A, B = problem.coupling.A, problem.coupling.B
        for block, size in ((problem.prox_block, A.shape[1]), (problem.smooth_block, B.shape[1])):
            for _ in range(25):
                u = rng.standard_normal(size)
                v = rng.standard_normal(size)
                mid = block.evaluate(0.5 * (u + v))
                assert mid <= 0.5 * (block.evaluate(u) + block.evaluate(v)) + 1e-9


def test_coupling_fast_paths_match_dense_products():
    rng = np.random.default_rng(13)
    n = 6
    ident = Coupling(A=dense_map(np.eye(n)), B=dense_map(-np.eye(n)), b=np.zeros(n))
    A, B, b = rng.standard_normal((4, n)), rng.standard_normal((4, 3)), rng.standard_normal(4)
    dense = Coupling(A=dense_map(A), B=dense_map(B), b=b)
    x = rng.standard_normal(n)
    assert np.array_equal(ident.apply_a(x), np.eye(n) @ x)
    assert np.array_equal(ident.apply_b(x), -np.eye(n) @ x)
    assert np.array_equal(ident.apply_bt(x), -np.eye(n) @ x)
    y = rng.standard_normal(3)
    v = rng.standard_normal(4)
    assert np.array_equal(dense.apply_a(x), A @ x)
    assert np.array_equal(dense.apply_b(y), B @ y)
    assert np.array_equal(dense.apply_bt(v), B.T @ v)
    assert np.allclose(dense.residual(x, y), A @ x + B @ y - b)

    # identity maps return x itself and -x, bit for bit
    plus, minus = identity_map(n), identity_map(n, -1.0)
    assert plus @ x is x and plus.T @ x is x
    assert np.array_equal(minus @ x, -x) and np.array_equal(minus.T @ x, -x)
    assert np.array_equal(np.asarray(minus), -np.eye(n))
    bp_coupling = bp.as_problem(bp.generate(n, 3, 1, 0)).coupling
    assert bp_coupling.apply_a(x) is x
    assert np.array_equal(bp_coupling.apply_b(x), -x)
    assert np.array_equal(bp_coupling.apply_bt(x), -x)

    # the fused map against a dense -[I 0; L 0] built from identity blocks
    for m in (2, 3, 7, 50, 500):
        B = fl.fused_coupling(m)
        ref = np.zeros((2 * m - 1, m + 1))
        ref[:m, :m] = -np.eye(m)
        ref[m:, :m] = np.eye(m - 1, m, k=1) - np.eye(m - 1, m)
        assert B.shape == ref.shape and B.T.shape == ref.T.shape
        assert np.array_equal(np.asarray(B), ref) and np.array_equal(np.asarray(B.T), ref.T)
        z, v = rng.standard_normal(m + 1), rng.standard_normal(2 * m - 1)
        assert np.allclose(B @ z, ref @ z, rtol=0, atol=1e-14)
        assert np.allclose(B.T @ v, ref.T @ v, rtol=0, atol=1e-14)
        assert (B @ z) @ v == pytest.approx(z @ (B.T @ v), rel=1e-12)
        lmax = np.linalg.eigvalsh(ref.T @ ref)[-1]
        assert B.norm_sq == pytest.approx(lmax, rel=1e-12)
        coupling = Coupling(A=identity_map(2 * m - 1), B=B, b=np.zeros(2 * m - 1))
        assert coupling.B is B


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_dense_coupling_products_give_the_bits_of_matmul(m, n, p, seed, strided):
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((m, n)), rng.standard_normal((m, p))
    b = rng.standard_normal(m)

    def vector(k):
        return rng.standard_normal((k, 2))[:, 0] if strided else rng.standard_normal(k)

    x, y, v = vector(n), vector(p), vector(m)
    for cls in (Coupling, _TaggedCoupling):
        c = cls(A=dense_map(A), B=dense_map(B), b=b)
        assert c.apply_a(x).tobytes() == (A @ x).tobytes()
        assert c.apply_b(y).tobytes() == (B @ y).tobytes()
        assert c.apply_bt(v).tobytes() == (B.T @ v).tobytes()


@dataclass(frozen=True)
class _TaggedCoupling(Coupling):
    tag: str = ""


def test_identity_map_rejects_a_sign_other_than_plus_or_minus_one():
    # a bool compares equal to 1 or 0 but is no sign, as elsewhere in egadm
    for sign in (2.0, 0.0, -0.5, float("nan"), True, False, np.True_, np.False_):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            identity_map(3, sign)
    for sign in (1, -1, 1.0, -1.0):
        assert np.array_equal(np.asarray(identity_map(3, sign)), sign * np.eye(3))


def test_a_linear_map_refuses_to_become_an_array_without_a_copy():
    # NumPy 2's __array__ protocol: copy=False must raise when the array
    # cannot be shared, and a LinearMap has no dense array to share
    for M in (identity_map(3), identity_map(3, -1.0), fl.fused_coupling(4)):
        with pytest.raises(ValueError, match="no dense array to share"):
            np.asarray(M, copy=False)
        with pytest.raises(ValueError, match="no dense array to share"):
            np.array(M, copy=False)
        dense = np.asarray(M @ np.eye(M.shape[1]))
        for built in (np.asarray(M), np.array(M), np.array(M, copy=True), np.asarray(M, dtype=float)):
            assert built.dtype == np.float64 and np.array_equal(built, dense)
        assert np.asarray(M, dtype=np.float32).dtype == np.float32


def test_kkt_lipschitz_bound_reads_the_declared_norm_sq(monkeypatch):
    # Lhat takes B.norm_sq as declared, even one above the exact lmax, and
    # computes no spectral norm: every egadm binding of spectral_norm_sq counts
    rng = np.random.default_rng(5)
    B = rng.standard_normal((4, 3))
    exact = dense_map(B)
    assert exact.norm_sq == pytest.approx(np.linalg.eigvalsh(B.T @ B)[-1], rel=1e-12)
    loose = LinearMap(B.shape, B.dot, B.T.dot, exact.norm_sq + 7.0)
    prob = _quadratic_problem(m=4, n=4, p=3)
    smooth = dataclasses.replace(prob.smooth_block, lipschitz_constant=1.5)
    calls = []

    def counted(mat, real=spectral_norm_sq):
        calls.append(np.shape(mat))
        return real(mat)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "egadm" and hasattr(module, "spectral_norm_sq"):
            monkeypatch.setattr(module, "spectral_norm_sq", counted)
    for cls in (Coupling, _TaggedCoupling):
        for Bmap in (exact, loose):
            coupling = cls(A=identity_map(4), B=Bmap, b=np.zeros(4))
            bound = kkt_lipschitz_bound(TwoBlockProblem(prob.prox_block, smooth, coupling))
            lmax = Bmap.norm_sq
            assert bound == np.sqrt(max(2.0 * 1.5 * 1.5 + lmax, 2.0 * lmax)), (cls, lmax)
    assert calls == []


@pytest.mark.parametrize("declared", ["lipschitz_constant", "norm_sq"])
def test_kkt_lipschitz_bound_of_a_float32_declaration_is_the_bound_of_its_float64_value(declared):
    # a float32 declaration used to keep Lhat in float32: for Lg =
    # np.float32(3.3) here 4.8764739, below the 4.8764741 of its float64 value
    prob = _quadratic_problem(m=4, n=4, p=3)
    values = {"lipschitz_constant": 1.5, "norm_sq": 2.0, declared: np.float32(3.3)}
    exact = {**values, declared: float(np.float32(3.3))}

    def bound(lipschitz_constant, norm_sq):
        smooth = dataclasses.replace(prob.smooth_block, lipschitz_constant=lipschitz_constant)
        B = LinearMap((4, 4), lambda v: v, lambda v: v, norm_sq)
        coupling = Coupling(A=identity_map(4), B=B, b=np.zeros(4))
        return kkt_lipschitz_bound(TwoBlockProblem(prob.prox_block, smooth, coupling))

    got = bound(**values)
    assert type(got) is float and got == bound(**exact)


def test_coupling_b_is_zero_only_for_positive_zeros():
    def coupling(b, cls=Coupling):
        return cls(A=identity_map(3), B=identity_map(3, -1.0), b=np.array(b))

    assert coupling([0.0, 0.0, 0.0]).b_is_zero
    assert coupling([0.0, 0.0, 0.0], _TaggedCoupling).b_is_zero
    # v - (-0.0) turns v = -0.0 into +0.0, so the subtraction is not a no-op
    assert not coupling([0.0, -0.0, 0.0]).b_is_zero
    for b in ([0.0, 1e-300, 0.0], [0.0, 0.0, np.nan], [-1.0, 0.0, 0.0]):
        assert not coupling(b).b_is_zero
        assert not coupling(b, _TaggedCoupling).b_is_zero
    # b is a read-only copy, so the flag cannot go stale
    b = np.zeros(3)
    c = coupling(b)
    b[0] = 1.0
    assert c.b_is_zero and not c.b.any()
    with pytest.raises(ValueError):
        c.b[0] = 1.0
    assert bp.as_problem(bp.generate(6, 3, 1, 0)).coupling.b_is_zero
    fused = fl.as_problem(fl.generate_block_pattern(500, 100, 0), fl.FusedLogisticConfig())
    assert fused.coupling.b_is_zero


def test_problem_dimension_validation():
    with pytest.raises(ValueError, match="row dimensions disagree"):
        Coupling(A=dense_map(np.eye(3)), B=dense_map(np.eye(4)), b=np.zeros(3))
    with pytest.raises(ValueError, match="row dimensions disagree"):
        Coupling(A=identity_map(3), B=identity_map(3), b=np.zeros(4))
    with pytest.raises(ValueError, match="b must be a vector"):
        Coupling(A=identity_map(3), B=identity_map(3), b=np.zeros((3, 1)))


def test_coupling_takes_linear_maps_only_and_keeps_them_as_given():
    recipe = "LinearMap(M.shape, M.dot, M.T.dot, spectral_norm_sq(M))"
    ident = identity_map(3)
    for A, B in ((np.eye(3), ident), (ident, np.eye(3)), (np.eye(3), np.eye(3))):
        for cls in (Coupling, _TaggedCoupling):
            with pytest.raises(TypeError, match=r"must be LinearMaps") as exc:
                cls(A=A, B=B, b=np.zeros(3))
            assert recipe in str(exc.value)
    c = Coupling(A=ident, B=ident, b=np.zeros(3))
    assert c.A is ident and c.B is ident


@pytest.mark.parametrize("n", [2.5, -3, True, np.True_, 3.0, None, "3"])
def test_identity_map_refuses_a_size_that_is_not_a_nonnegative_integer(n):
    with pytest.raises(ValueError, match="shape must be two nonnegative integers"):
        identity_map(n)


@pytest.mark.parametrize("shape", [(3,), (3, 3, 3), [3, 3], (3, -1), (True, 3), (3, 2.0), 3])
def test_linear_map_refuses_a_shape_that_is_not_two_nonnegative_integers(shape):
    with pytest.raises(ValueError, match="shape must be two nonnegative integers"):
        LinearMap(shape, lambda v: v, lambda v: v, 1.0)


def test_linear_map_takes_python_and_numpy_integers_as_its_shape():
    for shape in ((0, 0), (3, 4), (np.int64(3), np.int32(4))):
        assert LinearMap(shape, lambda v: v, lambda v: v, 1.0).shape == shape
    assert identity_map(np.int64(3)).shape == (3, 3)



@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_a_declared_bound_refuses_a_bool(value):
    with pytest.raises(ValueError, match=r"norm_sq must be finite and nonnegative"):
        LinearMap((2, 2), lambda v: v, lambda v: v, value)
    smooth = _quadratic_problem().smooth_block
    with pytest.raises(ValueError, match=r"lipschitz_constant must be finite and nonnegative"):
        dataclasses.replace(smooth, lipschitz_constant=value)


@pytest.mark.parametrize("dim", [-1, 2.5, 3.0, True, np.True_, None, "3"])
def test_blocks_refuse_a_dim_that_is_not_a_nonnegative_integer(dim):
    # a block's dim is its coupling map's column count (x has A's, y has
    # B's), so the map that would declare it refuses one that is no such
    # integer, and a NumPy integer sizes the block's vector
    prob = _quadratic_problem()
    with pytest.raises(ValueError, match="^shape must be two nonnegative integers"):
        LinearMap((4, dim), lambda v: v, lambda w: w, 1.0)
    sized = LinearMap((4, np.int64(4)), lambda v: v, lambda w: w, 1.0)
    for name, block_vector in (("A", "x"), ("B", "y")):
        coupling = dataclasses.replace(prob.coupling, **{name: sized})
        start = initial_state(TwoBlockProblem(prob.prox_block, prob.smooth_block, coupling))
        assert getattr(start, block_vector).size == 4


@pytest.mark.parametrize("value", [-1.0, np.inf, -np.inf, np.nan, pytest.param(10**400, id="10**400")])
def test_smooth_block_rejects_a_lipschitz_constant_outside_zero_to_inf(value):
    smooth = bp.as_problem(bp.generate(20, 6, 2, 1)).smooth_block
    with pytest.raises(ValueError, match=r"lipschitz_constant must be finite and nonnegative"):
        dataclasses.replace(smooth, lipschitz_constant=value)


@pytest.mark.parametrize("value", [-1.0, np.inf, -np.inf, np.nan, pytest.param(10**400, id="10**400")])
def test_linear_map_rejects_a_norm_sq_outside_zero_to_inf(value):
    with pytest.raises(ValueError, match=r"norm_sq must be finite and nonnegative"):
        LinearMap((3, 3), lambda v: v, lambda v: v, value)
