import dataclasses

import numpy as np
import pytest

from egadm import basis_pursuit as bp
from egadm.linalg import spectral_norm_sq
from egadm.operators import l1_prox
from egadm.problem import kkt_lipschitz_bound
from egadm.solver import SolverConfig, VariantKind, initial_state, solve
from oracles import jacobi_eigenvalues, kkt_map, next_state


def test_generate_shapes_and_planted_solution():
    inst = bp.generate(100, 20, 2, 7)
    assert inst.A.shape == (20, 100)
    assert np.count_nonzero(inst.xhat) == 2
    vals = inst.xhat[inst.xhat != 0]
    assert np.all((vals > 0) & (vals < 1))
    assert np.max(np.abs(inst.A @ inst.xhat - inst.b)) <= 1e-14 * max(
        1.0, np.max(np.abs(inst.b))
    )


def test_generate_is_deterministic():
    a = bp.generate(50, 10, 3, 123)
    b = bp.generate(50, 10, 3, 123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.xhat, b.xhat)
    c = bp.generate(50, 10, 3, 124)
    assert not np.array_equal(a.A, c.A)


def test_generate_retries_a_rank_deficient_draw(monkeypatch):
    calls = []
    real = bp.AffineProjector

    def flaky(A, rhs):
        calls.append(A)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("A is rank deficient: numerical rank 9 < 10 rows")
        return real(A, rhs)

    monkeypatch.setattr(bp, "AffineProjector", flaky)
    inst = bp.generate(50, 10, 3, 123)
    assert len(calls) == 2
    retry = np.random.default_rng([123, 1]).standard_normal((10, 50))
    assert np.array_equal(inst.A, retry / np.sqrt(spectral_norm_sq(retry)))
    assert not np.array_equal(inst.A, calls[0])


def test_generate_unit_spectral_norm_against_oracle():
    inst = bp.generate(60, 12, 2, 5)
    top = jacobi_eigenvalues(inst.A @ inst.A.T)[-1]
    assert np.sqrt(top) == pytest.approx(1.0, abs=1e-12)


def test_generate_validates_dimensions():
    with pytest.raises(ValueError):
        bp.generate(10, 20, 2, 0)
    with pytest.raises(ValueError):
        bp.generate(10, 5, 6, 0)
    with pytest.raises(ValueError):
        bp.generate(10, 5, 0, 0)
    with pytest.raises(ValueError):
        bp.generate(10, 5, 2, -1)


@pytest.mark.parametrize("name, value", [
    ("n", 100.0), ("m", 20.5), ("s", 2.0), ("s", True), ("seed", True), ("seed", np.True_),
    ("seed", 1.5), ("seed", -1),
])
def test_generate_refuses_an_argument_that_is_not_a_nonnegative_integer(name, value):
    args = {"n": 100, "m": 20, "s": 2, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer"):
        bp.generate(**args)


def test_problem_lipschitz_bound_is_sqrt_two():
    inst = bp.generate(30, 6, 2, 1)
    assert kkt_lipschitz_bound(bp.as_problem(inst)) == pytest.approx(
        np.sqrt(2.0), rel=1e-9
    )


def test_problem_kkt_top_block_equals_multiplier():
    inst = bp.generate(20, 5, 2, 2)
    prob = bp.as_problem(inst)
    rng = np.random.default_rng(0)
    x, y, lam = rng.standard_normal(20), rng.standard_normal(20), rng.standard_normal(20)
    out = kkt_map(prob, x, y, lam)
    assert np.array_equal(out[:20], lam)


def test_problem_initial_point_is_feasible():
    inst = bp.generate(80, 16, 3, 4)
    prob = bp.as_problem(inst)
    y0 = initial_state(prob).y
    assert np.linalg.norm(inst.A @ y0 - inst.b) <= 1e-9 * (1 + np.linalg.norm(inst.b))


def test_recovery_error_basics():
    inst = bp.generate(40, 8, 2, 6)
    assert bp.recovery_error(inst, inst.xhat) == 0.0
    assert bp.recovery_error(inst, np.zeros(40)) == pytest.approx(
        np.linalg.norm(inst.xhat)
    )
    with pytest.raises(ValueError):
        bp.recovery_error(inst, np.zeros(7))


def test_midpoint_iterates_stay_feasible():
    inst = bp.generate(40, 10, 2, 8)
    prob = bp.as_problem(inst)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.2)
    state = initial_state(prob)
    tol = 1e-9 * (1 + np.linalg.norm(inst.b))
    for _ in range(50):
        state = next_state(prob, cfg, state)
        assert np.linalg.norm(inst.A @ state.y - inst.b) <= tol
        assert np.linalg.norm(inst.A @ state.y_mid - inst.b) <= tol


def test_converging_variants_recover_planted_support():
    for seed in (0, 2, 4):
        inst = bp.generate(100, 20, 2, seed)
        prob = bp.as_problem(inst)
        support = set(np.flatnonzero(inst.xhat))
        for variant in (VariantKind.GAL, VariantKind.EGL, VariantKind.EGAL):
            rep = solve(prob, SolverConfig(variant=variant))
            assert rep.converged, (seed, variant)
            found = set(np.flatnonzero(np.abs(rep.state.x) > 1e-3))
            assert found == support, (seed, variant)


def test_desk_scale_variant_pattern():
    # one seed of the benchmark sizing: the plain-Lagrangian variant
    # stalls at the cap while the other three converge to small error
    inst = bp.generate(100, 20, 2, 0)
    prob = bp.as_problem(inst)
    gamma = 0.1
    rep_gl = solve(prob, SolverConfig(variant=VariantKind.GL, gamma=gamma))
    assert not rep_gl.converged
    assert rep_gl.iterations == 20000
    assert bp.recovery_error(inst, rep_gl.state.x) >= 1e-3
    for variant in (VariantKind.GAL, VariantKind.EGL, VariantKind.EGAL):
        rep = solve(prob, SolverConfig(variant=variant, gamma=gamma))
        assert rep.converged
        assert bp.recovery_error(inst, rep.state.x) <= 1e-3


def test_instance_keeps_read_only_copies_of_its_arrays():
    rng = np.random.default_rng(0)
    A, xhat = rng.standard_normal((3, 6)), np.array([0, 1, 0, 0, 0, 0])
    given = {"A": A, "b": A @ xhat, "xhat": xhat}
    before = {name: v.copy() for name, v in given.items()}
    inst = bp.BasisPursuitInstance(s=1, seed=0, **given)
    for name, v in given.items():
        held = getattr(inst, name)
        assert held.dtype == np.float64 and np.array_equal(held, before[name])
        assert not held.flags.writeable and not np.shares_memory(held, v)
        with pytest.raises(ValueError):
            held.flat[0] = 7.0
        v.flat[0] = 7.0  # the caller's array stays writable
        assert np.array_equal(held, before[name])


def test_projector_is_built_once_per_instance(monkeypatch):
    calls, couplings = [], []
    real, real_coupling = bp.AffineProjector, bp.Coupling

    def counting(A, rhs):
        calls.append(A)
        return real(A, rhs)

    def counting_coupling(**parts):
        couplings.append(parts)
        return real_coupling(**parts)

    monkeypatch.setattr(bp, "AffineProjector", counting)
    monkeypatch.setattr(bp, "Coupling", counting_coupling)
    inst = bp.generate(40, 10, 2, 3)
    # a solve per variant: the problem is assembled once, on the first
    for variant in VariantKind:
        solve(bp.as_problem(inst), SolverConfig(variant=variant, max_iters=5))
    assert len(calls) == 1 and len(couplings) == 1
    assert bp.as_problem(inst) is bp.as_problem(inst) is inst.problem
    assert inst.problem.smooth_block.project is inst.projector


def test_replace_gives_a_new_instance_with_its_own_projector():
    inst = bp.generate(40, 10, 2, 3)
    first, problem = inst.projector, bp.as_problem(inst)
    moved = dataclasses.replace(inst, b=2.0 * inst.b)
    assert inst.projector is first and moved.projector is not first
    assert bp.as_problem(inst) is problem and bp.as_problem(moved) is not problem
    assert bp.as_problem(dataclasses.replace(inst)) is not problem
    y = bp.as_problem(moved).smooth_block.project(np.zeros(40))
    assert np.linalg.norm(moved.A @ y - moved.b) <= 1e-12 * np.linalg.norm(moved.b)


def test_prox_is_l1_prox_of_unit_weights():
    prox = bp.as_problem(bp.generate(40, 10, 2, 3)).prox_block.solve_subproblem
    rng = np.random.default_rng(5)
    for gamma in (0.3, 0.07, 0.3, 2.0):
        args = rng.standard_normal((2, 40))
        want = l1_prox(1.0)(*args, gamma)
        assert prox(*args, gamma).tobytes() == want.tobytes(), gamma


def test_gradient_is_one_shared_read_only_zero_vector():
    gradient = bp.as_problem(bp.generate(40, 10, 2, 3)).smooth_block.gradient
    g = gradient(np.ones(40))
    assert g.shape == (40,) and g.dtype == np.float64 and not g.any()
    assert not g.flags.writeable
    assert gradient(np.full(40, -2.0)) is g
