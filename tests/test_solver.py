import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm import solver as solver_module
from egadm.operators import l1_prox
from egadm.problem import (
    Coupling, LinearMap, ProxBlock, SmoothBlock, TwoBlockProblem, identity_map,
)
from egadm.solver import (
    CERTIFICATE_SLACK,
    DivergenceError,
    SolverConfig,
    StepInfo,
    VariantKind,
    default_stop_rule,
    ergodic_checkpoints,
    gap_surrogate,
    initial_state,
    iterate,
    resolve_gamma,
    solve,
)
from oracles import (
    bp_midpoint_transcription, dense_map, extragradient_certificate, next_state, reference_advance,
)


def _l1_quadratic_problem(B, b, A=None):
    """f = ||.||_1 (x beyond its first len(b) entries is left at 0 by the
    subproblem), g = ||y||^2 / 2 over R^p, coupling A x + B y = b with
    A = I by default; x has A's column count."""
    m = len(b)
    A = identity_map(m) if A is None else A
    head_step = l1_prox(1.0)

    def solve_subproblem(offset, lam, gamma):
        head = head_step(offset, lam, gamma)
        return np.append(head, np.zeros(A.shape[1] - m))

    prox = ProxBlock(evaluate=lambda x: float(np.abs(x).sum()), solve_subproblem=solve_subproblem)
    smooth = SmoothBlock(
        evaluate=lambda y: 0.5 * float(y @ y),
        gradient=lambda y: y.copy(), lipschitz_constant=1.0, project=lambda y: y,
    )
    return TwoBlockProblem(prox, smooth, Coupling(A=A, B=B, b=b))


def _scalar_problem(rhs=0.5):
    """1-d instance: f = |x|, g = y^2/2, constraint x + y = rhs."""
    return _l1_quadratic_problem(dense_map(np.eye(1)), np.array([rhs]))


def _state_at(problem, x, y, lam):
    st = initial_state(problem)
    return replace(
        st,
        x=np.asarray(x, float),
        y=np.asarray(y, float),
        lam=np.asarray(lam, float),
        y_mid=np.asarray(y, float).copy(),
        lam_mid=np.asarray(lam, float).copy(),
    )


def test_midpoint_step_matches_hand_computation():
    prob = _scalar_problem(rhs=0.5)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.1)
    st = _state_at(prob, [0.0], [0.3], [0.2])
    new = next_state(prob, cfg, st)
    # worked by hand: x+ = shrink(2.2, 10) = 0, y_mid = 0.29,
    # lam_mid = 0.22, y+ = 0.293, lam+ = 0.221
    assert new.x[0] == pytest.approx(0.0, abs=1e-15)
    assert new.y_mid[0] == pytest.approx(0.29, abs=1e-12)
    assert new.lam_mid[0] == pytest.approx(0.22, abs=1e-12)
    assert new.y[0] == pytest.approx(0.293, abs=1e-12)
    assert new.lam[0] == pytest.approx(0.221, abs=1e-12)


def test_all_variants_match_hand_computation():
    prob = _scalar_problem(rhs=0.5)
    st = _state_at(prob, [0.0], [0.3], [0.2])
    expected = {
        VariantKind.GL: (0.29, 0.221),
        VariantKind.GAL: (0.292, 0.2208),
        VariantKind.EGL: (0.293, 0.221),
        VariantKind.EGAL: (0.29488, 0.2208),
    }
    for variant, (y1, lam1) in expected.items():
        new = next_state(prob, SolverConfig(variant=variant, gamma=0.1), st)
        assert new.y[0] == pytest.approx(y1, abs=1e-12), variant
        assert new.lam[0] == pytest.approx(lam1, abs=1e-12), variant


def test_step_stays_at_zero_fixed_point():
    prob = _scalar_problem(rhs=0.0)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.1)
    st = initial_state(prob)
    new = next_state(prob, cfg, st)
    for field in ("x", "y", "lam", "y_mid", "lam_mid"):
        assert np.all(getattr(new, field) == 0.0)


def test_step_fixed_point_of_identity_split():
    # A = I basis pursuit: x* = y* = b with the sign vector as multiplier
    b = np.array([0.5, -0.2, 0.0])
    inst = bp.BasisPursuitInstance(A=np.eye(3), b=b, xhat=b.copy(), s=2, seed=0)
    prob = bp.as_problem(inst)
    st = _state_at(prob, b, b, np.sign(b))
    for variant in VariantKind:
        new = next_state(prob, SolverConfig(variant=variant, gamma=0.25), st)
        assert np.max(np.abs(new.x - b)) <= 1e-14
        assert np.max(np.abs(new.y - b)) <= 1e-14
        assert np.max(np.abs(new.lam - np.sign(b))) <= 1e-14


def test_multiplier_update_structure():
    inst = bp.generate(12, 5, 2, 3)
    prob = bp.as_problem(inst)
    gamma = 0.2
    for variant in VariantKind:
        cfg = SolverConfig(variant=variant, gamma=gamma)
        state = initial_state(prob)
        for _ in range(3):
            prev = state
            state = next_state(prob, cfg, state)
            r = prob.coupling.residual
            if variant.extragradient:
                # midpoint multiplier from the previous y, final from y_mid
                assert np.allclose(
                    state.lam_mid, prev.lam - gamma * r(state.x, prev.y), atol=1e-14
                )
                assert np.allclose(
                    state.lam, prev.lam - gamma * r(state.x, state.y_mid), atol=1e-14
                )
            else:
                assert np.allclose(
                    state.lam, prev.lam - gamma * r(state.x, state.y), atol=1e-14
                )


def test_midpoint_trajectory_equals_direct_transcription():
    inst = bp.generate(20, 10, 2, 11)
    prob = bp.as_problem(inst)
    gamma = resolve_gamma(prob, SolverConfig(variant=VariantKind.EGL))
    oracle = bp_midpoint_transcription(inst.A, inst.b, gamma, 200)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=gamma)
    state = initial_state(prob)
    for ox, oyb, olb, oy, ol in oracle:
        state = next_state(prob, cfg, state)
        assert np.max(np.abs(state.x - ox)) <= 1e-12
        assert np.max(np.abs(state.y_mid - oyb)) <= 1e-12
        assert np.max(np.abs(state.lam_mid - olb)) <= 1e-12
        assert np.max(np.abs(state.y - oy)) <= 1e-12
        assert np.max(np.abs(state.lam - ol)) <= 1e-12


def test_ergodic_averages_constant_iterates():
    b = np.array([1.0, -2.0])
    inst = bp.BasisPursuitInstance(A=np.eye(2), b=b, xhat=b.copy(), s=2, seed=0)
    prob = bp.as_problem(inst)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.2)
    [(ax, ay, alam)] = ergodic_checkpoints(prob, cfg, [5], init=_state_at(prob, b, b, np.sign(b)))
    assert np.allclose(ax, b, atol=1e-13)
    assert np.allclose(ay, b, atol=1e-13)
    assert np.allclose(alam, np.sign(b), atol=1e-13)


def test_ergodic_averages_two_step_mean_and_replay():
    inst = bp.generate(10, 4, 2, 5)
    prob = bp.as_problem(inst)
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.15)
    state = initial_state(prob)
    xs, ys, lams = [], [], []
    for _ in range(50):
        state = next_state(prob, cfg, state)
        xs.append(state.x)
        ys.append(state.y_mid)
        lams.append(state.lam_mid)
    (ax, ay, alam), last = ergodic_checkpoints(prob, cfg, [2, 50])
    assert np.allclose(ax, (xs[0] + xs[1]) / 2, atol=1e-14)
    assert np.allclose(ay, (ys[0] + ys[1]) / 2, atol=1e-14)
    assert np.allclose(alam, (lams[0] + lams[1]) / 2, atol=1e-14)
    ax, ay, alam = last
    assert np.allclose(ax, np.mean(xs, axis=0), atol=1e-12)
    assert np.allclose(ay, np.mean(ys, axis=0), atol=1e-12)
    assert np.allclose(alam, np.mean(lams, axis=0), atol=1e-12)


def _running_means(states, counts):
    """Means of (x, y_mid, lam_mid) over the first ``c`` of ``states`` for
    each c in ``counts``: one running sum from zeros, in order."""
    sums = [np.zeros_like(states[0].x), np.zeros_like(states[0].y_mid),
            np.zeros_like(states[0].lam_mid)]
    means = []
    for i, state in enumerate(states, start=1):
        sums = [s + v for s, v in zip(sums, (state.x, state.y_mid, state.lam_mid))]
        if i in counts:
            means.append([s / i for s in sums])
    return means


@pytest.mark.parametrize("start_k", [0, 10])
@pytest.mark.parametrize("variant", [VariantKind.GAL, VariantKind.EGAL])
def test_ergodic_checkpoints_are_running_means_of_the_steps_taken(variant, start_k):
    prob = bp.as_problem(bp.generate(30, 8, 2, 1))
    cfg = SolverConfig(variant=variant)
    start = replace(initial_state(prob), k=start_k)
    counts = [1, 7, 30]
    triples = ergodic_checkpoints(prob, cfg, [start_k + c for c in counts], init=start)
    states = [s for s, _ in itertools.islice(iterate(prob, cfg, start), max(counts))]
    expected = _running_means(states, counts)
    assert len(triples) == len(expected) == 3
    for triple, means in zip(triples, expected):
        assert all(np.array_equal(a, b) for a, b in zip(triple, means))


def _reference_solution(prob):
    rep = solve(
        prob, SolverConfig(variant=VariantKind.EGAL, tol=1e-10, max_iters=200000)
    )
    assert rep.converged
    return rep.state.x, rep.state.y, rep.state.lam


def test_gap_surrogate_zero_at_reference():
    inst = bp.generate(40, 10, 2, 3)
    prob = bp.as_problem(inst)
    ref = _reference_solution(prob)
    assert abs(gap_surrogate(prob, *ref, ref)) <= 1e-9


def _perturbed_start(prob):
    # a deterministic start away from the saddle point; from the plain
    # origin the per-iterate gap terms of this problem class collapse to
    # round-off and the surrogate trend is unmeasurable
    st = initial_state(prob)
    lam0 = np.where(np.arange(st.lam.size) % 2 == 0, 1.0, -1.0)
    return replace(st, x=np.ones_like(st.x), lam=lam0, lam_mid=lam0.copy())


def test_gap_surrogate_nonnegative_and_halving_trend():
    inst = bp.generate(100, 20, 2, 3)
    prob = bp.as_problem(inst)
    ref = _reference_solution(prob)
    cfg = SolverConfig(variant=VariantKind.EGL, tol=0.0, max_iters=2000)
    triples = ergodic_checkpoints(
        prob, cfg, [250, 500, 1000, 2000], init=_perturbed_start(prob)
    )
    gaps = [gap_surrogate(prob, *t, ref) for t in triples]
    assert all(g >= -1e-8 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert 1.5 <= a / b <= 4.0


def test_gap_surrogate_nonincreasing_over_dyadic_checkpoints():
    inst = bp.generate(60, 12, 2, 7)
    prob = bp.as_problem(inst)
    ref = _reference_solution(prob)
    cfg = SolverConfig(variant=VariantKind.EGL, tol=0.0, max_iters=1024)
    marks = [2**j for j in range(4, 11)]
    triples = ergodic_checkpoints(prob, cfg, marks, init=_perturbed_start(prob))
    gaps = [gap_surrogate(prob, *t, ref) for t in triples]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a * 1.1


def test_solve_already_optimal_stops_immediately():
    b = np.zeros(4)
    inst = bp.BasisPursuitInstance(A=np.eye(4), b=b, xhat=b.copy(), s=0, seed=0)
    prob = bp.as_problem(inst)
    rep = solve(prob, SolverConfig(variant=VariantKind.EGL, gamma=0.25))
    assert rep.converged and rep.iterations <= 2


def test_solve_recovers_analytic_l1_minimizer():
    # min |x1| + |x2| s.t. x1 = 1 has the unique solution (1, 0)
    inst = bp.BasisPursuitInstance(
        A=np.array([[1.0, 0.0]]), b=np.array([1.0]), xhat=np.array([1.0, 0.0]),
        s=1, seed=0,
    )
    prob = bp.as_problem(inst)
    rep = solve(prob, SolverConfig(variant=VariantKind.EGL))
    assert rep.converged
    assert np.linalg.norm(rep.state.x - np.array([1.0, 0.0])) <= 1e-3


def test_solve_histories_are_deterministic():
    inst = bp.generate(60, 15, 3, 9)
    prob = bp.as_problem(inst)
    cfg = SolverConfig(variant=VariantKind.EGAL, max_iters=500, tol=0.0)

    def residual_norms():
        steps = itertools.islice(iterate(prob, cfg), cfg.max_iters)
        return [info.residual_norm for _, info in steps]

    first = residual_norms()
    assert first == residual_norms()
    assert len(first) == solve(prob, cfg).iterations


def test_divergence_error_names_variant_and_iteration():
    inst = bp.generate(30, 8, 2, 1)
    prob = bp.as_problem(inst)
    with pytest.raises(DivergenceError) as exc:
        solve(prob, SolverConfig(variant=VariantKind.EGL, gamma=50 / (2 * np.sqrt(2))))
    assert exc.value.variant is VariantKind.EGL
    assert exc.value.iteration >= 1


def test_certificate_zero_at_stationary_points():
    inst = bp.generate(10, 4, 1, 2)
    prob = bp.as_problem(inst)
    rng = np.random.default_rng(0)
    z = (rng.standard_normal(10), rng.standard_normal(10))
    val = extragradient_certificate(prob, 0.3, rng.standard_normal(10), z, z, z)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_certificate_nonpositive_with_admissible_step():
    inst = bp.generate(60, 15, 2, 4)
    prob = bp.as_problem(inst)
    rep = solve(
        prob, SolverConfig(variant=VariantKind.EGL, monitor_certificate=True)
    )
    assert rep.certificate_history
    assert max(rep.certificate_history) <= 1e-10
    assert rep.lemma_violations == 0


def test_certificate_violations_under_oversized_step():
    # deliberately 50x past the admissible range; positive values are
    # logged before the iteration blows up
    inst = bp.generate(100, 20, 2, 0)
    prob = bp.as_problem(inst)
    gamma = 50 / (2 * np.sqrt(2))
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=gamma, monitor_certificate=True)
    vals = []
    with pytest.raises(DivergenceError):
        for _, info in itertools.islice(iterate(prob, cfg), 50):
            vals.append(info.certificate)
    assert any(v > 1e-10 for v in vals)


def test_certificate_not_computed_for_plain_gradient_variants():
    # a plain variant has no certificate: the report says so with None, not a count of 0
    inst = bp.generate(20, 5, 1, 6)
    prob = bp.as_problem(inst)
    rep = solve(
        prob,
        SolverConfig(variant=VariantKind.GAL, monitor_certificate=True, max_iters=50, tol=0.0),
    )
    assert rep.certificate_history is None
    assert rep.lemma_violations is None


def test_auto_step_size_uses_safety_over_lipschitz_bound():
    inst = bp.generate(10, 4, 1, 8)
    prob = bp.as_problem(inst)
    gamma = resolve_gamma(prob, SolverConfig(variant=VariantKind.EGL))
    assert gamma == pytest.approx(0.9 / (2 * np.sqrt(2)), rel=1e-9)
    explicit = resolve_gamma(prob, SolverConfig(variant=VariantKind.EGL, gamma=0.05))
    assert explicit == 0.05


def test_auto_step_size_rejects_a_kkt_bound_that_overflows():
    # a finite declared constant whose square overflows: the bound is inf,
    # which must not give gamma = 0
    prob = bp.as_problem(bp.generate(10, 4, 1, 8))
    huge = replace(prob, smooth_block=replace(prob.smooth_block, lipschitz_constant=1e200))
    with pytest.raises(ValueError, match=r"KKT map bound is inf, not positive and finite"):
        resolve_gamma(huge, SolverConfig(variant=VariantKind.EGL))


@pytest.mark.parametrize(
    "lhat, message",
    [
        (0.0, "is zero"),
        (-1.0, "is -1.0, not positive and finite"),
        (np.inf, "is inf, not positive and finite"),
        (np.nan, "is nan, not positive and finite"),
    ],
)
def test_auto_step_size_needs_a_positive_finite_kkt_bound(monkeypatch, lhat, message):
    monkeypatch.setattr(solver_module, "kkt_lipschitz_bound", lambda problem: lhat)
    prob = bp.as_problem(bp.generate(10, 4, 1, 8))
    with pytest.raises(ValueError, match=rf"step size: the KKT map bound {message}"):
        resolve_gamma(prob, SolverConfig(variant=VariantKind.EGL))


@pytest.mark.parametrize("variant", list(VariantKind))
def test_a_one_row_basis_pursuit_instance_is_solved_to_its_sparse_point(variant):
    # min ||x||_1 s.t. x_1 = 1: the unique solution is (1, 0)
    inst = bp.BasisPursuitInstance(
        A=np.array([[1.0, 0.0]]), b=np.array([1.0]), xhat=np.array([1.0, 0.0]),
        s=1, seed=0,
    )
    prob = bp.as_problem(inst)
    cfg = SolverConfig(variant=variant)
    rep = solve(prob, cfg)
    assert rep.converged
    assert np.linalg.norm(rep.state.x - np.array([1.0, 0.0])) <= 1e-3
    # one iteration and ergodic_checkpoints take the same config
    assert np.all(np.isfinite(next_state(prob, cfg, initial_state(prob)).x))
    [average] = ergodic_checkpoints(prob, cfg, [5])
    assert all(np.all(np.isfinite(part)) for part in average)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(variant=VariantKind.EGL, gamma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(variant=VariantKind.EGL, tol=-1e-3)
    # a long double is checked as the float it is held as: 1e-400 is 0.0, 1e400 inf
    for setting in ({"gamma": np.nan}, {"gamma": np.inf}, {"tol": np.nan}, {"tol": np.inf},
                    {"gamma": np.longdouble("1e-400")}, {"tol": np.longdouble("1e400")}):
        with pytest.raises(ValueError):
            SolverConfig(variant=VariantKind.EGL, **setting)


@pytest.mark.parametrize("bad", ["egal", None, 3])
def test_solver_config_rejects_a_variant_that_is_not_a_variant_kind(bad):
    # used to be accepted, then fail inside the first solve with an AttributeError
    with pytest.raises(ValueError, match="VariantKind.GL, VariantKind.GAL, VariantKind.EGL, "
                                         "VariantKind.EGAL, got"):
        SolverConfig(variant=bad)


def _setting_built(name, value):
    """The object that checks the scalar setting ``name``, built with ``value``."""
    if name in ("alpha", "beta"):
        return fl.FusedLogisticConfig(**{name: value})
    if name == "norm_sq":
        return LinearMap((2, 2), lambda v: v, lambda v: v, value)
    if name == "lipschitz_constant":
        return replace(_scalar_problem().smooth_block, lipschitz_constant=value)
    return SolverConfig(VariantKind.EGL, **{name: value})


@pytest.mark.parametrize("name", ["gamma", "tol", "alpha", "beta"])
@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_a_bool_is_not_a_float_setting(name, flag):
    # gamma=True used to run with step 1.0, tol=False stopped only on an exact fixed point
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        _setting_built(name, flag)


@pytest.mark.parametrize("name", ["tol", "gamma", "alpha", "beta", "norm_sq", "lipschitz_constant"])
@pytest.mark.parametrize("value", ["0.1", None, [1.0], np.array([1.0, 2.0]), np.array([0.1])],
                         ids=["str", "None", "list", "2-vector", "1-vector"])
def test_a_setting_that_is_not_a_number_is_a_value_error_naming_it(name, value):
    # each used to raise a bare TypeError (or NumPy's truth-value error)
    # from the range test, and a 1-vector passed it, to fail later or run;
    # None is gamma's automatic choice, so it passes
    if name == "gamma" and value is None:
        assert _setting_built(name, value).gamma is None
        return
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        _setting_built(name, value)


@pytest.mark.parametrize("name", ["tol", "gamma", "alpha", "beta", "norm_sq", "lipschitz_constant"])
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.array(0.5), 1],
                         ids=["np.float32", "np.float64", "0-d array", "int"])
def test_a_numeric_setting_is_held_as_the_python_float_it_converts_to(name, value):
    # each used to be held as the caller's object: a float32 bound kept
    # Lhat in float32, and a 0-d array weight was an unhashable cache key
    held = getattr(_setting_built(name, value), name)
    assert type(held) is float and held == float(value)


def test_non_integer_iteration_counts_are_rejected():
    # 2.5 used to pass SolverConfig and fail later inside islice, and a
    # mark 2.7 was silently truncated to 2
    # a bool passed operator.index as 0 or 1: max_iters=True ran one step;
    # a 0-d integer array is refused, as it is for a LinearMap's shape
    for bad in (2.5, np.float64(3.0), np.nan, "10", True, False, np.True_, np.False_,
                np.array(5), -1):
        with pytest.raises(ValueError, match="^max_iters must be a nonnegative integer"):
            SolverConfig(variant=VariantKind.EGL, max_iters=bad)
    assert SolverConfig(variant=VariantKind.EGL, max_iters=np.int64(3)).max_iters == 3
    prob = _scalar_problem()
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.1)
    for marks in ([2.7, 3], [np.float64(2.0)], [True], [2, np.True_], [np.array(5)], [-1, 3]):
        with pytest.raises(ValueError, match="^checkpoint must be a nonnegative integer"):
            ergodic_checkpoints(prob, cfg, marks)
    assert len(ergodic_checkpoints(prob, cfg, [np.int64(2), 3])) == 2


def test_ergodic_checkpoints_validation():
    prob = _scalar_problem()
    cfg = SolverConfig(variant=VariantKind.EGL, gamma=0.1)
    with pytest.raises(ValueError):
        ergodic_checkpoints(prob, cfg, [])
    with pytest.raises(ValueError):
        ergodic_checkpoints(prob, cfg, [0, 5])
    triples = ergodic_checkpoints(prob, cfg, [2, 4])
    assert len(triples) == 2


def _counting_subproblem(prob):
    """``prob`` with a prox block that counts its calls, one per step."""
    calls = []
    solve_subproblem = prob.prox_block.solve_subproblem

    def counted(*args):
        calls.append(None)
        return solve_subproblem(*args)

    return replace(prob, prox_block=replace(prob.prox_block, solve_subproblem=counted)), calls


def test_ergodic_checkpoints_count_from_the_start_state():
    # checkpoints are values of state.k: from a start with k = 10, mark 20
    # is 10 new steps away, and marks at or below 10 cannot be reached;
    # the averages are means over the new steps only (mark 12: 2 steps)
    prob, calls = _counting_subproblem(bp.as_problem(bp.generate(30, 8, 2, 1)))
    cfg = SolverConfig(variant=VariantKind.EGL)
    start = replace(initial_state(prob), k=10)
    triples = ergodic_checkpoints(prob, cfg, [20, 12], init=start)
    assert len(calls) == 10
    states = [s for s, _ in itertools.islice(iterate(prob, cfg, start), 10)]
    for triple, steps in zip(triples, (states[:2], states)):
        means = [
            np.mean([s.x for s in steps], axis=0),
            np.mean([s.y_mid for s in steps], axis=0),
            np.mean([s.lam_mid for s in steps], axis=0),
        ]
        assert all(np.allclose(a, b, rtol=1e-13, atol=1e-15) for a, b in zip(triple, means))
    for marks in ([5, 20], [10]):
        with pytest.raises(ValueError, match="above the start's k = 10"):
            ergodic_checkpoints(prob, cfg, marks, init=start)


def test_solve_iterations_include_the_start_and_max_iters_caps_new_steps():
    prob, calls = _counting_subproblem(bp.as_problem(bp.generate(30, 8, 2, 1)))
    cfg = SolverConfig(variant=VariantKind.EGAL, max_iters=5, tol=0.0)
    fresh = solve(prob, cfg)
    assert (fresh.iterations, len(calls)) == (5, 5)
    calls.clear()
    rep = solve(prob, cfg, init=replace(initial_state(prob), k=10))
    assert (rep.iterations, rep.state.k, len(calls), rep.converged) == (15, 15, 5, False)
    assert np.array_equal(rep.state.x, fresh.state.x)


@pytest.mark.parametrize("variant", list(VariantKind))
def test_step_info_norms_equal_the_linalg_norm_formulas(variant):
    # ``r ** 2`` and ``r * r`` differ for about 1 r in 1700, so bp runs
    # long enough to meet such r
    cfg = SolverConfig(variant=variant)
    for name, prob in _certificate_problems():
        prev = initial_state(prob)
        for state, info in itertools.islice(iterate(prob, cfg), 2000 if name == "bp" else 50):
            where = (name, state.k)
            resid = prob.coupling.residual(state.x, state.y_mid)
            assert info.residual.tobytes() == resid.tobytes(), where
            assert info.residual_norm == float(np.linalg.norm(info.residual)), where
            dist_sq = (
                np.linalg.norm(state.y - prev.y) ** 2 + np.linalg.norm(state.lam - prev.lam) ** 2
            )
            assert info.movement == float(np.sqrt(dist_sq)), where
            prev = state


@pytest.mark.parametrize("variant", list(VariantKind))
def test_nonzero_b_is_subtracted_from_the_residual(variant):
    rng = np.random.default_rng(8)
    prob = _l1_quadratic_problem(dense_map(rng.standard_normal((4, 3))), rng.standard_normal(4))
    assert not prob.coupling.b_is_zero
    cfg = SolverConfig(variant=variant, monitor_certificate=True)
    prev = initial_state(prob)
    for state, info in itertools.islice(iterate(prob, cfg), 40):
        resid = prob.coupling.residual(state.x, state.y_mid)
        assert info.residual.tobytes() == resid.tobytes(), state.k
        if variant.extragradient:
            ref = extragradient_certificate(
                prob, resolve_gamma(prob, cfg), state.x, (prev.y, prev.lam),
                (state.y_mid, state.lam_mid), (state.y, state.lam),
            )
            assert info.certificate == ref, state.k
        prev = state


def _reference_case(name):
    """``(problem, monitor_certificate, init)`` of one reference-step case."""
    if name == "dense_nonzero_b":
        rng = np.random.default_rng(8)
        return _l1_quadratic_problem(dense_map(rng.standard_normal((4, 3))), rng.standard_normal(4)), True, None
    if name == "fused_blocks":
        inst = fl.generate_block_pattern(150, 40, 2)
        return fl.as_problem(inst, fl.FusedLogisticConfig()), True, None
    prob = bp.as_problem(bp.generate(60, 15, 2, 4))
    if name == "bp":
        return prob, False, None
    # every third entry of y and lam a negative zero, the rest small values
    start = initial_state(prob)
    rng = np.random.default_rng(3)
    y, lam = start.y.copy(), 0.1 * rng.standard_normal(60)
    y[::3] = lam[::3] = -0.0
    return prob, True, replace(start, y=y, lam=lam, y_mid=y.copy(), lam_mid=lam.copy())


def _bits(v):
    return None if v is None else float(v).hex()


@pytest.mark.parametrize("variant", list(VariantKind))
@pytest.mark.parametrize("case", ["bp", "fused_blocks", "dense_nonzero_b", "bp_negative_zero_start"])
def test_iterate_matches_the_reference_step_bit_for_bit(case, variant):
    prob, monitor, init = _reference_case(case)
    cfg = SolverConfig(variant=variant, monitor_certificate=monitor)
    gamma = resolve_gamma(prob, cfg)
    start = initial_state(prob) if init is None else init
    y, lam = start.y, start.lam
    for state, info in itertools.islice(iterate(prob, cfg, init), 300):
        want, resid_norm, movement, certificate = reference_advance(
            prob, variant, gamma, monitor, y, lam
        )
        for name, ref in zip(("x", "y", "lam", "y_mid", "lam_mid"), want):
            assert getattr(state, name).tobytes() == ref.tobytes(), (state.k, name)
        assert type(info.residual_norm) is float and type(info.movement) is float
        got = (info.residual_norm, info.movement, info.certificate)
        assert list(map(_bits, got)) == list(map(_bits, (resid_norm, movement, certificate))), state.k
        assert (certificate is not None) == (monitor and variant.extragradient)
        y, lam = want[1:3]


@pytest.mark.parametrize("variant", list(VariantKind))
def test_bp_iterates_keep_their_bits_under_a_matmul_projector(variant):
    prob = bp.as_problem(bp.generate(100, 20, 2, 0))
    proj = prob.smooth_block.project
    Q, c = proj._qt.T, proj._c
    by_matmul = replace(
        prob, smooth_block=replace(prob.smooth_block, project=lambda w: w - Q @ (Q.T @ w) + c)
    )
    cfg = SolverConfig(variant=variant)
    runs = (itertools.islice(iterate(p, cfg), 300) for p in (prob, by_matmul))
    for (state, _), (ref, _) in zip(*runs, strict=True):
        for name in ("x", "y", "lam", "y_mid", "lam_mid"):
            assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), (state.k, name)


def test_a_problem_takes_its_sizes_from_its_coupling():
    # no block declares a size: x, y and lam have A's and B's column
    # counts and b's length, 3, 4 and 2 here
    A = LinearMap((2, 3), lambda v: v[:2], lambda w: np.append(w, 0.0), 1.0)
    B = dense_map(np.random.default_rng(5).standard_normal((2, 4)))
    prob = _l1_quadratic_problem(B, np.array([0.5, -1.0]), A=A)
    start = initial_state(prob)
    assert (start.x.size, start.y.size, start.lam.size) == (3, 4, 2)
    for variant in VariantKind:
        rep = solve(prob, SolverConfig(variant, max_iters=5, tol=0.0))
        assert rep.iterations == 5
        state = rep.state
        assert (state.x.shape, state.y.shape, state.lam.shape) == ((3,), (4,), (2,))
        assert all(np.isfinite(v).all() for v in (state.x, state.y, state.lam))


def test_a_nan_only_in_x_plus_is_divergence():
    # A reads the first two of three x entries, so a NaN in the third one
    # reaches neither the residual nor (y, lam): only x+ itself carries it
    A = LinearMap((2, 3), lambda v: v[:2], lambda w: np.append(w, 0.0), 1.0)
    base = _l1_quadratic_problem(identity_map(2, -1.0), np.array([0.5, -1.0]), A=A)
    calls = []

    def nan_at_step_3(*args):
        calls.append(None)
        x = base.prox_block.solve_subproblem(*args)
        if len(calls) == 3:
            x[2] = np.nan
        return x

    prob = replace(base, prox_block=replace(base.prox_block, solve_subproblem=nan_at_step_3))
    for variant in VariantKind:
        calls.clear()
        with pytest.raises(DivergenceError) as exc:
            solve(prob, SolverConfig(variant=variant, tol=0.0, max_iters=10))
        assert (exc.value.variant, exc.value.iteration) == (variant, 3)


@pytest.mark.parametrize("variant", list(VariantKind))
def test_a_residual_past_the_divergence_limit_stops_the_first_iteration(variant):
    # x + y = 0 in one dimension from y = lam = 0, with an x-step that
    # returns x_out: the first residual is x_out, less the midpoint y the
    # augmented variants pull to -gamma^2 x_out (gamma is about 0.26)
    def problem_with_x_step(x_out):
        base = _scalar_problem(rhs=0.0)
        step = replace(base.prox_block, solve_subproblem=lambda *_: np.array([x_out]))
        return replace(base, prox_block=step)

    cfg = SolverConfig(variant=variant, tol=0.0, max_iters=1)
    with pytest.raises(DivergenceError) as exc:
        solve(problem_with_x_step(5e12), cfg)
    assert (exc.value.variant, exc.value.iteration) == (variant, 1)
    assert solve(problem_with_x_step(5e11), cfg).iterations == 1


def test_lemma_violations_count_certificates_above_the_slack(monkeypatch):
    prob = _scalar_problem()
    state = initial_state(prob)

    def certificates(values):
        def fake_iterate(problem, config, init=None):
            for k, value in enumerate(values, start=1):
                yield replace(state, k=k), StepInfo(np.ones(1), 1.0, 1.0, value)
        return fake_iterate

    cfg = SolverConfig(variant=VariantKind.EGAL, monitor_certificate=True)
    monkeypatch.setattr(solver_module, "iterate", certificates([5e-10, 2e-10, -1.0]))
    rep = solve(prob, cfg)
    assert (rep.certificate_history, rep.lemma_violations, rep.iterations) == ([5e-10, 2e-10, -1.0], 2, 3)
    # a certificate equal to the slack is no violation
    monkeypatch.setattr(solver_module, "iterate", certificates([CERTIFICATE_SLACK]))
    assert solve(prob, cfg).lemma_violations == 0


def test_a_solve_never_densifies_a_linear_map(monkeypatch):
    # both front ends couple through LinearMaps that declare norm_sq;
    # densifying one into a matrix would go through __array__
    def no_dense(*_args, **_kwargs):
        raise AssertionError("LinearMap densified")

    monkeypatch.setattr(LinearMap, "__array__", no_dense)
    cfg = SolverConfig(variant=VariantKind.EGAL)
    assert solve(bp.as_problem(bp.generate(40, 10, 2, 3)), cfg).converged
    inst = fl.generate_block_pattern(150, 40, 2)
    rep = solve(fl.as_problem(inst, fl.FusedLogisticConfig()), cfg)
    assert rep.iterations > 0


def _certificate_problems():
    yield "bp", bp.as_problem(bp.generate(100, 20, 2, 0))
    inst = fl.generate_block_pattern(500, 100, 0)
    yield "fused", fl.as_problem(inst, fl.FusedLogisticConfig(alpha=2e-2, beta=5e-2))


@pytest.mark.parametrize("variant", [VariantKind.EGL, VariantKind.EGAL])
def test_monitored_certificate_equals_the_reference_evaluation(variant):
    cfg = SolverConfig(variant=variant, monitor_certificate=True)
    for name, prob in _certificate_problems():
        gamma = resolve_gamma(prob, cfg)
        prev = initial_state(prob)
        for state, info in itertools.islice(iterate(prob, cfg), 50):
            ref = extragradient_certificate(
                prob, gamma, state.x, (prev.y, prev.lam),
                (state.y_mid, state.lam_mid), (state.y, state.lam),
            )
            assert info.certificate == ref, (name, state.k)
            prev = state


@dataclass(frozen=True)
class _CountingCoupling(Coupling):
    calls: Counter = field(default_factory=Counter)

    def apply_a(self, x):
        self.calls["apply_a"] += 1
        return super().apply_a(x)

    def apply_b(self, y):
        self.calls["apply_b"] += 1
        return super().apply_b(y)

    def apply_bt(self, v):
        self.calls["apply_bt"] += 1
        return super().apply_bt(v)


def _calls_per_iteration(prob, cfg):
    """Calls of each product and callable in the second iteration of
    ``iterate``, counted by a ``Coupling`` subclass's overrides and by
    wrappers around the blocks' callables."""
    c = prob.coupling
    coupling = _CountingCoupling(A=c.A, B=c.B, b=c.b)
    calls = coupling.calls

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sm, prox = prob.smooth_block, prob.prox_block
    counted_problem = replace(
        prob,
        coupling=coupling,
        prox_block=replace(prox, solve_subproblem=counted("prox", prox.solve_subproblem)),
        smooth_block=replace(
            sm, gradient=counted("gradient", sm.gradient), project=counted("project", sm.project)
        ),
    )
    steps = iterate(counted_problem, cfg)
    next(steps)
    calls.clear()
    next(steps)
    return dict(calls)


def test_monitored_iteration_reuses_the_products_it_computed():
    # each variant's calls per iteration, monitored or not; the plain
    # variants take one projected step, the extragradient ones two
    problems = {
        "bp": bp.as_problem(bp.generate(100, 20, 2, 0)),
        "fused": fl.as_problem(fl.generate_block_pattern(150, 40, 2), fl.FusedLogisticConfig()),
    }
    for name, prob in problems.items():
        for variant in VariantKind:
            steps = 2 if variant.extragradient else 1
            want = {"prox": 1, "apply_a": 1, "apply_b": 2} | dict.fromkeys(
                ("apply_bt", "gradient", "project"), steps
            )
            for monitor in (False, True):
                cfg = SolverConfig(variant=variant, monitor_certificate=monitor)
                assert _calls_per_iteration(prob, cfg) == want, (name, variant, monitor)


def test_a_running_iterator_keeps_the_callables_it_looked_up(monkeypatch):
    prob = bp.as_problem(bp.generate(60, 15, 2, 4))
    cfg = SolverConfig(variant=VariantKind.EGAL)
    running = iterate(prob, cfg)
    next(running)

    def replaced(self, y):
        raise AssertionError("a replaced product reached the iterator")

    monkeypatch.setattr(Coupling, "apply_b", replaced)
    next(running)
    with pytest.raises(AssertionError, match="replaced product"):
        next(iterate(prob, cfg))


@pytest.mark.parametrize("variant", list(VariantKind))
def test_monitoring_leaves_every_iterate_bit_for_bit(variant):
    problems = (
        bp.as_problem(bp.generate(60, 15, 2, 4)),
        fl.as_problem(fl.generate_block_pattern(150, 40, 2), fl.FusedLogisticConfig()),
    )
    for prob in problems:
        runs = [
            itertools.islice(iterate(prob, SolverConfig(variant=variant, monitor_certificate=m)), 200)
            for m in (False, True)
        ]
        for (plain, _), (monitored, info) in zip(*runs):
            for name in ("x", "y", "lam", "y_mid", "lam_mid"):
                assert getattr(plain, name).tobytes() == getattr(monitored, name).tobytes()
            assert (info.certificate is not None) == variant.extragradient
        assert monitored.k == 200


_FRONT_ENDS = (
    (lambda: bp.generate(60, 15, 2, 4), bp.as_problem, ("projector", "problem")),
    (
        lambda: fl.generate_block_pattern(150, 40, 2),
        lambda inst: fl.as_problem(inst, fl.FusedLogisticConfig()),
        # the augmented matrix ``aux`` is built with the instance, not on first use
        ("lipschitz", "coupling", "smooth_block"),
    ),
)


@pytest.mark.parametrize("variant", list(VariantKind))
def test_a_warm_instance_gives_the_bits_of_a_fresh_one(variant):
    config = SolverConfig(variant=variant)
    for make, as_problem, cached in _FRONT_ENDS:
        warm = make()
        solve(as_problem(warm), replace(config, max_iters=5))
        # the same data in a new object, whose set-up is not built yet
        fresh = replace(warm)
        assert all(name in vars(warm) and name not in vars(fresh) for name in cached)
        runs = [itertools.islice(iterate(as_problem(inst), config), 200) for inst in (warm, fresh)]
        for (a, _), (b, _) in zip(*runs):
            for name in ("x", "y", "lam", "y_mid", "lam_mid"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert b.k == 200


@pytest.mark.parametrize("variant", list(VariantKind))
def test_solve_without_a_stop_rule_runs_default_stop_rule(variant):
    prob = bp.as_problem(bp.generate(100, 20, 2, 3))
    config = SolverConfig(variant=variant, tol=1e-3)
    plain = solve(prob, config)
    ruled = solve(prob, config, stop_rule=default_stop_rule(config.tol))
    assert plain.converged and (plain.iterations, plain.converged) == (ruled.iterations, ruled.converged)
    for name in ("x", "y", "lam", "y_mid", "lam_mid"):
        assert getattr(plain.state, name).tobytes() == getattr(ruled.state, name).tobytes()


def test_default_stop_rule_needs_both_the_residual_and_the_movement_below_tol():
    rule = default_stop_rule(1e-4)
    assert rule(StepInfo(np.zeros(2), 9e-5, 9e-5))
    assert not rule(StepInfo(np.zeros(2), 1e-4, 0.0))
    assert not rule(StepInfo(np.zeros(2), 0.0, 1e-4))
    assert not rule(StepInfo(np.zeros(2), np.nan, 0.0))


def test_each_instance_names_its_front_ends_stop_rule():
    assert bp.BasisPursuitInstance.stop_rule is default_stop_rule
    assert fl.FusedLogisticInstance.stop_rule is fl.stop_rule
    assert bp.generate(30, 8, 2, 1).stop_rule is default_stop_rule
    assert fl.generate_block_pattern(130, 20, 1).stop_rule is fl.stop_rule
