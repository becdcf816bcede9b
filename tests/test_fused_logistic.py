import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egadm import fused_logistic as fl
from egadm.operators import l1_prox
from egadm.problem import kkt_lipschitz_bound, lagrangian
from egadm.solver import SolverConfig, StepInfo, VariantKind, initial_state, solve
from oracles import (
    central_diff_gradient, fused_midpoint_transcription, jacobi_eigenvalues, logistic_gradient,
    masked_sigmoid, next_state, traced_call,
)


def _tiny_instance(m=4, n=3, seed=42, c_true=0.3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    xh = np.linspace(1.0, -0.5, n)
    labels = np.where(A @ xh + c_true >= 0, 1.0, -1.0)
    return fl.FusedLogisticInstance(A=A, labels=labels, xhat=xh, c_true=c_true, seed=seed)


def _instance_of(A, labels):
    """A ``FusedLogisticInstance`` of this data, for its ``smooth_block``:
    the loss and gradient callables a solve runs, at stacked points
    ``[y, c]``."""
    return fl.FusedLogisticInstance(
        A=A, labels=labels, xhat=np.zeros(A.shape[1]), c_true=0.0, seed=0
    )


def test_logistic_value_at_origin_is_log_two():
    loss = _tiny_instance().smooth_block.evaluate
    assert loss(np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)


def test_logistic_value_vanishes_for_separating_intercept():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    loss = _instance_of(A, np.ones(6)).smooth_block.evaluate
    assert loss(np.append(np.zeros(4), 50.0)) <= 1e-20


def test_logistic_value_matches_naive_formula():
    rng = np.random.default_rng(1)
    inst = _tiny_instance(m=12, n=5)
    for _ in range(20):
        y = rng.standard_normal(5)
        c = float(rng.standard_normal())
        t = inst.labels * (inst.A @ y + c)
        naive = float(np.mean(np.log1p(np.exp(-t))))
        assert inst.smooth_block.evaluate(np.append(y, c)) == pytest.approx(naive, rel=1e-12)


def test_logistic_value_is_overflow_safe():
    loss = _tiny_instance().smooth_block.evaluate
    for c in (-1e4, 1e4):
        assert np.isfinite(loss(np.append(np.full(3, c / 10), c)))


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    special = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 800.0, -800.0, np.inf, -np.inf]
    rng = np.random.default_rng(4)
    for t in (np.array(special), rng.standard_normal(5000) * 40, rng.standard_normal(500)):
        assert fl._sigmoid(t).tobytes() == masked_sigmoid(t).tobytes()
    # a NaN stays NaN; only its sign bit may differ from the masked form
    assert np.isnan(fl._sigmoid(np.array([np.nan, -np.nan]))).all()


def test_logistic_gradient_at_origin():
    inst = _tiny_instance(m=8, n=4)
    grad = inst.smooth_block.gradient(np.zeros(5))
    signed = inst.labels[:, None] * inst.A
    assert np.allclose(grad[:4], -signed.T @ np.ones(8) / 16.0, rtol=1e-13)
    assert grad[4] == pytest.approx(-np.sum(inst.labels) / 16.0, rel=1e-13)


def test_logistic_gradient_intercept_zero_for_balanced_labels():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 3))
    labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    grad = _instance_of(A, labels).smooth_block.gradient(np.zeros(4))
    assert grad[3] == pytest.approx(0.0, abs=1e-15)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    smooth = _tiny_instance(m=15, n=6).smooth_block
    for _ in range(20):
        z = rng.standard_normal(7)
        grad = smooth.gradient(z)
        fd = central_diff_gradient(smooth.evaluate, z)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(grad), 1e-12)


def _split_gradient(aux, z):
    # the (y, c) formula with the intercept added apart from the data product
    n = z.size - 1
    r = 1.0 - fl._sigmoid(aux.signed @ z[:n] + aux.labels * z[n])
    return np.concatenate([-(aux.signed.T @ r) / aux.m, [-float(aux.labels @ r) / aux.m]])


@pytest.mark.parametrize("pattern", ["simple", "blocks"])
def test_smooth_gradient_matches_the_split_formula(pattern):
    for s in range(3):
        if pattern == "simple":
            inst = fl.generate_simple_pattern(1000, s, m=500)
        else:
            inst = fl.generate_block_pattern(500, 100, s)
        gradient = fl.as_problem(inst, fl.FusedLogisticConfig()).smooth_block.gradient
        aux = fl.LogisticAux.from_data(inst.A, inst.labels)
        rng = np.random.default_rng(s)
        planted = np.append(inst.xhat, inst.c_true)
        for z in (rng.standard_normal(inst.n + 1), planted, 100.0 * planted):
            split = _split_gradient(aux, z)
            assert np.linalg.norm(gradient(z) - split) <= 1e-15 * np.linalg.norm(split)
            # and the bits of the one-formula oracle, at the gemv sizes of the benchmark
            assert gradient(z).tobytes() == logistic_gradient(aux.data, z).tobytes()


@st.composite
def _logistic_points(draw):
    """Data ``A`` and labels of up to 8 x 5, and a stacked point ``z`` whose
    margins reach both signs, zero, and past 745 in magnitude, where
    ``exp(-|t|)`` underflows to 0."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-10.0, 10.0)))
    labels = draw(arrays(np.float64, m, elements=st.sampled_from([-1.0, 1.0])))
    z = draw(st.one_of(
        st.just(np.zeros(n + 1)),
        arrays(np.float64, n + 1, elements=st.floats(-1e4, 1e4)),
    ))
    return A, labels, z


_EDGE_DATA = (np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(_logistic_points())
@example((*_EDGE_DATA, np.zeros(2)))                # t = +0.0 in every row
@example((*_EDGE_DATA, np.array([-0.0, -0.0])))     # still +0.0: a gemv sums from +0.0
@example((*_EDGE_DATA, np.array([800.0, -1600.0])))  # t = -800 and 3200
@example((*_EDGE_DATA, np.array([0.25, -1.0])))     # t = -0.75 and 0.5
def test_the_solvers_logistic_gradient_gives_the_bits_of_its_formula(case):
    # the gradient a solve runs, with its bound products and 0-d operands,
    # against the formula written with ``@`` and Python numbers.  A margin
    # of -0.0 cannot come out of the gemv ``data @ z``;
    # test_sigmoid_equals_the_masked_form_bit_for_bit covers that input.
    A, labels, z = case
    inst = _instance_of(A, labels)
    want = logistic_gradient(inst.aux.data, z)
    assert inst.smooth_block.gradient(z).tobytes() == want.tobytes()


_residuals = arrays(
    np.float64, st.integers(1, 20),
    elements=st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@settings(max_examples=300, deadline=None)
@given(_residuals, st.floats(0.0, 1e3))
@example(np.array([0.0, np.nan]), 1.0)
@example(np.array([-0.0, -1e-3, 1e-3]), 1e-3)
def test_the_fused_stop_rule_is_the_max_abs_residual_below_tol(r, tol):
    stop = fl.stop_rule(tol)(StepInfo(r, 0.0, 0.0))
    assert bool(stop) == bool(np.abs(r).max() < tol)
    if np.isnan(r).any():  # a NaN residual never stops the run
        assert not stop


def test_aux_signed_and_labels_are_views_of_the_augmented_matrix():
    inst = _tiny_instance(m=6, n=4)
    aux = fl.LogisticAux.from_data(inst.A, inst.labels)
    assert aux.data.shape == (6, 5)
    assert np.shares_memory(aux.signed, aux.data)
    assert np.shares_memory(aux.labels, aux.data)
    assert np.array_equal(aux.signed, inst.labels[:, None] * inst.A)
    assert np.array_equal(aux.labels, inst.labels)


def test_from_data_rejects_labels_of_the_wrong_shape():
    A = np.ones((20, 200))
    with pytest.raises(ValueError, match=r"\(20, 200\).*\(1,\)"):
        fl.LogisticAux.from_data(A, np.ones(1))
    with pytest.raises(ValueError, match=r"\(20, 1\)"):
        fl.LogisticAux.from_data(A, np.ones((20, 1)))
    with pytest.raises(ValueError, match=r"\(200,\)"):
        fl.LogisticAux.from_data(np.ones(200), np.ones(200))
    # the instance builds its augmented matrix at construction, so a
    # mismatch is refused there, before any solve
    with pytest.raises(ValueError, match="one label per row"):
        fl.FusedLogisticInstance(A=A, labels=np.ones(1), xhat=np.zeros(200), c_true=0.0, seed=0)
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        fl.FusedLogisticInstance(A=A, labels=np.zeros(20), xhat=np.zeros(200), c_true=0.0, seed=0)


_LABELS = st.sampled_from([-1.0, 1.0, -0.0, 0.0, 0.5, -1.0000000000000002, 0.9999999999999999,
                           2.0, np.inf, -np.inf, np.nan, 5e-324])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_LABELS, st.floats()), min_size=1, max_size=6))
@example([-1.0, 1.0, 1.0])
@example([1.0, -0.0])
@example([np.nan])
def test_from_data_takes_the_labels_that_are_exactly_minus_or_plus_one(labels):
    # the set np.isin(labels, (-1.0, 1.0)) takes; a refusal is a LabelError,
    # which is a ValueError
    labels = np.array(labels)
    A = np.ones((labels.size, 2))
    if np.isin(labels, (-1.0, 1.0)).all():
        assert fl.LogisticAux.from_data(A, labels).labels.tobytes() == labels.tobytes()
    else:
        with pytest.raises(fl.LabelError, match="^labels must be exactly -1 or \\+1$"):
            fl.LogisticAux.from_data(A, labels)


def test_logistic_lipschitz_rank_one():
    A = np.array([[3.0, 4.0]])
    aux = fl.LogisticAux.from_data(A, np.array([1.0]))
    assert fl.logistic_lipschitz(aux) == pytest.approx((25.0 + 1.0) / 4.0, rel=1e-9)


def test_logistic_lipschitz_is_exact_not_a_lower_estimate():
    # the step-size rule needs an upper bound, so the constant must not
    # fall short of the augmented matrix's squared top singular value
    inst = fl.generate_simple_pattern(1000, 1, m=500)
    aux = fl.LogisticAux.from_data(inst.A, inst.labels)
    augmented = np.hstack([aux.signed, aux.labels[:, None]])
    expected = np.linalg.svd(augmented, compute_uv=False)[0] ** 2 / (4.0 * aux.m)
    assert fl.logistic_lipschitz(aux) == pytest.approx(expected, rel=1e-12)


def test_logistic_lipschitz_wide_and_tall_match_the_svd():
    # wide data takes M M^T, tall data the (n+1)-square Gram matrix M^T M
    for m, n in ((4, 9), (8, 8), (9, 8), (20, 5)):
        inst = _tiny_instance(m=m, n=n)
        aux = fl.LogisticAux.from_data(inst.A, inst.labels)
        augmented = np.hstack([aux.signed, aux.labels[:, None]])
        expected = np.linalg.svd(augmented, compute_uv=False)[0] ** 2 / (4.0 * m)
        assert fl.logistic_lipschitz(aux) == pytest.approx(expected, rel=1e-12), (m, n)
        for bad, match in ((np.nan, "non-finite entries"), (1e200, "overflows float64")):
            broken = aux.data.copy()
            broken[1, 2] = bad
            with pytest.raises(ValueError, match=match):
                fl.logistic_lipschitz(fl.LogisticAux(broken))


def test_logistic_lipschitz_bounds_sampled_gradient_differences():
    rng = np.random.default_rng(4)
    inst = _tiny_instance(m=20, n=5)
    aux = fl.LogisticAux.from_data(inst.A, inst.labels)
    lip = fl.logistic_lipschitz(aux)
    gradient = inst.smooth_block.gradient
    for _ in range(1000):
        z1, z2 = rng.standard_normal(6), rng.standard_normal(6)
        diff = np.linalg.norm(gradient(z1) - gradient(z2))
        assert diff <= lip * np.linalg.norm(z1 - z2) * (1 + 1e-12)


def test_logistic_lipschitz_row_scaling():
    inst = _tiny_instance(m=10, n=4)
    aux = fl.LogisticAux.from_data(inst.A, inst.labels)
    doubled = fl.LogisticAux.from_data(2.0 * inst.A, inst.labels)
    base = fl.logistic_lipschitz(aux)
    big = fl.logistic_lipschitz(doubled)
    # quadruples up to the unscaled intercept column's contribution
    assert big <= 4.0 * base + 1e-12
    from egadm.linalg import spectral_norm_sq

    assert big >= spectral_norm_sq(2.0 * aux.signed) / (4.0 * aux.m) - 1e-12


def test_difference_matrix_consistency():
    # the difference rows of the fused map against a dense L built from np.eye
    n = 6
    B = fl.fused_coupling(n)
    L = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(n)
    w = rng.standard_normal(n - 1)
    z = np.concatenate([v, [0.0]])
    u = np.concatenate([np.zeros(n), w])
    assert np.allclose(B @ z, np.concatenate([-v, -(L @ v)]), atol=1e-15)
    assert np.allclose((B.T @ u)[:n], -(L.T @ w), atol=1e-15)
    assert (B.T @ u)[n] == 0.0
    assert (B @ z) @ u == pytest.approx(z @ (B.T @ u), rel=1e-12)


def test_fused_coupling_products_equal_the_concatenated_forms_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 50):
        B = fl.fused_coupling(n)
        for shape in ((), (3,)):
            z = rng.standard_normal((n + 1,) + shape)
            v = rng.standard_normal((2 * n - 1,) + shape)
            v[0] = -0.0
            fwd = np.concatenate([-z[:n], z[1:n] - z[: n - 1]])
            back = np.zeros((n + 1,) + shape)
            back[:n] = -v[:n]
            back[1:n] += v[n:]
            back[: n - 1] -= v[n:]
            assert (B @ z).tobytes() == fwd.tobytes()
            assert (B.T @ v).tobytes() == back.tobytes()


def test_difference_matrix_nonpositive_on_monotone_input():
    # rows n.. of B z are -(L y) = y_{j+1} - y_j, nonnegative for increasing y
    B = fl.fused_coupling(7)
    v = np.array([-3.0, -1.0, 0.0, 0.0, 2.0, 2.5, 9.0])
    out = B @ np.concatenate([v, [5.0]])
    assert np.array_equal(out[:7], -v)
    assert np.all(out[7:] >= 0.0)


def test_generate_simple_pattern_support():
    inst = fl.generate_simple_pattern(1000, 3)
    support = np.flatnonzero(inst.xhat)
    expected = np.concatenate(
        [np.arange(0, 100), np.arange(200, 300), np.arange(400, 500), np.arange(600, 700)]
    )
    assert np.array_equal(support, expected)
    heights = [inst.xhat[0], inst.xhat[200], inst.xhat[400], inst.xhat[600]]
    assert all(0 < h < 20 for h in heights)
    for lo, hi in ((0, 100), (200, 300), (400, 500), (600, 700)):
        assert np.all(inst.xhat[lo:hi] == inst.xhat[lo])
    with pytest.raises(ValueError):
        fl.generate_simple_pattern(999, 0)


def test_generate_block_pattern_counts():
    inst = fl.generate_block_pattern(500, 100, 1)
    assert np.count_nonzero(inst.xhat) == 41
    assert inst.A.shape == (100, 500)
    with pytest.raises(ValueError):
        fl.generate_block_pattern(125, 10, 0)


def test_generators_are_deterministic_and_labels_consistent():
    a = fl.generate_block_pattern(200, 40, 9)
    b = fl.generate_block_pattern(200, 40, 9)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.labels, b.labels)
    assert a.c_true == b.c_true
    assert np.all(np.isin(a.labels, (-1.0, 1.0)))
    recomputed = np.where(a.A @ a.xhat + a.c_true >= 0, 1.0, -1.0)
    assert np.array_equal(a.labels, recomputed)


def test_sparsity_report_basics():
    assert fl.sparsity_report(np.zeros(10)) == (0, 0)
    assert fl.sparsity_report(np.full(7, 3.0)) == (7, 0)
    assert fl.sparsity_report(np.array([])) == (0, 0)


def test_sparsity_report_threshold_is_one_millionth_of_the_largest_entry():
    # 5e-6 lies above 1e-6 * 1.0: it counts, and so do both differences
    assert fl.sparsity_report(np.array([1.0, 5e-6, 0.0])) == (2, 2)


def test_sparsity_report_counts_exact_nonzeros_where_the_threshold_underflows():
    # 1e-6 * 5e-324 rounds to 0, which used to raise "threshold must be positive"
    assert fl.sparsity_report(np.array([5e-324, 0.0])) == (1, 1)
    assert fl.sparsity_report(np.array([-5e-324, -5e-324, 0.0])) == (2, 1)


def test_sparsity_report_counts_a_difference_that_overflows():
    # 1e308 - (-1e308) overflows to inf, above the threshold 1e-6 * 1e308;
    # under the suite's warning filter an overflow warning would fail this
    assert fl.sparsity_report(np.array([1e308, -1e308])) == (2, 1)
    assert fl.sparsity_report(np.array([-1.7e308, 1.7e308, 1.7e308])) == (3, 1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sparsity_report_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="x has non-finite entries"):
        fl.sparsity_report(np.array([bad, 1.0]))


def test_sparsity_report_on_planted_blocks():
    inst = fl.generate_block_pattern(500, 50, 0)
    # 41 nonzeros; the pattern has 7 level changes (counted directly)
    assert fl.sparsity_report(inst.xhat) == (41, 7)


def test_problem_coupling_spectrum_small_case():
    inst = _tiny_instance(m=4, n=3)
    prob = fl.as_problem(inst, fl.FusedLogisticConfig())
    B = np.asarray(prob.coupling.B)
    lmax = jacobi_eigenvalues(B.T @ B)[-1]
    assert lmax == pytest.approx(4.0, rel=1e-10)
    lg = prob.smooth_block.lipschitz_constant
    assert kkt_lipschitz_bound(prob) == pytest.approx(
        np.sqrt(max(2 * lg * lg + 4.0, 8.0)), rel=1e-8
    )


def test_problem_prox_block_is_two_shrinks():
    inst = _tiny_instance(m=5, n=4)
    cfg = fl.FusedLogisticConfig(alpha=0.3, beta=0.7)
    prob = fl.as_problem(inst, cfg)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(4)
    lam = rng.standard_normal(7)
    gamma = 0.25
    z = np.concatenate([y, [0.4]])
    offset = prob.coupling.apply_b(z) - prob.coupling.b
    out = prob.prox_block.solve_subproblem(offset, lam, gamma)
    from egadm.operators import shrink

    assert np.allclose(out[:4], shrink(y + lam[:4] / gamma, cfg.alpha / gamma), atol=1e-14)
    ly = y[:-1] - y[1:]
    assert np.allclose(out[4:], shrink(ly + lam[4:] / gamma, cfg.beta / gamma), atol=1e-14)


def test_prox_is_l1_prox_of_the_penalty_weights():
    cfg = fl.FusedLogisticConfig(alpha=0.3, beta=0.7)
    prox = fl.as_problem(_tiny_instance(m=5, n=4), cfg).prox_block.solve_subproblem
    weights = np.array([cfg.alpha] * 4 + [cfg.beta] * 3)
    rng = np.random.default_rng(9)
    for gamma in (0.1, 0.05, 0.1, 2.0):
        args = rng.standard_normal((2, 7))
        want = l1_prox(weights)(*args, gamma)
        assert prox(*args, gamma).tobytes() == want.tobytes(), gamma


def test_prox_block_value_is_the_two_weighted_l1_norms():
    cfg = fl.FusedLogisticConfig(alpha=0.3, beta=0.7)
    evaluate = fl.as_problem(_tiny_instance(m=5, n=4), cfg).prox_block.evaluate
    # x = (1, -2, 0, 3) and w = (-0.5, 0.25, 1): 0.3 * 6 + 0.7 * 1.75
    assert evaluate(np.array([1.0, -2.0, 0.0, 3.0, -0.5, 0.25, 1.0])) == pytest.approx(3.025)
    assert evaluate(np.zeros(7)) == 0.0


def test_lagrangian_of_the_fused_problem_equals_the_hand_formula():
    # loss + alpha |x|_1 + beta |w|_1 - <lam, (x - y, w - L y)>, (L y)_j = y_j - y_{j+1}
    inst = _tiny_instance(m=6, n=3)
    alpha, beta = 0.2, 0.5
    prob = fl.as_problem(inst, fl.FusedLogisticConfig(alpha=alpha, beta=beta))
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, w, y = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(3)
        c = float(rng.standard_normal())
        lam = rng.standard_normal(5)
        loss = np.mean(np.log1p(np.exp(-inst.labels * (inst.A @ y + c))))
        penalties = alpha * np.sum(np.abs(x)) + beta * np.sum(np.abs(w))
        residual = np.concatenate([x - y, w - (y[:-1] - y[1:])])
        got = lagrangian(prob, np.concatenate([x, w]), np.append(y, c), lam)
        assert got == pytest.approx(loss + penalties - lam @ residual, rel=1e-12, abs=1e-14)


def test_trajectory_matches_line_by_line_transcription():
    inst = _tiny_instance()
    alpha, beta, gamma = 0.05, 0.1, 0.1
    prob = fl.as_problem(inst, fl.FusedLogisticConfig(alpha=alpha, beta=beta))
    cfg = SolverConfig(variant=VariantKind.EGAL, gamma=gamma)
    oracle = fused_midpoint_transcription(inst.A, inst.labels, alpha, beta, gamma, 50)
    state = initial_state(prob)
    n = 3
    for ox, ow, oyb, ocb, ol1b, ol2b, oy, oc, ol1, ol2 in oracle:
        state = next_state(prob, cfg, state)
        assert np.max(np.abs(state.x[:n] - ox)) <= 1e-12
        assert np.max(np.abs(state.x[n:] - ow)) <= 1e-12
        assert np.max(np.abs(state.y_mid[:n] - oyb)) <= 1e-12
        assert abs(state.y_mid[n] - ocb) <= 1e-12
        assert np.max(np.abs(state.lam_mid[:n] - ol1b)) <= 1e-12
        assert np.max(np.abs(state.lam_mid[n:] - ol2b)) <= 1e-12
        assert np.max(np.abs(state.y[:n] - oy)) <= 1e-12
        assert abs(state.y[n] - oc) <= 1e-12
        assert np.max(np.abs(state.lam[:n] - ol1)) <= 1e-12
        assert np.max(np.abs(state.lam[n:] - ol2)) <= 1e-12


def test_unregularized_solve_decreases_loss():
    inst = _tiny_instance(m=30, n=4, seed=7)
    loss = inst.smooth_block.evaluate
    initial = loss(np.zeros(5))
    rep = fl.solve_fused(
        inst, fl.FusedLogisticConfig(alpha=0.0, beta=0.0), max_iters=500, tol=1e-6
    )
    assert loss(rep.state.y) < initial


def test_simple_pattern_recovers_block_structure():
    inst = fl.generate_simple_pattern(1000, 6)
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig())
    assert rep.converged
    x = rep.state.x[: inst.n]
    blocks = ((0, 100), (200, 300), (400, 500), (600, 700))
    mask = np.zeros(1000, bool)
    for lo, hi in blocks:
        mask[lo:hi] = True
    means = np.array([np.mean(x[lo:hi]) for lo, hi in blocks])
    stds = np.array([np.std(x[lo:hi]) for lo, hi in blocks])
    assert np.all(means > 0)
    assert np.all(stds <= 0.15 * np.abs(means))
    # off-support coefficients are small on average next to the blocks
    assert np.mean(np.abs(x[~mask])) <= 0.1 * np.min(means)
    cos = x @ inst.xhat / (np.linalg.norm(x) * np.linalg.norm(inst.xhat))
    assert cos >= 0.95


def test_block_pattern_sparsity_counts_in_range():
    inst = fl.generate_block_pattern(500, 100, 0)
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig(alpha=2e-2, beta=5e-2))
    assert rep.converged and rep.iterations <= 2500
    l0, tv0 = fl.sparsity_report(rep.state.x[: inst.n])
    assert 20 <= l0 <= 120
    assert 6 <= tv0 <= 120


def test_as_problem_memory_is_linear_in_n():
    # a dense identity A alone would take 8 * (2n-1)^2 bytes = 3.2 GB here
    inst = fl.generate_block_pattern(10_000, 10, 0)
    tracemalloc.start()
    try:
        fl.as_problem(inst, fl.FusedLogisticConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig(), max_iters=3)
    assert rep.iterations == 3 and np.all(np.isfinite(rep.state.x))


def test_config_validation():
    with pytest.raises(ValueError):
        fl.FusedLogisticConfig(alpha=-1.0)
    for weights in ({"alpha": np.nan}, {"beta": np.nan}, {"alpha": np.inf}, {"beta": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            fl.FusedLogisticConfig(**weights)
    with pytest.raises(ValueError):
        fl.LogisticAux.from_data(np.eye(2), np.array([1.0, 0.5]))


def test_solve_fused_is_solve_with_the_fused_stop_rule():
    inst = fl.generate_block_pattern(130, 20, 1)
    cfg = fl.FusedLogisticConfig(alpha=2e-2)
    rep = fl.solve_fused(inst, cfg, variant=VariantKind.GAL, tol=1e-3, max_iters=5000)
    config = SolverConfig(variant=VariantKind.GAL, tol=1e-3, max_iters=5000)
    ref = solve(fl.as_problem(inst, cfg), config, stop_rule=fl.stop_rule(1e-3))
    assert rep.converged and (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
    assert np.array_equal(rep.state.x, ref.state.x)
    # the rule reads the largest residual component only, not the 2-norm
    below = fl.stop_rule(1e-3)
    assert below(StepInfo(np.array([9e-4, -9e-4, 9e-4]), 1.6e-3, 1.0))
    assert not below(StepInfo(np.array([0.0, -1e-3]), 1e-3, 0.0))


def test_instance_keeps_read_only_copies_of_its_arrays():
    rng = np.random.default_rng(1)
    given = {"A": rng.standard_normal((4, 3)), "labels": np.array([1, -1, -1, 1]),
             "xhat": np.array([0.5, 0.5, 0.0])}
    before = {name: v.copy() for name, v in given.items()}
    inst = fl.FusedLogisticInstance(c_true=0.1, seed=0, **given)
    for name, v in given.items():
        held = getattr(inst, name)
        assert held.dtype == np.float64 and np.array_equal(held, before[name])
        assert not held.flags.writeable and not np.shares_memory(held, v)
        with pytest.raises(ValueError):
            held.flat[0] = 7.0
        v.flat[0] = 7  # the caller's array stays writable
        assert np.array_equal(held, before[name])
    # the augmented matrix is built at construction and holds the data
    # once: labels is a view of its last column, A is rebuilt on each access
    assert "aux" in vars(inst) and "A" not in vars(inst)
    assert not inst.aux.data.flags.writeable
    assert np.shares_memory(inst.labels, inst.aux.data)
    assert inst.A is not inst.A and not np.shares_memory(inst.A, inst.aux.data)
    assert (inst.m, inst.n, inst.problem_id) == (4, 3, "fused_custom_m4_n3")


finite_entries = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def data_and_labels(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = draw(arrays(float, (m, n), elements=finite_entries))
    labels = draw(arrays(float, m, elements=st.sampled_from([-1.0, 1.0])))
    return A, labels


@settings(max_examples=80, deadline=None)
@given(data_and_labels())
@example((np.array([[-0.0, 0.0, 5e-324], [-5e-324, 1.7976931348623157e308, -2.2e-308]]),
          np.array([-1.0, 1.0])))
@example((np.array([[-0.0, 0.0, -5e-324, -1.7976931348623157e308]]), np.array([-1.0])))
def test_instance_A_gives_back_the_constructors_bits(case):
    A, labels = case
    inst = fl.FusedLogisticInstance(A=A, labels=labels, xhat=np.zeros(A.shape[1]), c_true=0.0, seed=0)
    held = inst.A
    # signed zeros, subnormals and the largest finite entries all survive
    # the trip through [diag(labels) A, labels] and back
    assert held.dtype == np.float64 and held.flags.c_contiguous
    assert held.shape == A.shape and held.tobytes() == A.tobytes()
    assert not held.flags.writeable
    assert not np.shares_memory(held, A) and not np.shares_memory(held, inst.aux.data)


def test_a_fused_instance_holds_its_data_once():
    # the instance keeps one m x (n+1) float64 matrix, the augmented one,
    # both once built and after a first solve: no copy of A beside it
    m, n = 200, 2000
    rng = np.random.default_rng(5)
    A = rng.standard_normal((m, n))
    labels = np.where(rng.standard_normal(m) >= 0.0, 1.0, -1.0)
    data_bytes = 8 * m * (n + 1)

    def build():
        return fl.FusedLogisticInstance(A=A, labels=labels, xhat=np.zeros(n), c_true=0.0, seed=0)

    inst, held, _ = traced_call(build)
    assert data_bytes <= held < 1.05 * data_bytes
    inst = None
    # a first solve imports scipy.linalg, whose module objects would count
    fl.solve_fused(_tiny_instance(), fl.FusedLogisticConfig(), max_iters=1)

    def build_and_solve():
        inst = build()
        return inst, fl.solve_fused(inst, fl.FusedLogisticConfig(), max_iters=5)

    (inst, report), held, _ = traced_call(build_and_solve)
    assert report.iterations == 5
    assert data_bytes <= held < 1.1 * data_bytes


def test_four_solves_of_one_instance_compute_the_lipschitz_constant_once(monkeypatch):
    calls, couplings = [], []
    real, real_coupling = fl.logistic_lipschitz, fl.Coupling

    def counting(aux):
        calls.append(aux)
        return real(aux)

    def counting_coupling(**parts):
        couplings.append(parts)
        return real_coupling(**parts)

    monkeypatch.setattr(fl, "logistic_lipschitz", counting)
    monkeypatch.setattr(fl, "Coupling", counting_coupling)
    inst = fl.generate_block_pattern(140, 30, 2)
    # the coupling depends on the instance alone, so a weight path shares it too
    for variant, alpha in zip(VariantKind, (2e-2, 2e-2, 1e-2, 5e-3)):
        fl.solve_fused(inst, fl.FusedLogisticConfig(alpha=alpha), variant=variant, max_iters=5)
    assert len(calls) == 1 and calls[0] is inst.aux
    assert len(couplings) == 1


def test_replace_gives_a_new_instance_with_its_own_set_up():
    inst = fl.generate_block_pattern(140, 30, 2)
    aux, lip = inst.aux, inst.lipschitz
    # two configs share the instance's coupling and smooth block, not the prox
    first, second = (fl.as_problem(inst, fl.FusedLogisticConfig(alpha=a)) for a in (1e-2, 2e-2))
    assert first.coupling is second.coupling is inst.coupling
    assert first.smooth_block is second.smooth_block is inst.smooth_block
    assert first.prox_block is not second.prox_block
    doubled = dataclasses.replace(inst, A=2.0 * inst.A)
    assert inst.aux is aux and inst.lipschitz == lip and doubled.aux is not aux
    assert doubled.coupling is not inst.coupling
    assert doubled.smooth_block is not inst.smooth_block
    assert np.array_equal(doubled.aux.data, fl.LogisticAux.from_data(2.0 * inst.A, inst.labels).data)
    assert doubled.lipschitz == fl.logistic_lipschitz(doubled.aux) > lip
    prob = fl.as_problem(doubled, fl.FusedLogisticConfig())
    assert prob.smooth_block.lipschitz_constant == doubled.lipschitz
    # a replace that leaves A out rebuilds the same augmented matrix from
    # the derived A, and one that breaks the labels fails right there
    moved = dataclasses.replace(inst, c_true=0.5)
    assert moved.aux is not aux and moved.aux.data.tobytes() == aux.data.tobytes()
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        dataclasses.replace(inst, labels=np.zeros(inst.m))
