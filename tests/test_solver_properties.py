"""Property tests of the solver on small random basis-pursuit instances:
the automatic step size keeps the extragradient certificate nonpositive,
and an explicit step size that is too large fails loudly, never with NaN."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from egadm import basis_pursuit as bp
from egadm.solver import CERTIFICATE_SLACK, DivergenceError, SolverConfig, VariantKind, iterate, solve


@st.composite
def bp_instances(draw):
    """``bp.generate(n, m, s, seed)`` with 1 <= s <= m <= n <= 40."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(m, 40))
    s = draw(st.integers(1, m))
    return bp.generate(n, m, s, draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=40, deadline=None)
@given(bp_instances(), st.sampled_from([VariantKind.EGL, VariantKind.EGAL]))
def test_automatic_gamma_keeps_the_certificate_below_the_slack(inst, variant):
    config = SolverConfig(variant=variant, monitor_certificate=True)
    for _, info in itertools.islice(iterate(bp.as_problem(inst), config), 300):
        assert info.certificate <= CERTIFICATE_SLACK


@settings(max_examples=80, deadline=None)
@given(bp_instances(), st.sampled_from(list(VariantKind)), st.floats(10.0, 1e8))
def test_a_large_explicit_gamma_diverges_loudly_or_stays_finite(inst, variant, gamma):
    config = SolverConfig(variant=variant, gamma=gamma, max_iters=300)
    try:
        report = solve(bp.as_problem(inst), config)
    except DivergenceError as exc:
        assert exc.variant is variant and 1 <= exc.iteration <= 300
        return
    state = report.state
    for name in ("x", "y", "lam", "y_mid", "lam_mid"):
        assert np.all(np.isfinite(getattr(state, name))), name
