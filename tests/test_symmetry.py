"""Exact sign symmetry: every operation of an iteration is odd in the data.

The soft-threshold is odd, the affine projection's constant term negates
with b, and a gemv of negated operands gives the negated product, or the
same one where both operands are negated, with the same rounding.  So
negating bp's ``b`` (and with it ``xhat``), or the fused labels (and with
them the augmented data), negates every iterate exactly, with the same
iteration counts.  Arrays are compared with ``==``, so +0.0 and -0.0
agree.  A path that changes the bits (a float32 gradient, a restart, an
adaptive step) keeps this relation; such a path adds itself here."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm import storage
from egadm.cli import main
from egadm.solver import SolverConfig, VariantKind, iterate

FIELDS = ("x", "y", "lam", "y_mid", "lam_mid")


def _assert_negated(state, twin, where):
    assert twin.k == state.k, where
    for name in FIELDS:
        assert np.array_equal(getattr(twin, name), -getattr(state, name)), (where, name)


def _negated_bp(inst):
    return dataclasses.replace(inst, b=-inst.b, xhat=-inst.xhat)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negating_b_negates_every_bp_iterate(seed):
    inst = bp.generate(100, 20, 2, seed)
    twin = _negated_bp(inst)
    for variant in VariantKind:
        config = SolverConfig(variant)
        runs = zip(iterate(inst.as_problem(), config), iterate(twin.as_problem(), config))
        for (state, info), (neg, neg_info) in itertools.islice(runs, 300):
            _assert_negated(state, neg, (variant, state.k))
            assert (neg_info.residual_norm, neg_info.movement) == (info.residual_norm, info.movement)


@pytest.mark.parametrize("variant, max_iters", [(VariantKind.GL, 1000), (VariantKind.EGAL, 20000)])
def test_negating_the_labels_negates_the_fused_solve(variant, max_iters):
    # the gate-7 instance and weights; EGAL stops at 474 iterations, while
    # GL is cut at 1000 of its 4412 to keep this test under a second
    inst = fl.generate_block_pattern(500, 100, 0)
    twin = dataclasses.replace(inst, labels=-inst.labels)
    penalties = fl.FusedLogisticConfig(alpha=2e-2, beta=5e-2)
    report, neg = (fl.solve_fused(i, penalties, variant=variant, tol=1e-4, max_iters=max_iters)
                   for i in (inst, twin))
    assert (neg.iterations, neg.converged) == (report.iterations, report.converged)
    assert report.converged == (variant is VariantKind.EGAL)
    _assert_negated(report.state, neg.state, variant)


def test_egadm_solve_of_a_negated_bp_directory_emits_negated_coefficients(tmp_path, capsys):
    d, twin = tmp_path / "inst", tmp_path / "twin"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "3", "--out", str(d)])
    storage.save_bp_instance(_negated_bp(storage.load_instance(d)), twin)
    capsys.readouterr()
    rows, coefs = [], []
    for directory in (d, twin):
        coef = directory.parent / f"{directory.name}.coef"
        assert main(["solve", str(directory), "--emit-coef", str(coef)]) == 0
        rows.append(json.loads(capsys.readouterr().out))
        coefs.append(np.loadtxt(coef))
    for row in rows:
        del row["seconds"]
    assert rows[1] == rows[0]
    assert np.array_equal(coefs[1], -coefs[0])
