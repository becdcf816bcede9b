import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from oracles import write_format_1_matrix

from egadm import basis_pursuit as bp
from egadm import cli
from egadm import fused_logistic as fl
from egadm import storage
from egadm.cli import CSV_COLUMNS, BenchSpec, build_parser, main, run_bench
from egadm.solver import SolverConfig, VariantKind, solve


def _dir_digest(path):
    out = {}
    for p in sorted(path.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_gen_bp_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(["gen", "bp", "--n", "100", "--m", "20", "--s", "2", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    inst = storage.load_instance(out)
    assert inst.A.shape == (20, 100)
    assert np.count_nonzero(inst.xhat) == 2


@pytest.mark.parametrize("argv", [
    ["bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5"],
    # a fused meta.json also holds the Lipschitz constant and its crc
    ["fused", "--pattern", "blocks", "--n", "130", "--m", "20", "--seed", "5"],
])
def test_gen_is_byte_identical_across_runs(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", *argv, "--out", str(a)]) == 0
    assert main(["gen", *argv, "--out", str(b)]) == 0
    assert _dir_digest(a) == _dir_digest(b)


def test_gen_fused_records_pattern(tmp_path):
    out = tmp_path / "fused"
    rc = main(["gen", "fused", "--pattern", "blocks", "--n", "500", "--m", "100",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "pattern.json").read_text())["pattern"] == "blocks"


def test_solve_converged_instance_exits_zero(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "100", "--m", "20", "--s", "2", "--seed", "1",
          "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "egal"])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert row["converged"] is True
    assert row["variant"] == "egal"
    assert row["seed"] == 1
    assert row["err"] <= 1e-3
    assert row["l0"] is None and row["tv0"] is None


def test_solve_capped_run_exits_two(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "100", "--m", "20", "--s", "2", "--seed", "0",
          "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "gl", "--gamma", "0.1"])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 2
    assert row["converged"] is False
    assert row["iters"] == 20000


def test_solve_missing_instance_exits_one(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope"), "--variant", "egl"])
    assert rc == 1


def test_solve_format_2_instance_without_A_npy_exits_one(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "0", "--out", str(out)])
    (out / "A.npy").unlink()
    rc = main(["solve", str(out)])
    assert rc == 1
    assert "A.npy" in capsys.readouterr().err


def test_solve_format_1_instance_prints_the_row_of_its_format_2_twin(tmp_path, capsys):
    rows = []
    for name in ("new", "old"):
        out = tmp_path / name
        main(["gen", "fused", "--pattern", "blocks", "--n", "500", "--m", "100",
              "--seed", "3", "--out", str(out)])
        if name == "old":
            write_format_1_matrix(out, np.load(out / "A.npy", allow_pickle=False))
        capsys.readouterr()
        assert main(["solve", str(out), "--variant", "egal", "--monitor-lemma",
                     "--emit-coef", str(tmp_path / f"{name}.txt")]) == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        row.pop("seconds")
        rows.append(row)
    assert (tmp_path / "old" / "A.mtx").is_file()
    assert rows[0] == rows[1]
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_solve_non_finite_instance_exits_one(tmp_path, capsys):
    inst = fl.generate_block_pattern(500, 100, 0)
    bad = inst.A.copy()
    bad[3, 7] = np.nan
    # saving refuses a NaN, so the NaN goes into the saved A.npy afterwards
    d = storage.save_fused_instance(inst, tmp_path / "nan")
    np.save(d / "A.npy", bad, allow_pickle=False)
    rc = main(["solve", str(tmp_path / "nan")])
    assert rc == 1
    # rejected on load, naming the file
    assert f"{tmp_path / 'nan' / 'A.npy'} has non-finite entries" in capsys.readouterr().err


def test_solve_overflowing_instance_exits_one(tmp_path, capsys):
    inst = fl.generate_block_pattern(500, 100, 0)
    storage.save_fused_instance(dataclasses.replace(inst, A=inst.A * 1e200), tmp_path / "huge")
    rc = main(["solve", str(tmp_path / "huge")])
    assert rc == 1
    assert "overflows float64" in capsys.readouterr().err


def test_solve_rank_deficient_bp_instance_exits_one(tmp_path, capsys):
    # row 0 of this saved A copied into row 1, and saved again with its
    # checksum: the solve must refuse it, not report a point off
    # {y : A y = b} as converged
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "100", "--m", "20", "--s", "2", "--seed", "7",
          "--out", str(out)])
    inst = storage.load_instance(out)
    A = inst.A.copy()
    A[1] = A[0]
    storage.save_bp_instance(dataclasses.replace(inst, A=A), out)
    capsys.readouterr()
    rc = main(["solve", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error: A is rank deficient" in captured.err


def test_solve_truncated_labels_exits_one(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "fused", "--pattern", "blocks", "--n", "200", "--m", "20",
          "--seed", "0", "--out", str(out)])
    lines = (out / "labels.txt").read_text().splitlines(keepends=True)
    (out / "labels.txt").write_text("".join(lines[:5]))
    rc = main(["solve", str(out)])
    assert rc == 1
    assert "labels.txt has 5 entries, meta.json says 20" in capsys.readouterr().err


def test_solve_divergence_exits_one(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "0",
          "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "egl", "--gamma", "17.0"])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert row["converged"] is False


def test_solve_emits_coefficients(tmp_path, capsys):
    out = tmp_path / "inst"
    coef = tmp_path / "coef.txt"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "2",
          "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "egl", "--emit-coef", str(coef)])
    assert rc == 0
    lines = coef.read_text().strip().splitlines()
    assert len(lines) == 40
    float(lines[0])


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before the output path was checked")


def test_solve_refuses_an_emit_coef_path_without_its_directory_before_solving(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve", _must_not_run)
    coef = tmp_path / "nodir" / "c.txt"
    assert main(["solve", str(out), "--emit-coef", str(coef)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the directory {str(coef.parent)!r} of {str(coef)!r} does not exist\n"


def test_bench_refuses_an_out_path_without_its_directory_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "run_bench", _must_not_run)
    monkeypatch.setattr(cli, "_instance", _must_not_run)
    out = tmp_path / "nodir" / "x.csv"
    rc = main(["bench", "--problem", "bp", "--dims", "30,8,2", "--instances", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: the directory {str(out.parent)!r} of {str(out)!r} does not exist\n"
    assert not out.parent.exists()


def test_solve_refuses_an_emit_coef_path_that_is_a_directory_before_loading(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    monkeypatch.setattr(storage, "load_instance", _must_not_run)
    monkeypatch.setattr(cli, "solve", _must_not_run)
    coef = tmp_path / "coefdir"
    coef.mkdir()
    assert main(["solve", str(out), "--emit-coef", str(coef)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the output path {str(coef)!r} is a directory\n"
    assert list(coef.iterdir()) == []


def test_bench_refuses_an_out_path_that_is_a_directory_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "run_bench", _must_not_run)
    monkeypatch.setattr(cli, "_instance", _must_not_run)
    out = tmp_path / "csvdir"
    out.mkdir()
    rc = main(["bench", "--problem", "bp", "--dims", "30,8,2", "--instances", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: the output path {str(out)!r} is a directory\n"
    assert list(out.iterdir()) == []


def test_solve_fused_reports_sparsity(tmp_path, capsys):
    out = tmp_path / "fused"
    main(["gen", "fused", "--pattern", "blocks", "--n", "200", "--m", "60",
          "--seed", "4", "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "egal", "--alpha", "2e-2"])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert row["err"] is None
    assert row["l0"] > 0 and row["tv0"] > 0


def test_solve_monitor_flag_reports_violations(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "6",
          "--out", str(out)])
    rc = main(["solve", str(out), "--variant", "egl", "--monitor-lemma"])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert row["lemma_violations"] == 0


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_bench_row_counts_and_columns(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--problem", "bp", "--dims", "40,10,2", "--instances", "2",
        "--variants", "egl,egal", "--seed-base", "0", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == CSV_COLUMNS
    data = [r for r in rows[1:] if r[2] != "median"]
    medians = [r for r in rows[1:] if r[2] == "median"]
    assert len(data) == 4  # 2 instances x 2 variants
    assert len(medians) == 2
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    # deterministic ordering: variant blocks in canonical order, seeds ascending
    assert [r[1] for r in data] == ["egl", "egl", "egal", "egal"]
    assert [r[2] for r in data] == ["0", "1", "0", "1"]


def test_bench_single_cell(tmp_path):
    out = tmp_path / "one.csv"
    rc = main([
        "bench", "--problem", "bp", "--dims", "30,8,2", "--instances", "1",
        "--variants", "egal", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    data = [r for r in rows[1:] if r[2] != "median"]
    assert len(data) == 1


def test_bench_reruns_identical_modulo_seconds(tmp_path):
    args = [
        "bench", "--problem", "bp", "--dims", "40,10,2", "--instances", "3",
        "--variants", "gal,egal", "--seed-base", "2",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    rows1, rows2 = _read_csv(out1), _read_csv(out2)
    assert len(rows1) == len(rows2)
    seconds_col = CSV_COLUMNS.index("seconds")
    for r1, r2 in zip(rows1, rows2):
        r1[seconds_col] = r2[seconds_col] = ""
        assert r1 == r2


def test_bench_fused_dims_are_m_n(tmp_path):
    out = tmp_path / "fused.csv"
    rc = main([
        "bench", "--problem", "fused", "--dims", "30,140", "--instances", "1",
        "--variants", "egal", "--pattern", "blocks", "--alpha", "2e-2",
        "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    data = [r for r in rows[1:] if r[2] != "median"]
    assert data[0][0] == "fused_blocks_m30_n140"


def test_bench_rejects_bad_dims(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--problem", "bp", "--dims", "40,10", "--instances", "1",
              "--variants", "egl", "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("problem, dims", [("bp", "100,20,2.5"), ("bp", "100,x,5"), ("fused", "30,")])
def test_bench_names_the_flag_of_a_dims_part_that_is_no_integer(tmp_path, problem, dims):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", problem, "--dims", dims, "--instances", "1", "--out", str(out)])
    count = 3 if problem == "bp" else 2
    assert exc.value.code == f"--dims for {problem} needs {count} comma-separated integers"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2", "1.5"])
def test_bench_rejects_an_instance_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", "bp", "--dims", "30,8,2", "--instances", count,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--instances" in capsys.readouterr().err
    assert not out.exists()


def _solve_row(argv, capsys):
    rc = main(argv)
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_bp_row_equals_the_library_solve(tmp_path, capsys):
    out, coef = tmp_path / "inst", tmp_path / "coef.txt"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "3", "--out", str(out)])
    rc, row = _solve_row(["solve", str(out), "--variant", "egl", "--gamma", "0.2",
                          "--monitor-lemma", "--emit-coef", str(coef)], capsys)
    inst = storage.load_instance(out)
    config = SolverConfig(variant=VariantKind.EGL, gamma=0.2, monitor_certificate=True)
    rep = solve(bp.as_problem(inst), config)
    assert rc == 0 and rep.converged
    assert row["problem"] == "bp_n40_m10_s2"
    assert (row["iters"], row["converged"]) == (rep.iterations, rep.converged)
    assert row["err"] == bp.recovery_error(inst, rep.state.x)
    assert row["lemma_violations"] == rep.lemma_violations
    assert np.array_equal(np.loadtxt(coef), rep.state.x[: inst.n])


def test_fused_row_equals_the_library_solve(tmp_path, capsys):
    out, coef = tmp_path / "fused", tmp_path / "coef.txt"
    main(["gen", "fused", "--pattern", "blocks", "--n", "140", "--m", "30",
          "--seed", "1", "--out", str(out)])
    rc, row = _solve_row(["solve", str(out), "--variant", "gal", "--alpha", "2e-2",
                          "--monitor-lemma", "--emit-coef", str(coef)], capsys)
    inst = storage.load_instance(out)
    rep = fl.solve_fused(inst, fl.FusedLogisticConfig(alpha=2e-2), variant=VariantKind.GAL,
                         monitor_certificate=True)
    coefs = rep.state.x[: inst.n]
    assert rc == 0 and rep.converged
    assert row["problem"] == "fused_blocks_m30_n140"
    assert (row["iters"], row["converged"]) == (rep.iterations, rep.converged)
    assert [row["l0"], row["tv0"]] == list(fl.sparsity_report(coefs))
    # gal records no certificate: the report and the row leave the count empty, not 0
    assert rep.lemma_violations is None and rep.certificate_history is None
    assert row["err"] is None and row["lemma_violations"] is None
    assert np.array_equal(np.loadtxt(coef), coefs)


@pytest.mark.parametrize("monitor", [False, True])
@pytest.mark.parametrize("variant", list(VariantKind))
def test_the_row_copies_the_reports_violation_count(tmp_path, capsys, variant, monitor):
    # the solver alone decides whether a solve recorded the certificate:
    # a count for a monitored egl or egal, None for every other solve
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "3", "--out", str(out)])
    flags = ["--monitor-lemma"] if monitor else []
    _, row = _solve_row(["solve", str(out), "--variant", variant.value, "--max-iters", "300", *flags], capsys)
    config = SolverConfig(variant=variant, max_iters=300, monitor_certificate=monitor)
    rep = solve(storage.load_instance(out).as_problem(), config)
    assert row["lemma_violations"] == rep.lemma_violations
    if monitor and variant in (VariantKind.EGL, VariantKind.EGAL):
        assert type(rep.lemma_violations) is int and len(rep.certificate_history) == rep.iterations
    else:
        assert rep.lemma_violations is None and rep.certificate_history is None


def test_bench_fused_ids_come_from_the_instances_in_sorted_order(tmp_path):
    out = tmp_path / "fused.csv"
    rc = main([
        "bench", "--problem", "fused", "--dims", "30,140", "--dims", "20,130",
        "--instances", "1", "--variants", "gal", "--alpha", "2e-2", "--out", str(out),
    ])
    assert rc == 0
    data = [r for r in _read_csv(out)[1:] if r[2] != "median"]
    assert [r[0] for r in data] == ["fused_blocks_m20_n130", "fused_blocks_m30_n140"]


def test_gen_fused_blocks_without_m_exits_with_its_message(tmp_path):
    with pytest.raises(SystemExit, match="gen fused --pattern blocks requires --m"):
        main(["gen", "fused", "--pattern", "blocks", "--n", "200", "--seed", "0",
              "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--tol", "--gamma"])
def test_solve_rejects_a_nan_setting(tmp_path, capsys, flag):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "0", "--out", str(out)])
    rc = main(["solve", str(out), flag, "nan"])
    assert rc == 1
    assert "must be" in capsys.readouterr().err


def test_solve_names_meta_json_and_the_missing_key(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "0", "--out", str(out)])
    meta = json.loads((out / "meta.json").read_text())
    del meta["s"]
    (out / "meta.json").write_text(json.dumps(meta))
    assert main(["solve", str(out)]) == 1
    assert "meta.json lacks the key 's'" in capsys.readouterr().err


def _gen_with_python_dash_m(module, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "inst"
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen", "bp", "--n", "30", "--m", "8", "--s", "2",
         "--seed", "5", "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert storage.load_instance(out).A.shape == (8, 30)


def test_python_dash_m_egadm_runs_the_cli(tmp_path):
    _gen_with_python_dash_m("egadm", tmp_path)


def test_python_dash_m_egadm_cli_runs_the_cli(tmp_path):
    # without a __main__ entry in cli.py this exits 0 and writes nothing
    _gen_with_python_dash_m("egadm.cli", tmp_path)


def test_python_dash_m_egadm_solve_names_A_npy_whose_header_numpy_cannot_tokenize(tmp_path):
    # bit 0 of byte 10 flipped makes the header's "{" a "z"; NumPy's header
    # parser then raised tokenize.TokenError, which ended in a traceback
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "30", "--m", "10", "--s", "2", "--seed", "0", "--out", str(out)])
    raw = bytearray((out / "A.npy").read_bytes())
    raw[10] ^= 1
    assert raw[10:11] == b"z"
    (out / "A.npy").write_bytes(bytes(raw))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "egadm", "solve", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out / "A.npy") in lines[0], proc.stderr


def test_bench_builds_one_projector_per_bp_instance(monkeypatch):
    calls, couplings = [], []
    real, real_coupling = bp.AffineProjector, bp.Coupling

    def counting(A, rhs):
        calls.append(A)
        return real(A, rhs)

    def counting_coupling(**parts):
        couplings.append(parts)
        return real_coupling(**parts)

    monkeypatch.setattr(bp, "AffineProjector", counting)
    # one Coupling per instance: the whole problem is assembled once
    monkeypatch.setattr(bp, "Coupling", counting_coupling)
    spec = BenchSpec(problem="bp", dims=((40, 10, 2),), instances=2, seed_base=0, pattern="simple",
                     configs=tuple(SolverConfig(v, max_iters=50) for v in VariantKind))
    rows, _ = run_bench(spec)
    assert len(rows) == 8
    assert len(calls) == 2 and len(couplings) == 2


@pytest.mark.parametrize("problem, dims", [("bp", (40, 10, 2)), ("fused", (30, 140))])
def test_bench_keeps_one_instance_alive_at_a_time(monkeypatch, problem, dims):
    # each instance is solved under every config and dropped before the
    # next one is built
    built, alive_at_build = [], []
    real = cli._instance

    def tracked(*args):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        inst = real(*args)
        built.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(cli, "_instance", tracked)
    spec = BenchSpec(problem=problem, dims=(dims,), instances=3, seed_base=0, pattern="blocks",
                     configs=tuple(SolverConfig(v, max_iters=20) for v in VariantKind))
    rows, _ = run_bench(spec)
    assert len(rows) == 12 and len(built) == 3
    assert alive_at_build == [0, 0, 0]


def _flag_defaults(command):
    """``{dest: default}`` of the flags of ``egadm <command>``, read from the real parser."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a.default for a in sub.choices[command]._actions if a.option_strings}


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_every_solver_knob_is_a_cli_flag_with_the_library_default(command):
    # a new SolverConfig or FusedLogisticConfig field must get a flag or be excluded here on purpose
    flags = _flag_defaults(command)
    library = [f for f in dataclasses.fields(SolverConfig) if f.name != "variant"]
    library += [f for f in dataclasses.fields(fl.FusedLogisticConfig) if f.name != "gamma"]
    assert len(library) == 6
    for f in library:
        assert f.name in flags, f.name
        assert flags[f.name] == f.default and type(flags[f.name]) is type(f.default), f.name
    # the two flags whose name is not the field's keep their names
    head = ["solve", "inst"] if command == "solve" else ["bench", "--problem", "bp", "--dims", "1,1,1", "--out", "x"]
    args = build_parser().parse_args(head + ["--max-iters", "5", "--monitor-lemma"])
    assert (args.max_iters, args.monitor_certificate) == (5, True)


def test_bench_leaves_lemma_violations_empty_for_plain_gradient_variants(tmp_path):
    # gl records no certificate; a monitored gl row used to report 0 violations
    out = tmp_path / "bench.csv"
    assert main(["bench", "--problem", "bp", "--dims", "40,10,2", "--instances", "2",
                 "--variants", "gl,egl", "--max-iters", "300", "--monitor-lemma",
                 "--out", str(out)]) == 0
    col = CSV_COLUMNS.index("lemma_violations")
    rows = _read_csv(out)[1:]
    assert [(r[1], r[2]) for r in rows] == [("gl", "0"), ("gl", "1"), ("egl", "0"), ("egl", "1"),
                                            ("gl", "median"), ("egl", "median")]
    assert [r[col] for r in rows] == ["", "", "0", "0", "", "0.0"]


def test_bench_runs_each_listed_variant_once_in_canonical_order(tmp_path):
    paths = [tmp_path / "dup.csv", tmp_path / "plain.csv"]
    for variants, out in zip(["egal,gl,egal", "gl,egal"], paths):
        assert main(["bench", "--problem", "bp", "--dims", "40,10,2", "--instances", "2",
                     "--variants", variants, "--max-iters", "300", "--out", str(out)]) == 0
    seconds_col = CSV_COLUMNS.index("seconds")
    tables = [_read_csv(p) for p in paths]
    for table in tables:
        for r in table:
            r[seconds_col] = ""
    assert tables[0] == tables[1]
    assert [r[1] for r in tables[0][1:]] == ["gl", "gl", "egal", "egal", "gl", "egal"]


def test_the_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys):
    assert build_parser() is build_parser()
    build_parser.cache_clear()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = tmp_path / "inst"
    argv = ["gen", "bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    one_tree = list(built)
    assert one_tree[0] == "egadm" and len(one_tree) == 6  # the root and its five sub-parsers
    assert main(argv) == 0 and main(["solve", str(out), "--max-iters", "5"]) == 2
    assert built == one_tree


def test_a_solve_after_a_monitored_solve_gets_the_library_defaults(monkeypatch, tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "bp", "--n", "40", "--m", "10", "--s", "2", "--seed", "2", "--out", str(out)])
    seen = []
    real_run_cell = cli._run_cell

    def recording_run_cell(inst, config, penalties):
        seen.append((config, penalties))
        return real_run_cell(inst, config, penalties)

    monkeypatch.setattr(cli, "_run_cell", recording_run_cell)
    main(["solve", str(out), "--monitor-lemma", "--gamma", "0.1", "--max-iters", "5"])
    assert main(["solve", str(out)]) == 0
    assert seen[0] == (
        SolverConfig(VariantKind.EGAL, gamma=0.1, max_iters=5, monitor_certificate=True),
        fl.FusedLogisticConfig(),
    )
    assert seen[1] == (SolverConfig(VariantKind.EGAL), fl.FusedLogisticConfig())


def test_a_gen_after_a_bench_writes_its_instance(tmp_path, capsys):
    csv_path, out = tmp_path / "bench.csv", tmp_path / "inst"
    assert main(["bench", "--problem", "bp", "--dims", "30,8,2", "--instances", "1",
                 "--variants", "gl", "--max-iters", "50", "--out", str(csv_path)]) == 0
    assert main(["gen", "bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    assert storage.load_instance(out).A.shape == (8, 30)


def test_a_call_argparse_rejects_leaves_the_next_call_working(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--max-iters", "not-a-number"])
    assert exc.value.code == 2
    out = tmp_path / "inst"
    assert main(["gen", "bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{out}\n"
