import csv
import hashlib
import json

import numpy as np
import pytest

from egadm import fused_logistic as fl
from egadm import storage
from egadm.cli import CSV_COLUMNS, main


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


def test_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5", "--out", str(a)])
    main(["gen", "bp", "--n", "30", "--m", "8", "--s", "2", "--seed", "5", "--out", str(b)])
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


def test_solve_non_finite_instance_exits_one(tmp_path, capsys):
    inst = fl.generate_block_pattern(500, 100, 0)
    inst.A[3, 7] = np.nan
    storage.save_fused_instance(inst, tmp_path / "nan")
    rc = main(["solve", str(tmp_path / "nan")])
    assert rc == 1
    assert "non-finite entries" in capsys.readouterr().err


def test_solve_overflowing_instance_exits_one(tmp_path, capsys):
    inst = fl.generate_block_pattern(500, 100, 0)
    inst.A[...] *= 1e200
    storage.save_fused_instance(inst, tmp_path / "huge")
    rc = main(["solve", str(tmp_path / "huge")])
    assert rc == 1
    assert "overflows float64" in capsys.readouterr().err


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
