import json

import numpy as np
import pytest

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm import storage


def test_bp_instance_round_trip(tmp_path):
    inst = bp.generate(40, 10, 3, 21)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    loaded = storage.load_bp_instance(d)
    assert np.array_equal(loaded.A, inst.A)
    assert np.array_equal(loaded.b, inst.b)
    assert np.array_equal(loaded.xhat, inst.xhat)
    assert loaded.s == inst.s and loaded.seed == inst.seed


def test_bp_instance_files_and_header(tmp_path):
    inst = bp.generate(12, 4, 2, 0)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    for name in ("meta.json", "A.mtx", "b.txt", "xhat.txt"):
        assert (d / name).is_file()
    header = (d / "A.mtx").read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix array real general")
    meta = json.loads((d / "meta.json").read_text())
    assert meta["n"] == 12 and meta["m"] == 4 and meta["s"] == 2
    assert (d / "b.txt").read_text().count("\n") == 4
    assert (d / "xhat.txt").read_text().count("\n") == 12


def test_bp_save_is_byte_identical(tmp_path):
    inst = bp.generate(25, 8, 2, 3)
    d1 = storage.save_bp_instance(inst, tmp_path / "a")
    d2 = storage.save_bp_instance(inst, tmp_path / "b")
    for name in ("meta.json", "A.mtx", "b.txt", "xhat.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_fused_instance_round_trip(tmp_path):
    inst = fl.generate_block_pattern(150, 30, 11)
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    loaded = storage.load_fused_instance(d)
    assert np.array_equal(loaded.A, inst.A)
    assert np.array_equal(loaded.labels, inst.labels)
    assert np.array_equal(loaded.xhat, inst.xhat)
    assert loaded.c_true == inst.c_true
    assert loaded.pattern == "blocks"
    pattern = json.loads((d / "pattern.json").read_text())
    assert pattern["pattern"] == "blocks"
    assert pattern["m"] == 30 and pattern["n"] == 150


def test_load_instance_dispatches_on_kind(tmp_path):
    bp_dir = storage.save_bp_instance(bp.generate(10, 4, 1, 1), tmp_path / "bp")
    fused_dir = storage.save_fused_instance(
        fl.generate_block_pattern(130, 20, 2), tmp_path / "fl"
    )
    assert isinstance(storage.load_instance(bp_dir), bp.BasisPursuitInstance)
    assert isinstance(storage.load_instance(fused_dir), fl.FusedLogisticInstance)


def test_load_instance_falls_back_to_pattern_sniffing(tmp_path):
    d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 5), tmp_path / "x")
    meta = json.loads((d / "meta.json").read_text())
    del meta["kind"]
    (d / "meta.json").write_text(json.dumps(meta))
    assert isinstance(storage.load_instance(d), fl.FusedLogisticInstance)


def test_load_instance_missing_meta(tmp_path):
    with pytest.raises(FileNotFoundError):
        storage.load_instance(tmp_path)


def test_load_rejects_shape_mismatch(tmp_path):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    meta = json.loads((d / "meta.json").read_text())
    meta["n"] = 11
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        storage.load_bp_instance(d)


@pytest.mark.parametrize(
    "kind, name",
    [("bp", "b.txt"), ("bp", "xhat.txt"), ("fused", "labels.txt"), ("fused", "xhat.txt")],
)
def test_load_rejects_a_vector_of_the_wrong_length(tmp_path, kind, name):
    if kind == "bp":
        d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    else:
        d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "inst")
    lines = (d / name).read_text().splitlines(keepends=True)
    (d / name).write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match=name.replace(".", r"\.")):
        storage.load_instance(d)


def test_load_names_meta_json_and_the_missing_key(tmp_path):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    meta = json.loads((d / "meta.json").read_text())
    del meta["s"]
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"meta\.json lacks the key 's'"):
        storage.load_instance(d)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_load_names_meta_json_when_it_is_not_a_json_object(tmp_path, text):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    (d / "meta.json").write_text(text)
    with pytest.raises(ValueError, match=r"meta\.json does not hold a JSON object"):
        storage.load_instance(d)
