import io
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import write_format_1_matrix
from scipy.io import mmread

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm import storage


def test_bp_instance_round_trip(tmp_path):
    inst = bp.generate(40, 10, 3, 21)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    loaded = storage.load_instance(d)
    assert np.array_equal(loaded.A, inst.A)
    assert np.array_equal(loaded.b, inst.b)
    assert np.array_equal(loaded.xhat, inst.xhat)
    assert loaded.s == inst.s and loaded.seed == inst.seed


def test_bp_instance_files_and_header(tmp_path):
    inst = bp.generate(12, 4, 2, 0)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    for name in ("meta.json", "A.npy", "b.txt", "xhat.txt"):
        assert (d / name).is_file()
    assert np.load(d / "A.npy", allow_pickle=False).tobytes() == inst.A.tobytes()
    meta = json.loads((d / "meta.json").read_text())
    assert meta["n"] == 12 and meta["m"] == 4 and meta["s"] == 2
    assert (d / "b.txt").read_text().count("\n") == 4
    assert (d / "xhat.txt").read_text().count("\n") == 12


def test_bp_save_is_byte_identical(tmp_path):
    inst = bp.generate(25, 8, 2, 3)
    d1 = storage.save_bp_instance(inst, tmp_path / "a")
    d2 = storage.save_bp_instance(inst, tmp_path / "b")
    for name in ("meta.json", "A.npy", "b.txt", "xhat.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_fused_instance_round_trip(tmp_path):
    inst = fl.generate_block_pattern(150, 30, 11)
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    loaded = storage.load_instance(d)
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
        storage.load_instance(d)


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


@pytest.mark.parametrize(
    ("kind", "name", "key", "value"),
    [
        ("bp", "meta.json", "seed", 2.7),
        ("bp", "meta.json", "seed", True),
        ("bp", "meta.json", "s", "abc"),
        ("bp", "meta.json", "s", 1.0),
        ("bp", "meta.json", "m", 20.0),
        ("bp", "meta.json", "n", "10"),
        ("fused", "meta.json", "c_true", "x"),
        ("fused", "meta.json", "c_true", True),
        ("fused", "meta.json", "seed", None),
        ("fused", "pattern.json", "pattern", 3),
    ],
)
def test_load_names_the_file_and_key_of_a_value_of_the_wrong_json_type(
    tmp_path, kind, name, key, value
):
    if kind == "bp":
        d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    else:
        d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "inst")
    obj = json.loads((d / name).read_text())
    obj[key] = value
    (d / name).write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=rf"{name.replace('.', '[.]')} key '{key}' must be a JSON"):
        storage.load_instance(d)


def test_load_takes_an_integral_c_true_as_a_number(tmp_path):
    d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "inst")
    meta = json.loads((d / "meta.json").read_text())
    meta["c_true"] = 1
    (d / "meta.json").write_text(json.dumps(meta))
    c_true = storage.load_instance(d).c_true
    assert type(c_true) is float and c_true == 1.0


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_load_names_meta_json_when_it_is_not_a_json_object(tmp_path, text):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    (d / "meta.json").write_text(text)
    with pytest.raises(ValueError, match=r"meta\.json does not hold a JSON object"):
        storage.load_instance(d)


@pytest.mark.parametrize("kind", ["bp", "fused"])
def test_loaded_A_is_one_read_only_c_ordered_copy_of_the_saved_bits(tmp_path, kind):
    if kind == "bp":
        inst = bp.generate(200, 60, 3, 4)
        d = storage.save_bp_instance(inst, tmp_path / "inst")
    else:
        inst = fl.generate_block_pattern(500, 100, 3)
        d = storage.save_fused_instance(inst, tmp_path / "inst")
    tracemalloc.start()
    try:
        loaded = storage.load_instance(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    A = loaded.A
    assert not A.flags.writeable and A.flags.c_contiguous
    assert A.base is None and A.dtype == np.float64
    assert A.tobytes() == inst.A.tobytes()
    # One full-size allocation: the instance's copy of a memory-mapped A.
    assert A.nbytes <= peak < 1.5 * A.nbytes


def test_format_2_A_has_the_bits_mmread_gives_for_format_1(tmp_path):
    inst = fl.generate_block_pattern(500, 100, 3)
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    new = storage.load_instance(d)
    write_format_1_matrix(d, inst.A)
    assert not (d / "A.npy").exists()
    old = storage.load_instance(d)
    assert new.A.tobytes() == old.A.tobytes() == mmread(str(d / "A.mtx")).tobytes()
    assert old.A.flags.c_contiguous and old.A.base is None


def test_meta_without_format_version_reads_A_mtx(tmp_path):
    inst = bp.generate(40, 10, 3, 21)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    write_format_1_matrix(d, inst.A)
    meta = json.loads((d / "meta.json").read_text())
    del meta["format_version"]
    (d / "meta.json").write_text(json.dumps(meta))
    assert storage.load_instance(d).A.tobytes() == inst.A.tobytes()


@pytest.mark.parametrize("version", [0, 3, 7, "2", 2.5, None, True])
def test_load_rejects_an_unknown_format_version(tmp_path, version):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    meta = json.loads((d / "meta.json").read_text())
    meta["format_version"] = version
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"meta\.json has unknown format_version {version!r}"):
        storage.load_instance(d)


def test_format_2_without_A_npy_names_the_file(tmp_path):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    (d / "A.npy").unlink()
    with pytest.raises(OSError, match=r"A\.npy"):
        storage.load_instance(d)


class _Tripwire:
    """Unpickling this records it in ``UNPICKLED``."""

    def __reduce__(self):
        return (UNPICKLED.append, ("unpickled",))


UNPICKLED = []


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


def _npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, A=np.zeros((4, 10)))
    return buf.getvalue()


_PICKLED_OBJECTS = np.full((4, 10), 0.0, dtype=object)
_PICKLED_OBJECTS[0, 0] = _Tripwire()


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(_npy_bytes(_PICKLED_OBJECTS), id="pickled-object-array"),
        pytest.param(pickle.dumps(_Tripwire()), id="pickle"),
        pytest.param(_npy_bytes(np.zeros(40)), id="1-d"),
        pytest.param(_npy_bytes(np.zeros((10, 4))), id="wrong-shape"),
        pytest.param(_npy_bytes(np.zeros((4, 10), dtype=complex)), id="complex"),
        pytest.param(_npy_bytes(np.zeros((4, 10), dtype=bool)), id="bool"),
        pytest.param(_npz_bytes(), id="npz"),
        pytest.param(b"", id="empty"),
        pytest.param(b"not an array", id="text"),
        pytest.param(b"\x93NUMPY\x01\x00", id="truncated-header"),
    ],
)
def test_load_rejects_an_A_npy_that_is_not_a_real_matrix_of_the_meta_shape(tmp_path, payload):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    (d / "A.npy").write_bytes(payload)
    UNPICKLED.clear()
    with pytest.raises(ValueError, match=r"A\.npy"):
        storage.load_instance(d)
    assert UNPICKLED == []


def test_fortran_ordered_A_npy_loads_c_ordered(tmp_path):
    inst = bp.generate(40, 10, 3, 21)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    np.save(d / "A.npy", np.asfortranarray(inst.A), allow_pickle=False)
    A = storage.load_instance(d).A
    assert A.flags.c_contiguous and A.tobytes() == inst.A.tobytes()


def test_write_vector_bytes_and_round_trip(tmp_path):
    values = np.array([-0.0, 5e-324, 0.1, 1.0, 1e22, -1.7976931348623157e308])
    path = tmp_path / "v.txt"
    storage.write_vector(path, values)
    assert path.read_bytes() == (
        b"-0\n4.9406564584124654e-324\n0.10000000000000001\n1\n"
        b"1e+22\n-1.7976931348623157e+308\n"
    )
    assert storage._read_vector(path, len(values)).tobytes() == values.tobytes()


_finite_vectors = arrays(
    np.float64, st.integers(1, 64), elements=st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=200, deadline=None)
@given(_finite_vectors)
@example(np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))
@example(np.array([-1.7976931348623157e308]))
def test_write_vector_round_trips_every_finite_float64_bit_for_bit(tmp_path_factory, v):
    path = tmp_path_factory.mktemp("vec") / "v.txt"
    storage.write_vector(path, v)
    assert storage._read_vector(path, len(v)).tobytes() == v.tobytes()


@pytest.mark.parametrize(
    "kind, parsed", [("bp", ["meta.json"]), ("fused", ["meta.json", "pattern.json"])]
)
def test_load_instance_parses_each_json_file_once(tmp_path, monkeypatch, kind, parsed):
    if kind == "bp":
        d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    else:
        d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "inst")
    names = []
    init = storage._JsonObject.__init__

    def counting_init(self, path):
        names.append(path.name)
        init(self, path)

    monkeypatch.setattr(storage._JsonObject, "__init__", counting_init)
    storage.load_instance(d)
    assert names == parsed
