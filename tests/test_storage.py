import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import loadtxt_vector, vector_text, write_format_1_matrix
from scipy.io import mmread

from egadm import basis_pursuit as bp
from egadm import fused_logistic as fl
from egadm import storage

# a file the loader leaves open fails the test, whatever the suite's filters
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


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


def test_meta_without_kind_is_refused_beside_pattern_json(tmp_path):
    # the kind is never guessed from the files present
    d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 5), tmp_path / "x")
    meta = json.loads((d / "meta.json").read_text())
    del meta["kind"]
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"meta\.json lacks the key 'kind'"):
        storage.load_instance(d)


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


@pytest.mark.parametrize("c_true", [math.nan, math.inf, -math.inf])
def test_save_refuses_a_non_finite_c_true_and_writes_nothing(tmp_path, c_true):
    inst = dataclasses.replace(fl.generate_block_pattern(130, 20, 2), c_true=c_true)
    with pytest.raises(ValueError, match=f"fused_logistic instance whose c_true is {c_true!r}"):
        storage.save_fused_instance(inst, tmp_path / "inst")
    assert not (tmp_path / "inst").exists()


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
    # One full-size allocation: the instance's copy of a memory-mapped A,
    # for a fused instance its m x (n+1) augmented matrix.
    assert A.nbytes <= peak < 1.5 * A.nbytes


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads Linux's /proc/self/maps")
@pytest.mark.parametrize("kind", ["bp", "fused"])
def test_a_loaded_instance_keeps_no_map_of_A_npy(tmp_path, kind):
    # the instance holds copies of A, so the map goes when the loader returns
    if kind == "bp":
        d = storage.save_bp_instance(bp.generate(200, 60, 3, 4), tmp_path / "inst")
    else:
        d = storage.save_fused_instance(fl.generate_block_pattern(500, 100, 3), tmp_path / "inst")
    loaded = storage.load_instance(d)
    assert str(d / "A.npy") not in Path("/proc/self/maps").read_text()
    assert loaded.m == (60 if kind == "bp" else 100)


def test_a_saved_fused_A_npy_holds_the_generators_draw_byte_for_byte(tmp_path):
    # the block generator's A is the first draw of default_rng([seed, 0]);
    # rebuilt from the augmented matrix, it is saved with the same bytes
    # as np.save of that draw
    inst = fl.generate_block_pattern(130, 20, 2)
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    expected = io.BytesIO()
    np.save(expected, np.random.default_rng([2, 0]).standard_normal((20, 130)), allow_pickle=False)
    assert (d / "A.npy").read_bytes() == expected.getvalue()


def test_format_2_A_has_the_bits_mmread_gives_for_format_1(tmp_path):
    inst = fl.generate_block_pattern(500, 100, 3)
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    new = storage.load_instance(d)
    write_format_1_matrix(d, inst.A)
    assert not (d / "A.npy").exists()
    old = storage.load_instance(d)
    assert new.A.tobytes() == old.A.tobytes() == mmread(str(d / "A.mtx")).tobytes()
    assert old.A.flags.c_contiguous and old.A.base is None


def test_meta_without_format_version_is_refused_beside_A_mtx(tmp_path):
    # a format-1 directory loads when it says so, and the version is never guessed
    inst = bp.generate(40, 10, 3, 21)
    d = storage.save_bp_instance(inst, tmp_path / "inst")
    write_format_1_matrix(d, inst.A)
    assert storage.load_instance(d).A.tobytes() == inst.A.tobytes()
    meta = json.loads((d / "meta.json").read_text())
    del meta["format_version"]
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"meta\.json lacks the key 'format_version'"):
        storage.load_instance(d)


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


# Vector-file texts and what the reader makes of them.  The oracle is
# ``np.loadtxt``, the reader before this one: an accepted text has its bits,
# a refused text is a ValueError under both.
_ACCEPTED_TEXTS = {
    "blank-lines": b"\n1.5\n\n-2\n\n",
    "crlf": b"1.5\r\n-2\r\n",
    "spaces-and-tabs": b" \t1.5 \t\n\t-2  \n",
    "leading-plus": b"+1.5\n+2\n",
    "exponents": b"1e3\n-2.5E-7\n4.9406564584124654e-324\n",
    "comment-lines": b"# a header\n1.5\n  # indented\n-2\n",
    "trailing-comments": b"1.5 # one and a half\n-2#two\n",
    "no-final-newline": b"1.5\n-2",
    "one-value": b"0.10000000000000001\n",
    "empty": b"",
}
_REFUSED_TEXTS = {
    "underscore": b"1_5\n",
    "hex-float": b"0x1p0\n",
    "utf8-bom": b"\xef\xbb\xbf1.5\n-2\n",
    "letters": b"1.5\nabc\n",
    "comma": b"1.5,\n-2\n",
    "arabic-indic-digit": "\u0661\n".encode("utf-8"),
    "latin-1-byte": b"1.5\n\xe9\n",
    "nul": b"1.5\x00\n",
}
_NON_FINITE_TEXTS = {"nan": b"nan\n1\n", "infinity": b"1\ninfinity\n", "overflow": b"1e400\n1\n"}


def _vector_file(tmp_path, data):
    path = tmp_path / "v.txt"
    path.write_bytes(data)
    return path


def _not_one_number_per_line(path):
    """The start of ``_read_vector``'s refusal of the file ``path``."""
    return f"^{re.escape(str(path))} does not hold one number per line: "


@pytest.mark.parametrize("data", _ACCEPTED_TEXTS.values(), ids=list(_ACCEPTED_TEXTS))
def test_read_vector_takes_what_loadtxt_takes_with_its_bits(tmp_path, data):
    path = _vector_file(tmp_path, data)
    want = loadtxt_vector(path)
    assert storage._read_vector(path, want.size).tobytes() == want.tobytes()


@pytest.mark.parametrize("data", _REFUSED_TEXTS.values(), ids=list(_REFUSED_TEXTS))
def test_read_vector_refuses_what_loadtxt_refuses(tmp_path, data):
    path = _vector_file(tmp_path, data)
    with pytest.raises(ValueError):
        loadtxt_vector(path)
    with pytest.raises(ValueError, match=_not_one_number_per_line(path)):
        storage._read_vector(path, 2)


@pytest.mark.parametrize("data", _NON_FINITE_TEXTS.values(), ids=list(_NON_FINITE_TEXTS))
def test_read_vector_refuses_the_non_finite_values_loadtxt_reads(tmp_path, data):
    path = _vector_file(tmp_path, data)
    assert not np.isfinite(loadtxt_vector(path)).all()
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has non-finite entries$"):
        storage._read_vector(path, 2)


@pytest.mark.parametrize("data", [b"1 2 3 4\n", b"1\t2\n3\t4\n", b"1\n2 # 3\n3 4\n"])
def test_read_vector_refuses_two_numbers_on_a_line(tmp_path, data):
    # np.loadtxt read a single line of four numbers as a 4-vector
    path = _vector_file(tmp_path, data)
    with pytest.raises(ValueError, match=_not_one_number_per_line(path)):
        storage._read_vector(path, 4)


_VECTOR_PIECES = [
    "1", "-0", "2.5", "e", "E", "+", "-", ".", " ", "\t", "\n", "\r\n", "\r", "#", "_", "x",
    "inf", "nan", "\x0c", "\xa0", "\u2028", "\u3000", "\ufeff", "\u0661", "\xe9", "\x00",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_VECTOR_PIECES), max_size=12).map("".join))
def test_read_vector_agrees_with_loadtxt_where_each_line_holds_one_number(tmp_path_factory, text):
    path = _vector_file(tmp_path_factory.mktemp("vec"), text.encode("utf-8"))
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    one_per_line = all(len(line.partition("#")[0].split()) <= 1 for line in lines)
    try:
        want = loadtxt_vector(path)
    except ValueError:
        want = None
    if want is None or not one_per_line:
        with pytest.raises(ValueError, match="does not hold one number per line"):
            storage._read_vector(path, 0)
    elif np.isfinite(want).all():
        assert storage._read_vector(path, want.size).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="has non-finite entries"):
            storage._read_vector(path, want.size)


_float64_bit_patterns = st.lists(st.integers(0, 2**64 - 1), max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
)
_MAX = np.finfo(np.float64).max


@settings(max_examples=300, deadline=None)
@given(_float64_bit_patterns)
@example(np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, _MAX, -_MAX]))
@example(np.array([], dtype=np.float64))
@example(np.array([3, -7, 0], dtype=np.int64))
@example(np.array([0.1, -3.4028235e38, 1e-45, np.nan], dtype=np.float32))
def test_write_vector_writes_the_per_value_format_of_every_float64(tmp_path_factory, v):
    # NaN payloads, signed zeros, subnormals and infinities included
    path = tmp_path_factory.mktemp("vec") / "v.txt"
    storage.write_vector(path, v)
    assert path.read_bytes() == vector_text(v).encode("utf-8")


def _with_non_finite(inst, field, value):
    """``inst`` with entry 0 of ``field`` (an array) set to ``value``."""
    arr = np.array(getattr(inst, field))
    arr.flat[0] = value
    return dataclasses.replace(inst, **{field: arr})


@pytest.mark.parametrize("kind, field, value", [
    ("bp", "A", math.inf), ("bp", "b", -math.inf), ("bp", "xhat", math.nan),
    ("fused", "A", -math.inf), ("fused", "xhat", math.nan),
])
def test_save_refuses_a_non_finite_A_or_vector_and_writes_nothing(tmp_path, kind, field, value):
    if kind == "bp":
        inst, save, name = bp.generate(40, 10, 3, 21), storage.save_bp_instance, "basis_pursuit"
    else:
        inst, save, name = fl.generate_block_pattern(130, 20, 2), storage.save_fused_instance, "fused_logistic"
    with pytest.raises(ValueError, match=f"^cannot save a {name} instance whose {field} has non-finite entries$"):
        save(_with_non_finite(inst, field, value), tmp_path / "inst")
    assert not (tmp_path / "inst").exists()


def test_resaving_a_directory_leaves_exactly_the_files_of_its_kind(tmp_path):
    # a save leaves exactly its kind's files, whatever kind or format the
    # directory held before: no b.txt beside labels.txt, no A.mtx beside A.npy
    files = {"bp": {"meta.json", "A.npy", "b.txt", "xhat.txt"},
             "fused": {"meta.json", "A.npy", "labels.txt", "xhat.txt", "pattern.json"}}
    saves = {"bp": (storage.save_bp_instance, bp.generate(40, 10, 3, 21)),
             "fused": (storage.save_fused_instance, fl.generate_block_pattern(130, 20, 2))}
    d = tmp_path / "inst"
    for kind in ("bp", "fused", "bp", "fused"):
        save, inst = saves[kind]
        save(inst, d)
        assert {p.name for p in d.iterdir()} == files[kind]
        assert storage.load_instance(d).A.tobytes() == inst.A.tobytes()
    for kind in ("bp", "fused"):
        save, inst = saves[kind]
        save(inst, d)
        write_format_1_matrix(d, inst.A)
        assert {p.name for p in d.iterdir()} == files[kind] - {"A.npy"} | {"A.mtx"}
        save(inst, d)
        assert {p.name for p in d.iterdir()} == files[kind]
    # a file no layout writes is left alone, and a refused save deletes nothing
    (d / "notes.txt").write_text("kept\n")
    with pytest.raises(ValueError, match="non-finite"):
        storage.save_bp_instance(_with_non_finite(saves["bp"][1], "b", math.nan), d)
    assert {p.name for p in d.iterdir()} == files["fused"] | {"notes.txt"}
    storage.save_bp_instance(saves["bp"][1], d)
    assert {p.name for p in d.iterdir()} == files["bp"] | {"notes.txt"}


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


# The broken-directory battery: each edit breaks one thing in a saved
# directory, and loading it must raise an error that names the file.  An
# edit is ``(kinds, edit(d, inst), type, message)``; in the message,
# ``{d}`` is the directory and ``{m}``, ``{n}`` are the instance's shape,
# and a message ending in "..." is pinned up to the text a library adds.

_DROP = object()


def _meta(**changes):
    """Set each key of meta.json, or drop it where the value is ``_DROP``.
    A meta.json that is gone or holds no JSON object is left as it is."""
    def edit(d, inst):
        path = d / "meta.json"
        try:
            meta = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if isinstance(meta, dict):
            meta |= changes
            for key in [k for k, v in changes.items() if v is _DROP]:
                del meta[key]
            path.write_text(json.dumps(meta))
    return edit


def _meta_as_pairs(d, inst):
    """meta.json's object rewritten as a JSON list of its [key, value]
    pairs, which ``dict`` would take for the object; left as it is where
    it holds no object."""
    path = d / "meta.json"
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if isinstance(meta, dict):
        path.write_text(json.dumps(sorted(meta.items())))


def _write(name, text):
    return lambda d, inst: (d / name).write_text(text)


def _unlink(name):
    return lambda d, inst: (d / name).unlink(missing_ok=True)


def _save_A(make):
    return lambda d, inst: np.save(d / "A.npy", make(inst.A), allow_pickle=False)


def _with_entry(A, value):
    A = A.copy()
    A[-1, 0] = value
    return A


def _vector_lines(name, keep=slice(None), extra=""):
    def edit(d, inst):
        lines = (d / name).read_text().splitlines(keepends=True)
        (d / name).write_text("".join(lines[keep]) + extra)
    return edit


def _vector_on_one_line(name):
    """``name``'s values on one line, space-separated."""
    def edit(d, inst):
        (d / name).write_text(" ".join((d / name).read_text().split()) + "\n")
    return edit


def _write_A_bytes(make):
    return lambda d, inst: (d / "A.npy").write_bytes(make(inst.A))


def _npy_with_negative_rows(A):
    """A's .npy bytes with ``-m`` rows in the header."""
    buf = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": (-A.shape[0], A.shape[1])}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + A.tobytes()


def _swap_two_labels(d, inst):
    """labels.txt with its first +1 and its first -1 swapped: each changes
    sign, and the count of each label stays."""
    lines = (d / "labels.txt").read_text().splitlines(keepends=True)
    if "1\n" in lines and "-1\n" in lines:
        i, j = lines.index("1\n"), lines.index("-1\n")
        lines[i], lines[j] = lines[j], lines[i]
        (d / "labels.txt").write_text("".join(lines))


def _lipschitz_one_ulp_up(d, inst):
    """meta.json's stored Lipschitz constant moved up by one ulp, with its
    crc as it was; left as it is where meta.json holds no such float."""
    path = d / "meta.json"
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if isinstance(meta, dict) and type(meta.get("lipschitz")) is float:
        meta["lipschitz"] = math.nextafter(meta["lipschitz"], math.inf)
        path.write_text(json.dumps(meta))


def _A_is_a_directory(d, inst):
    (d / "A.npy").unlink()
    (d / "A.npy").mkdir()


_BOTH, _BP, _FUSED = ("bp", "fused"), ("bp",), ("fused",)
_NOT_AN_OBJECT = "{d}/meta.json does not hold a JSON object: ..."
_EDITS = {
    "meta-missing": (_BOTH, _unlink("meta.json"), FileNotFoundError, "no meta.json under {d}"),
    "meta-not-json": (_BOTH, _write("meta.json", "{not json"), ValueError, _NOT_AN_OBJECT),
    "meta-empty": (_BOTH, _write("meta.json", ""), ValueError, _NOT_AN_OBJECT),
    "meta-list": (_BOTH, _write("meta.json", "[1, 2]"), ValueError, _NOT_AN_OBJECT),
    "meta-null": (_BOTH, _write("meta.json", "null"), ValueError, _NOT_AN_OBJECT),
    "meta-pairs": (
        _BOTH, _meta_as_pairs, ValueError,
        "{d}/meta.json does not hold a JSON object: it holds a list",
    ),
    "kind-missing": (_BOTH, _meta(kind=_DROP), ValueError, "{d}/meta.json lacks the key 'kind'"),
    "kind-unknown": (
        _BOTH, _meta(kind="lasso"), ValueError, "{d}/meta.json has unknown instance kind 'lasso'"
    ),
    "kind-list": (
        _BOTH, _meta(kind=["basis_pursuit"]), ValueError,
        "{d}/meta.json has unknown instance kind ['basis_pursuit']",
    ),
    "kind-object": (
        _BOTH, _meta(kind={"a": 1}), ValueError,
        "{d}/meta.json has unknown instance kind {{'a': 1}}",
    ),
    "kind-fused-on-bp": (
        _BP, _meta(kind="fused_logistic"), FileNotFoundError,
        "[Errno 2] No such file or directory: '{d}/pattern.json'",
    ),
    "kind-bp-on-fused": (
        _FUSED, _meta(kind="basis_pursuit"), FileNotFoundError, "{d}/b.txt not found."
    ),
    "version-missing": (
        _BOTH, _meta(format_version=_DROP), ValueError,
        "{d}/meta.json lacks the key 'format_version'",
    ),
    "version-unknown": (
        _BOTH, _meta(format_version=3), ValueError, "{d}/meta.json has unknown format_version 3"
    ),
    "version-string": (
        _BOTH, _meta(format_version="2"), ValueError,
        "{d}/meta.json has unknown format_version '2'",
    ),
    "version-1-without-A-mtx": (
        _BOTH, _meta(format_version=1), FileNotFoundError,
        "The source file does not exist: {d}/A.mtx",
    ),
    "n-missing": (_BOTH, _meta(n=_DROP), ValueError, "{d}/meta.json lacks the key 'n'"),
    "m-missing": (_BOTH, _meta(m=_DROP), ValueError, "{d}/meta.json lacks the key 'm'"),
    "seed-missing": (_BOTH, _meta(seed=_DROP), ValueError, "{d}/meta.json lacks the key 'seed'"),
    "s-missing": (_BP, _meta(s=_DROP), ValueError, "{d}/meta.json lacks the key 's'"),
    "c_true-missing": (
        _FUSED, _meta(c_true=_DROP), ValueError, "{d}/meta.json lacks the key 'c_true'"
    ),
    "n-float": (
        _BOTH, _meta(n=10.0), ValueError, "{d}/meta.json key 'n' must be a JSON integer, got 10.0"
    ),
    "m-string": (
        _BOTH, _meta(m="4"), ValueError, "{d}/meta.json key 'm' must be a JSON integer, got '4'"
    ),
    "seed-bool": (
        _BOTH, _meta(seed=True), ValueError,
        "{d}/meta.json key 'seed' must be a JSON integer, got True",
    ),
    "s-string": (
        _BP, _meta(s="abc"), ValueError, "{d}/meta.json key 's' must be a JSON integer, got 'abc'"
    ),
    "c_true-bool": (
        _FUSED, _meta(c_true=False), ValueError,
        "{d}/meta.json key 'c_true' must be a JSON number, got False",
    ),
    # json writes and reads NaN, Infinity and -Infinity, which are no JSON numbers
    "c_true-nan": (
        _FUSED, _meta(c_true=math.nan), ValueError,
        "{d}/meta.json key 'c_true' must be a finite JSON number, got nan",
    ),
    "c_true-inf": (
        _FUSED, _meta(c_true=math.inf), ValueError,
        "{d}/meta.json key 'c_true' must be a finite JSON number, got inf",
    ),
    "c_true--inf": (
        _FUSED, _meta(c_true=-math.inf), ValueError,
        "{d}/meta.json key 'c_true' must be a finite JSON number, got -inf",
    ),
    # a JSON integer past float64's range, which float() would not take
    "c_true-huge-integer": (
        _FUSED, _meta(c_true=2**1024), ValueError,
        f"{{d}}/meta.json key 'c_true' must be a finite JSON number, got {2**1024}",
    ),
    # a fused meta.json's Lipschitz constant: both keys or neither, then the
    # type and range of each, then a crc that matches the data and the constant
    "lipschitz-missing": (
        _FUSED, _meta(lipschitz=_DROP), ValueError, "{d}/meta.json lacks the key 'lipschitz'"
    ),
    "lipschitz_crc32-missing": (
        _FUSED, _meta(lipschitz_crc32=_DROP), ValueError,
        "{d}/meta.json lacks the key 'lipschitz_crc32'",
    ),
    "lipschitz-bool": (
        _FUSED, _meta(lipschitz=True), ValueError,
        "{d}/meta.json key 'lipschitz' must be a JSON number, got True",
    ),
    "lipschitz-string": (
        _FUSED, _meta(lipschitz="x"), ValueError,
        "{d}/meta.json key 'lipschitz' must be a JSON number, got 'x'",
    ),
    "lipschitz-nan": (
        _FUSED, _meta(lipschitz=math.nan), ValueError,
        "{d}/meta.json key 'lipschitz' must be a finite JSON number, got nan",
    ),
    "lipschitz-inf": (
        _FUSED, _meta(lipschitz=math.inf), ValueError,
        "{d}/meta.json key 'lipschitz' must be a finite JSON number, got inf",
    ),
    "lipschitz-negative": (
        _FUSED, _meta(lipschitz=-1.0), ValueError,
        "{d}/meta.json key 'lipschitz' must be nonnegative, got -1.0",
    ),
    "lipschitz_crc32-float": (
        _FUSED, _meta(lipschitz_crc32=1.5), ValueError,
        "{d}/meta.json key 'lipschitz_crc32' must be a JSON integer, got 1.5",
    ),
    "lipschitz_crc32-negative": (
        _FUSED, _meta(lipschitz_crc32=-1), ValueError,
        "{d}/meta.json key 'lipschitz_crc32' must lie in [0, 2**32), got -1",
    ),
    "lipschitz_crc32-too-large": (
        _FUSED, _meta(lipschitz_crc32=2**32), ValueError,
        "{d}/meta.json key 'lipschitz_crc32' must lie in [0, 2**32), got 4294967296",
    ),
    "lipschitz_crc32-after-an-A-entry-changes": (
        _FUSED, _save_A(lambda A: _with_entry(A, A[-1, 0] + 1.0)), ValueError,
        "{d}/meta.json key 'lipschitz_crc32' does not match the data and lipschitz",
    ),
    "lipschitz_crc32-after-two-labels-swap-sign": (
        _FUSED, _swap_two_labels, ValueError,
        "{d}/meta.json key 'lipschitz_crc32' does not match the data and lipschitz",
    ),
    "lipschitz_crc32-after-the-constant-moves-one-ulp": (
        _FUSED, _lipschitz_one_ulp_up, ValueError,
        "{d}/meta.json key 'lipschitz_crc32' does not match the data and lipschitz",
    ),
    "n-too-large": (
        _BOTH, _meta(n=1000), ValueError,
        "A.npy shape ({m}, {n}) disagrees with meta.json's ({m}, 1000)",
    ),
    "m-negative": (
        _BOTH, _meta(m=-1), ValueError,
        "A.npy shape ({m}, {n}) disagrees with meta.json's (-1, {n})",
    ),
    "A-missing": (
        _BOTH, _unlink("A.npy"), FileNotFoundError,
        "[Errno 2] No such file or directory: '{d}/A.npy'",
    ),
    "A-transposed": (
        _BOTH, _save_A(lambda A: A.T), ValueError,
        "A.npy shape ({n}, {m}) disagrees with meta.json's ({m}, {n})",
    ),
    "A-flat": (
        _BOTH, _save_A(np.ravel), ValueError,
        "A.npy shape ({size},) disagrees with meta.json's ({m}, {n})",
    ),
    "A-complex": (
        _BOTH, _save_A(lambda A: A.astype(complex)), ValueError,
        "{d}/A.npy holds complex128 values, not real numbers",
    ),
    "A-text": (
        _BOTH, _write("A.npy", "not an array"), ValueError,
        "{d}/A.npy is not a .npy array file: ...",
    ),
    "A-empty": (_BOTH, _write("A.npy", ""), ValueError, "{d}/A.npy is not a .npy array file: ..."),
    "A-nan": (
        _BOTH, _save_A(lambda A: _with_entry(A, np.nan)), ValueError,
        "{d}/A.npy has non-finite entries",
    ),
    "A-inf": (
        _BOTH, _save_A(lambda A: _with_entry(A, -np.inf)), ValueError,
        "{d}/A.npy has non-finite entries",
    ),
    "A-pickle": (
        _BOTH, _write_A_bytes(pickle.dumps), ValueError,
        "{d}/A.npy is not a .npy array file: This file contains pickled (object) data. "
        "If you trust the file you can load it unsafely using the `allow_pickle=` "
        "keyword argument or `pickle.load()`.",
    ),
    "A-object": (
        _BOTH, _write_A_bytes(lambda A: _npy_bytes(A.astype(object))), ValueError,
        "{d}/A.npy is not a .npy array file: "
        "Array can't be memory-mapped: Python objects in dtype.",
    ),
    "A-npz": (
        _BOTH, _write_A_bytes(lambda A: _npz_bytes()), ValueError,
        "{d}/A.npy is an .npz archive, not a .npy array file",
    ),
    # a zip signature before anything else; np.load let zipfile's BadZipFile out
    "A-zip-signature": (
        _BOTH, _write("A.npy", "PK\x03\x04 and no archive"), ValueError,
        "{d}/A.npy is an .npz archive, not a .npy array file",
    ),
    "A-truncated": (
        _BOTH, _write_A_bytes(lambda A: _npy_bytes(A)[:-8]), ValueError,
        "{d}/A.npy is not a .npy array file: mmap length is greater than file size",
    ),
    # np.load let the OverflowError of a negative map length out
    "A-negative-rows": (
        _BOTH, _write_A_bytes(_npy_with_negative_rows), ValueError,
        "{d}/A.npy is not a .npy array file: ...",
    ),
    "A-bool": (
        _BOTH, _save_A(lambda A: A > 0), ValueError, "{d}/A.npy holds bool values, not real numbers"
    ),
    "A-directory": (
        _BOTH, _A_is_a_directory, IsADirectoryError, "[Errno 21] Is a directory: '{d}/A.npy'"
    ),
    "xhat-missing": (_BOTH, _unlink("xhat.txt"), FileNotFoundError, "{d}/xhat.txt not found."),
    "xhat-short": (
        _BOTH, _vector_lines("xhat.txt", slice(-1)), ValueError,
        "xhat.txt has {n_short} entries, meta.json says {n}",
    ),
    "xhat-long": (
        _BOTH, _vector_lines("xhat.txt", extra="1\n"), ValueError,
        "xhat.txt has {n_long} entries, meta.json says {n}",
    ),
    "xhat-empty": (
        _BOTH, _write("xhat.txt", ""), ValueError, "xhat.txt has 0 entries, meta.json says {n}"
    ),
    "xhat-not-a-number": (
        _BOTH, _vector_lines("xhat.txt", slice(1), "abc\n"), ValueError,
        "{d}/xhat.txt does not hold one number per line: ...",
    ),
    "xhat-one-line": (
        _BOTH, _vector_on_one_line("xhat.txt"), ValueError,
        "{d}/xhat.txt does not hold one number per line: ...",
    ),
    "xhat-nan": (
        _BOTH, _vector_lines("xhat.txt", slice(1, None), "nan\n"), ValueError,
        "{d}/xhat.txt has non-finite entries",
    ),
    "b-missing": (_BP, _unlink("b.txt"), FileNotFoundError, "{d}/b.txt not found."),
    "b-short": (
        _BP, _vector_lines("b.txt", slice(-1)), ValueError,
        "b.txt has {m_short} entries, meta.json says {m}",
    ),
    "b-blank": (
        _BP, _write("b.txt", "\n \n"), ValueError, "b.txt has 0 entries, meta.json says {m}"
    ),
    "b-one-line": (
        _BP, _vector_on_one_line("b.txt"), ValueError,
        "{d}/b.txt does not hold one number per line: ...",
    ),
    "b-inf": (
        _BP, _vector_lines("b.txt", slice(1, None), "inf\n"), ValueError,
        "{d}/b.txt has non-finite entries",
    ),
    "labels-missing": (
        _FUSED, _unlink("labels.txt"), FileNotFoundError, "{d}/labels.txt not found."
    ),
    "labels-short": (
        _FUSED, _vector_lines("labels.txt", slice(-1)), ValueError,
        "labels.txt has {m_short} entries, meta.json says {m}",
    ),
    "labels-nan": (
        _FUSED, _vector_lines("labels.txt", slice(1, None), "nan\n"), ValueError,
        "{d}/labels.txt has non-finite entries",
    ),
    "labels-half": (
        _FUSED, _vector_lines("labels.txt", slice(1, None), "0.5\n"), ValueError,
        "{d}/labels.txt holds a label other than -1 or +1",
    ),
    "labels-zero": (
        _FUSED, _vector_lines("labels.txt", slice(1, None), "-0\n"), ValueError,
        "{d}/labels.txt holds a label other than -1 or +1",
    ),
    "labels-next-to-one": (
        _FUSED, _vector_lines("labels.txt", slice(1, None), "1.0000000000000002\n"), ValueError,
        "{d}/labels.txt holds a label other than -1 or +1",
    ),
    "pattern-missing": (
        _FUSED, _unlink("pattern.json"), FileNotFoundError,
        "[Errno 2] No such file or directory: '{d}/pattern.json'",
    ),
    "pattern-not-json": (
        _FUSED, _write("pattern.json", "{"), ValueError,
        "{d}/pattern.json does not hold a JSON object: ...",
    ),
    "pattern-list": (
        _FUSED, _write("pattern.json", "[]"), ValueError,
        "{d}/pattern.json does not hold a JSON object: it holds a list",
    ),
    "pattern-key-missing": (
        _FUSED, _write("pattern.json", "{}"), ValueError, "{d}/pattern.json lacks the key 'pattern'"
    ),
    "pattern-number": (
        _FUSED, _write("pattern.json", '{"pattern": 3}'), ValueError,
        "{d}/pattern.json key 'pattern' must be a JSON string, got 3",
    ),
}
_CASES = [(kind, name) for name, (kinds, *_) in _EDITS.items() for kind in kinds]
# every file a directory of either kind holds, or format 1 held
_FILES = ("meta.json", "pattern.json", "A.npy", "A.mtx", "b.txt", "xhat.txt", "labels.txt")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """``kind -> (directory, instance)``: one saved directory of each kind
    to copy and break."""
    root = tmp_path_factory.mktemp("saved")
    inst_bp, inst_fused = bp.generate(10, 4, 1, 9), fl.generate_block_pattern(130, 20, 2)
    return {
        "bp": (storage.save_bp_instance(inst_bp, root / "bp"), inst_bp),
        "fused": (storage.save_fused_instance(inst_fused, root / "fused"), inst_fused),
    }


def _copy(saved, kind, directory):
    source, inst = saved[kind]
    return Path(shutil.copytree(source, directory)), inst


@pytest.mark.parametrize(("kind", "name"), _CASES)
def test_a_single_broken_file_raises_its_pinned_error(saved, tmp_path, kind, name):
    d, inst = _copy(saved, kind, tmp_path / "inst")
    _, edit, error, message = _EDITS[name]
    edit(d, inst)
    m, n = inst.A.shape
    want = message.format(
        d=d, m=m, n=n, size=m * n, m_short=m - 1, n_short=n - 1, n_long=n + 1
    )
    with pytest.raises((ValueError, OSError)) as exc:
        storage.load_instance(d)
    got = str(exc.value)
    assert type(exc.value) is error, got
    assert got.startswith(want[:-3]) if want.endswith("...") else got == want


def test_a_fused_directory_without_the_lipschitz_keys_computes_it_on_first_use(saved, tmp_path):
    # every directory written before the keys were: the constant is not set
    # by loading, and the first use computes the bits it always had
    d, inst = _copy(saved, "fused", tmp_path / "inst")
    _meta(lipschitz=_DROP, lipschitz_crc32=_DROP)(d, inst)
    loaded = storage.load_instance(d)
    assert "lipschitz" not in vars(loaded)
    assert loaded.lipschitz.hex() == fl.logistic_lipschitz(inst.aux).hex()
    assert "lipschitz" in vars(loaded)


_PAIRS = [
    (kind, first, second)
    for kind in ("bp", "fused")
    for first, second in itertools.permutations([n for k, n in _CASES if k == kind], 2)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PAIRS))
def test_two_broken_files_raise_only_a_value_or_os_error_naming_a_file(saved, pair):
    kind, *names = pair
    with tempfile.TemporaryDirectory() as tmp:
        # the second edit finds what the first left: a file may be gone,
        # a directory, or no JSON object, and then it changes nothing
        d, inst = _copy(saved, kind, Path(tmp) / "inst")
        for name in names:
            with contextlib.suppress(OSError):
                _EDITS[name][1](d, inst)
        # edits can cancel (a short and a long xhat.txt), so the directory
        # may load; any other exception type fails the test as it is
        try:
            storage.load_instance(d)
        except (ValueError, OSError) as exc:
            assert any(f in str(exc) for f in _FILES), (pair, exc)


def _fresh_modules(script, *args):
    """The last stdout line of ``script`` run with ``args`` in a fresh
    interpreter on this checkout's ``src``: this test process has scipy
    already."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_loading_a_format_2_directory_never_imports_scipy_io(tmp_path):
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    script = (
        "import sys, egadm, egadm.cli, egadm.storage\n"
        "egadm.storage.load_instance(sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.io')))\n"
    )
    assert _fresh_modules(script, d) == "[]"


def test_loading_and_solving_a_format_2_bp_directory_never_imports_scipy(tmp_path):
    # a bp solve needs no spectral norm: its coupling declares its constants
    d = storage.save_bp_instance(bp.generate(10, 4, 1, 9), tmp_path / "inst")
    script = (
        "import sys, egadm.cli, egadm.storage\n"
        "egadm.storage.load_instance(sys.argv[1])\n"
        "for variant in ('gl', 'gal', 'egl', 'egal'):\n"
        # 2 is a run that hit the iteration cap, which gl may on this draw
        "    assert egadm.cli.main(['solve', sys.argv[1], '--variant', variant]) in (0, 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_modules(script, d) == "[]"


def test_loading_and_solving_a_fused_directory_never_imports_scipy(tmp_path):
    # the directory stores the Lipschitz constant, so no eigen-solve runs
    d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "inst")
    script = (
        "import sys, egadm.cli, egadm.storage\n"
        "egadm.storage.load_instance(sys.argv[1])\n"
        "for variant in ('gl', 'gal', 'egl', 'egal'):\n"
        "    argv = ['solve', sys.argv[1], '--variant', variant, '--max-iters', '300']\n"
        # 2 is a run that hit the iteration cap
        "    assert egadm.cli.main(argv) in (0, 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_modules(script, d) == "[]"


_DRAWS = {
    "simple-wide": lambda seed: fl.generate_simple_pattern(1000, seed, m=60),
    "blocks-wide": lambda seed: fl.generate_block_pattern(130, 40, seed),
    # m > n + 1: spectral_norm_sq takes the Gram matrix of the other side
    "blocks-tall": lambda seed: fl.generate_block_pattern(130, 200, seed),
}


@pytest.mark.parametrize("seed", [3, 41, 977])
@pytest.mark.parametrize("draw", sorted(_DRAWS))
def test_the_stored_lipschitz_constant_has_the_bits_of_logistic_lipschitz(tmp_path, draw, seed):
    inst = _DRAWS[draw](seed)
    m, cols = inst.aux.data.shape
    assert (m > cols) == (draw == "blocks-tall")
    expected = fl.logistic_lipschitz(inst.aux).hex()
    d = storage.save_fused_instance(inst, tmp_path / "inst")
    assert json.loads((d / "meta.json").read_text())["lipschitz"].hex() == expected
    assert vars(storage.load_instance(d))["lipschitz"].hex() == expected


def test_resaving_a_loaded_fused_directory_writes_its_bytes_without_an_eigen_solve(
    tmp_path, monkeypatch
):
    d = storage.save_fused_instance(fl.generate_block_pattern(130, 20, 2), tmp_path / "a")
    loaded = storage.load_instance(d)

    def must_not_run(*args):
        raise AssertionError("the Lipschitz constant was computed again")

    monkeypatch.setattr(fl, "logistic_lipschitz", must_not_run)
    again = storage.save_fused_instance(loaded, tmp_path / "b")
    for name in ("meta.json", "pattern.json", "A.npy", "labels.txt", "xhat.txt"):
        assert (again / name).read_bytes() == (d / name).read_bytes(), name
    assert loaded.smooth_block.lipschitz_constant == loaded.lipschitz


# One-byte edits of a saved directory: (kind, file, edit, position, value).
# A flip flips bit ``value % 8`` of the byte at ``position``, an insert
# writes the byte ``value`` before it, a delete drops it and a truncate
# keeps the bytes before it; a position past the file wraps round.
_EDIT_FILES = {
    "bp": ("meta.json", "A.npy", "b.txt", "xhat.txt"),
    "fused": ("meta.json", "pattern.json", "A.npy", "labels.txt", "xhat.txt"),
}
# the bytes of a saved A.npy that hold its header
_NPY_HEADER = 128
# edits of a bp 30 x 10 A.npy header that NumPy's header parsers let out
# as another exception than a ValueError
_PINNED_EDITS = {
    "flip-byte10-to-0x7a-TokenError": ("bp", "A.npy", "flip", 10, 0),  # "{" becomes "z"
    "flip-byte21-to-0x2c-SyntaxError": ("bp", "A.npy", "flip", 21, 4),  # dtype "<f8" becomes ",f8"
    "insert-byte11-0x42-TypeError": ("bp", "A.npy", "insert", 11, 0x42),  # a key B'descr'
}


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    """``kind -> (directory, instance)``: a bp 30 x 10 and a fused blocks
    130 x 12 directory to copy and edit; the fused one stores its constant."""
    root = tmp_path_factory.mktemp("fuzzed")
    inst_bp, inst_fused = bp.generate(30, 10, 2, 0), fl.generate_block_pattern(130, 12, 0)
    d_fused = storage.save_fused_instance(inst_fused, root / "fused")
    assert "lipschitz_crc32" in json.loads((d_fused / "meta.json").read_text())
    return {"bp": (storage.save_bp_instance(inst_bp, root / "bp"), inst_bp), "fused": (d_fused, inst_fused)}


def _edited_copy(fuzzed, edit, directory):
    """A copy of the ``fuzzed`` directory of the edit's kind, with ``edit`` made."""
    kind, name, op, position, value = edit
    d, inst = _copy(fuzzed, kind, directory)
    data = bytearray((d / name).read_bytes())
    position %= len(data) + (op == "insert")
    if op == "flip":
        data[position] ^= 1 << value % 8
    elif op == "insert":
        data.insert(position, value)
    elif op == "delete":
        del data[position]
    else:
        del data[position:]
    (d / name).write_bytes(bytes(data))
    return d, inst


@pytest.mark.parametrize("edit", _PINNED_EDITS.values(), ids=list(_PINNED_EDITS))
def test_a_header_numpy_cannot_parse_is_a_value_error_naming_A_npy(fuzzed, tmp_path, edit):
    d, _ = _edited_copy(fuzzed, edit, tmp_path / "inst")
    with pytest.raises(ValueError, match=f"^{re.escape(str(d / 'A.npy'))} is not a .npy array file: "):
        storage.load_instance(d)


@st.composite
def _edits(draw):
    kind = draw(st.sampled_from(sorted(_EDIT_FILES)))
    name = draw(st.sampled_from(_EDIT_FILES[kind]))
    # four in five A.npy edits land in its header, where NumPy parses text
    in_header = name == "A.npy" and draw(st.integers(0, 4)) > 0
    position = draw(st.integers(0, _NPY_HEADER - 1 if in_header else 2**16))
    op = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
    return kind, name, op, position, draw(st.integers(0, 255))


# a header NumPy had to filter as a Python 2 one loads with this warning
@pytest.mark.filterwarnings("ignore:Reading `.npy` or `.npz` file required additional header parsing")
@settings(max_examples=300, deadline=None)
@given(_edits())
@example(_PINNED_EDITS["flip-byte10-to-0x7a-TokenError"])
@example(_PINNED_EDITS["flip-byte21-to-0x2c-SyntaxError"])
@example(_PINNED_EDITS["insert-byte11-0x42-TypeError"])
def test_a_one_byte_edit_loads_or_raises_a_value_or_os_error_naming_a_file(fuzzed, edit):
    with tempfile.TemporaryDirectory() as tmp:
        d, inst = _edited_copy(fuzzed, edit, Path(tmp) / "inst")
        try:
            loaded = storage.load_instance(d)
        except (ValueError, OSError) as exc:
            assert any(f in str(exc) for f in _FILES), (edit, exc)
            return
    assert type(loaded) is type(inst)
    if edit[0] == "fused":
        # the stored constant's crc32 covers the augmented data, so A and the labels
        assert loaded.A.tobytes() == inst.A.tobytes(), edit
        assert loaded.labels.tobytes() == inst.labels.tobytes(), edit
