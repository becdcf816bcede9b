"""Instance directories: a binary matrix file plus portable text.

``save_bp_instance`` and ``save_fused_instance`` write a directory;
``load_instance`` reads either kind, parsing ``meta.json`` once.

Each instance is a directory holding ``meta.json``, the matrix ``A`` as
``A.npy`` (NumPy's binary array format, NEP 1: a short text header, then
the float64 values exactly, about a third of the size of 17-digit text),
and one-value-per-line vector files written with 17 significant digits
so float64 values round-trip.  Basis-pursuit directories carry ``b.txt``
and ``xhat.txt``; fused directories carry ``labels.txt``, ``xhat.txt``,
and a ``pattern.json`` naming the generator and its parameters.

``meta.json`` must hold the ``kind`` and the ``format_version`` (every
writer has written both), which says where A is: 2 is ``A.npy``; 1 is
``A.mtx``, MatrixMarket array text, which directories written before
format 2 hold and which still load.  ``A.npy`` is mapped, not read: its
header goes through NumPy's own header readers, and its data are viewed
in place, so the instance's own copy is the one full-size allocation A
needs.  Nothing is ever unpickled: a header whose dtype holds Python
objects is refused, as ``np.load(allow_pickle=False)`` refuses it.
Vector files are parsed as ``np.loadtxt`` parses them, except that a
line must hold one number.  Each JSON value must have its type: ``n``,
``m``, ``s`` and ``seed`` are integers, ``c_true`` a finite number and
``pattern`` a string (a bool is none of these); anything else is a
ValueError naming the file and the key.
A fused ``meta.json`` also holds ``lipschitz`` and a crc32 of the data
and it, checked on load; older ones lack both and compute it on use.
A basis-pursuit ``meta.json`` holds ``data_crc32``, a crc32 of A and b,
checked on load; older ones lack it and load unchecked.  Both kinds'
``meta.json`` hold ``xhat_crc32``, a crc32 of xhat, checked last on
load; older ones lack it and load unchecked.
Every value in A and in the vector files must be finite, and every label
-1 or +1.  Saving an instance with a non-finite ``c_true``, A or vector
is a ValueError naming the field, and writes nothing.
Every error a broken directory raises is a ValueError or an OSError
naming a file in it.
"""

import ast
import contextlib
import json
import math
import mmap
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .basis_pursuit import BasisPursuitInstance
from .fused_logistic import FusedLogisticInstance, LabelError

FORMAT_VERSION = 2

# The file that holds A, by ``format_version``.
_MATRIX_FILES = {1: "A.mtx", 2: "A.npy"}


def write_vector(path, v):
    """Write ``v`` one value per line with 17 significant digits.

    The text is one ``%`` operation over the whole vector, one ``%.17g``
    per value: ``%`` and ``format`` render a float through the same
    CPython routine, so each line is ``f"{val:.17g}"`` byte for byte,
    while a single format string skips a generator step and an f-string
    per value."""
    values = tuple(np.asarray(v, dtype=float).tolist())
    text = ("%.17g\n" * len(values)) % values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# NumPy's reader of a .npy header, and the struct format of the header's
# length before it, by format version.  Version 3.0 differs from 2.0 only in
# decoding the header as UTF-8, not latin-1: the same text for the ASCII
# header of any real dtype.
_NPY_HEADERS = {
    (1, 0): (np.lib.format.read_array_header_1_0, "<H"),
    (2, 0): (np.lib.format.read_array_header_2_0, "<I"),
    (3, 0): (np.lib.format.read_array_header_2_0, "<I"),
}

# The longest header NumPy's readers parse (their ``max_header_size``)
_NPY_MAX_HEADER = 10000


def _map_npy(path):
    """The array in the .npy file ``path``: a read-only view of a map of
    the file, which is unmapped when the last view of it is gone.

    The header is read with NumPy's ``read_magic`` and
    ``read_array_header_*``, and the data are mapped and viewed as
    ``np.memmap`` maps and views them.  It refuses what
    ``np.load(path, mmap_mode="r", allow_pickle=False)`` refuses, as a
    ValueError that names the file and ends in NumPy's own message: a
    file that is empty, a pickle or any other file without NumPy's magic
    string, an unknown version, a broken header, a dtype holding Python
    objects, or fewer data bytes than the header's shape; and also a
    shape whose byte count is negative (``np.load`` let that out as an
    OverflowError) or past the address space, a header that NumPy's
    parsers, as in ``np.load``, let out as another exception, or one that
    is no Python 3 literal, which ``np.load`` reads as a Python 2 header
    (``(10L, 30)``) with a UserWarning.  An .npz archive, or any file that
    starts as a zip file does, is refused unopened."""
    with open(path, "rb") as fh:
        if fh.read(4) in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ValueError(f"{path} is an .npz archive, not a .npy array file")
        fh.seek(0)
        try:
            return _map_npy_data(fh)
        except (ValueError, EOFError, OverflowError) as exc:
            raise ValueError(f"{path} is not a .npy array file: {exc}") from None


def _check_header_literal(fh, length_format):
    """A ValueError unless the .npy header at ``fh``'s position, after its
    length in ``length_format``, is a Python 3 literal.  NumPy's readers
    retry any other header as a Python 2 one and, where that parses, warn;
    a header shorter than its length or longer than NumPy parses is left
    to NumPy's readers to refuse."""
    size = struct.calcsize(length_format)
    raw = fh.read(size)
    if len(raw) < size:
        return
    (length,) = struct.unpack(length_format, raw)
    header = fh.read(length) if length <= _NPY_MAX_HEADER else b""
    if len(header) == length:
        try:
            ast.literal_eval(header.decode("latin1"))
        except SyntaxError as exc:
            raise ValueError(f"cannot parse the header: SyntaxError: {exc}") from None


def _map_npy_data(fh):
    """``_map_npy`` of the open file ``fh``, with ``np.load``'s exceptions,
    except that a header that is no Python 3 literal (``_check_header_literal``),
    or that NumPy's parsers let out as ``SyntaxError`` (a bad dtype string)
    or ``TypeError`` (a bytes key beside the str ones), is a ValueError."""
    magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
    if not magic:
        raise EOFError("No data left in file")
    if magic != np.lib.format.MAGIC_PREFIX:
        raise ValueError(
            "This file contains pickled (object) data. If you trust the file you can load "
            "it unsafely using the `allow_pickle=` keyword argument or `pickle.load()`."
        )
    fh.seek(0)
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f"we only support format version (1,0), (2,0), and (3,0), not {version}")
    read_header, length_format = _NPY_HEADERS[version]
    start = fh.tell()
    _check_header_literal(fh, length_format)
    fh.seek(start)
    try:
        shape, fortran_order, dtype = read_header(fh)
    except (SyntaxError, TypeError) as exc:
        raise ValueError(f"cannot parse the header: {type(exc).__name__}: {exc}") from None
    if dtype.hasobject:
        raise ValueError("Array can't be memory-mapped: Python objects in dtype.")
    # the map and the array view over it that ``np.memmap`` makes
    offset = fh.tell()
    size = offset + math.prod(shape) * dtype.itemsize
    mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
    return np.ndarray(shape, dtype, mapped, offset, order="F" if fortran_order else "C")


def _read_matrix(d, meta):
    """A as a C-ordered float64 array of ``meta.json``'s shape (m, n).

    A format-2 ``A.npy`` comes back as a read-only view of a map of the
    file (``_map_npy``), as ``np.load(mmap_mode="r")`` gave it, without
    the ``np.memmap`` around it: for C-ordered float64 the instance's own
    copy of the data, a basis-pursuit instance's read-only A or a fused
    instance's augmented matrix, is the one full-size allocation A needs;
    other layouts and real dtypes are converted.
    Anything that is not a real 2-d array of that shape with finite
    entries is a ValueError naming the file; a missing file is an OSError
    naming it."""
    version = meta["format_version"]
    if type(version) is not int or version not in _MATRIX_FILES:
        raise ValueError(f"{meta.path} has unknown format_version {version!r}")
    path = d / _MATRIX_FILES[version]
    if version == 1:
        # imported here, so that loading a format-2 directory never pays
        # for importing scipy.io
        from scipy.io import mmread

        A = mmread(str(path))
        if not isinstance(A, np.ndarray):
            raise ValueError(f"{path} does not hold a dense array")
    else:
        A = _map_npy(path)
    if A.dtype.kind not in "fiu":
        raise ValueError(f"{path} holds {A.dtype} values, not real numbers")
    shape = (meta.typed("m", int), meta.typed("n", int))
    if A.shape != shape:
        raise ValueError(f"{path.name} shape {A.shape} disagrees with meta.json's {shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{path} has non-finite entries")
    return np.require(A, dtype=np.float64, requirements="C")


def _read_vector(path, length):
    """The vector in the text file ``path``, of ``length`` finite values.

    The file holds one number per line: blank lines and text after a
    ``#`` are skipped, and spaces around a number are dropped.  A number
    is ASCII text that ``float`` takes without the underscores it allows,
    which is what ``np.loadtxt`` takes, and has its bits.  A file that is
    missing is a FileNotFoundError, and one that holds anything else, two
    numbers on one line included, a ValueError, each naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} not found.") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} does not hold one number per line: {exc}") from None
    lines = text.split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    entries = [entry for entry in map(str.strip, lines) if entry]
    try:
        joined = "".join(entries)
        if not joined.isascii() or "_" in joined:
            bad = next(e for e in entries if not e.isascii() or "_" in e)
            raise ValueError(f"could not convert string to float: {bad!r}")
        # float refuses an entry with a space inside: two numbers on a line
        v = np.array(list(map(float, entries)))
    except ValueError as exc:
        raise ValueError(f"{path} does not hold one number per line: {exc}") from None
    if v.shape != (length,):
        raise ValueError(f"{path.name} has {v.size} entries, meta.json says {length}")
    if not np.isfinite(v).all():
        raise ValueError(f"{path} has non-finite entries")
    return v


# The JSON values ``_JsonObject.typed`` accepts for each Python type, and
# their JSON name: a bool is none of them, and a float is no integer.
_JSON_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"), str: ((str,), "string")}


class _JsonObject(dict):
    """The JSON object in ``path``.  Invalid JSON, any other JSON value
    (a list of pairs included), a key read with ``[]`` that the object
    lacks, and a value ``typed`` rejects raise a ValueError naming the
    file (and the key)."""

    def __init__(self, path):
        try:
            value = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path} does not hold a JSON object: {exc}") from None
        if not isinstance(value, dict):
            kind = type(value).__name__
            raise ValueError(f"{path} does not hold a JSON object: it holds a {kind}")
        super().__init__(value)
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path} lacks the key {key!r}")

    def typed(self, key, t):
        """``self[key]`` as a ``t`` (int, float or str), if it is a JSON
        value of that type; a float must also be finite."""
        value = self[key]
        allowed, name = _JSON_TYPES[t]
        if type(value) not in allowed:
            raise ValueError(f"{self.path} key {key!r} must be a JSON {name}, got {value!r}")
        # ``json`` reads NaN and +-Infinity, and an integer may lie past
        # float64's range (int and float compare exactly; NaN fails the test)
        if t is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{self.path} key {key!r} must be a finite JSON number, got {value!r}")
        return t(value)


def _write_meta(path, meta):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Each kind's layout: its class, the scalars ``meta.json`` holds besides
# kind, n, m and format_version (with the type each is stored and loaded
# as), and its vector fields, each in ``<field>.txt``, with the meta.json key
# of its length.  A fused directory also holds ``pattern.json``.
_KINDS = {
    "basis_pursuit": (BasisPursuitInstance, {"s": int, "seed": int}, {"b": "m", "xhat": "n"}),
    "fused_logistic": (
        FusedLogisticInstance, {"c_true": float, "seed": int}, {"labels": "m", "xhat": "n"}
    ),
}


def _layout_files(kind):
    """The files a ``kind`` directory holds besides meta.json and A.npy."""
    pattern = {"pattern.json"} if kind == "fused_logistic" else set()
    return pattern | {f"{field}.txt" for field in _KINDS[kind][2]}


def _crc32(*values):
    """``zlib.crc32`` of the values' little-endian float64 bytes, one after
    another."""
    crc = 0
    for v in values:
        crc = zlib.crc32(np.asarray(v, dtype="<f8"), crc)
    return crc


def _lipschitz_keys(data, lipschitz):
    """meta.json's ``lipschitz`` and its ``lipschitz_crc32``: ``_crc32`` of
    the augmented data and the constant."""
    return {"lipschitz": lipschitz, "lipschitz_crc32": _crc32(data, lipschitz)}


def _save(inst, directory, kind):
    """Write ``inst`` under ``directory``, after checking every value that
    ``load_instance`` checks for finiteness and every vector's length
    against the ``m`` or ``n`` that ``meta.json`` records, so a refused
    instance writes nothing.  A file that another kind's layout or a
    format-1 save writes (``A.mtx``) is deleted; every other file in the
    directory is left."""
    _, scalars, vectors = _KINDS[kind]
    if not math.isfinite(getattr(inst, "c_true", 0.0)):  # JSON has no NaN or infinity
        raise ValueError(f"cannot save a {kind} instance whose c_true is {inst.c_true!r}")
    for field, key in vectors.items():
        shape, length = np.shape(getattr(inst, field)), getattr(inst, key)
        if shape != (length,):
            raise ValueError(
                f"cannot save a {kind} instance whose {field} has shape {shape}, not {key} = {length} entries"
            )
    A = inst.A  # a fused instance rebuilds A on each access
    for field, values in [("A", A)] + [(f, getattr(inst, f)) for f in vectors]:
        if not np.isfinite(values).all():
            raise ValueError(f"cannot save a {kind} instance whose {field} has non-finite entries")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name in {"A.mtx"}.union(*map(_layout_files, _KINDS)) - _layout_files(kind):
        (d / name).unlink(missing_ok=True)
    meta = {"kind": kind, "n": int(inst.n), "m": int(inst.m), "format_version": FORMAT_VERSION}
    if kind == "fused_logistic":
        with contextlib.suppress(ValueError):  # an overflowing Gram matrix: a solve reports it
            meta |= _lipschitz_keys(inst.aux.data, inst.lipschitz)
    else:
        meta["data_crc32"] = _crc32(A, inst.b)
    meta["xhat_crc32"] = _crc32(inst.xhat)
    _write_meta(d / "meta.json", meta | {key: t(getattr(inst, key)) for key, t in scalars.items()})
    if kind == "fused_logistic":
        _write_meta(
            d / "pattern.json",
            {"pattern": inst.pattern, "n": int(inst.n), "m": int(inst.m), "seed": int(inst.seed)},
        )
    np.save(d / "A.npy", A, allow_pickle=False)
    for field in vectors:
        write_vector(d / f"{field}.txt", getattr(inst, field))
    return d


def save_bp_instance(inst, directory):
    return _save(inst, directory, "basis_pursuit")


def save_fused_instance(inst, directory):
    return _save(inst, directory, "fused_logistic")


def load_instance(directory):
    """Load either instance kind, dispatching on meta.json's ``kind``.
    Files are read in the order meta.json, pattern.json, A, vectors.  The
    labels are checked once, by the instance's constructor: its
    ``LabelError`` becomes a ValueError naming ``labels.txt``; a stored
    Lipschitz constant, or a bp directory's ``data_crc32``, is checked
    against the instance's data, and then ``xhat_crc32`` against its
    xhat.  A directory that lacks a crc key loads without that check."""
    d = Path(directory)
    meta_path = d / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"no meta.json under {d}")
    meta = _JsonObject(meta_path)
    kind = meta["kind"]
    # the list compares by ==, so a kind that is a JSON list or object is unknown, not unhashable
    if kind not in list(_KINDS):
        raise ValueError(f"{meta_path} has unknown instance kind {kind!r}")
    cls, scalars, vectors = _KINDS[kind]
    pattern = _JsonObject(d / "pattern.json") if kind == "fused_logistic" else None
    fields = {"A": _read_matrix(d, meta)}
    fields |= {f: _read_vector(d / f"{f}.txt", meta.typed(key, int)) for f, key in vectors.items()}
    fields |= {key: meta.typed(key, t) for key, t in scalars.items()}
    if pattern is not None:
        fields["pattern"] = pattern.typed("pattern", str)
    try:
        inst = cls(**fields)
    except LabelError:
        raise ValueError(f"{d / 'labels.txt'} holds a label other than -1 or +1") from None
    if pattern is not None and ("lipschitz" in meta or "lipschitz_crc32" in meta):
        # both keys or neither, then each one's type and range, then the crc
        lipschitz, crc = meta["lipschitz"], meta["lipschitz_crc32"]
        if not meta.typed("lipschitz", float) >= 0:
            raise ValueError(f"{meta_path} key 'lipschitz' must be nonnegative, got {lipschitz!r}")
        if not 0 <= meta.typed("lipschitz_crc32", int) < 2**32:
            raise ValueError(f"{meta_path} key 'lipschitz_crc32' must lie in [0, 2**32), got {crc!r}")
        if _crc32(inst.aux.data, float(lipschitz)) != crc:
            raise ValueError(f"{meta_path} key 'lipschitz_crc32' does not match the data and lipschitz")
        vars(inst)["lipschitz"] = float(lipschitz)  # the cached property's own slot
    if pattern is None and "data_crc32" in meta:
        if _crc32(inst.A, inst.b) != meta.typed("data_crc32", int):
            raise ValueError(f"{meta_path} key 'data_crc32' does not match A and b")
    if "xhat_crc32" in meta and _crc32(inst.xhat) != meta.typed("xhat_crc32", int):
        raise ValueError(f"{meta_path} key 'xhat_crc32' does not match xhat")
    return inst
