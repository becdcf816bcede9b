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
format 2 hold and which still load.  A is read with ``allow_pickle=False``:
loading never unpickles.  Each JSON
value must have its type: ``n``, ``m``, ``s`` and ``seed`` are integers,
``c_true`` a finite number and ``pattern`` a string (a bool is none of
these); anything else is a ValueError naming the file and the key, and
saving a non-finite ``c_true`` is one too.  Every value in A and in the
vector files must be finite, and every label -1 or +1.
Every error a broken directory raises is a ValueError or an OSError
naming a file in it.
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis_pursuit import BasisPursuitInstance
from .fused_logistic import FusedLogisticInstance

FORMAT_VERSION = 2

# The file that holds A, by ``format_version``.
_MATRIX_FILES = {1: "A.mtx", 2: "A.npy"}


def write_vector(path, v):
    """Write ``v`` one value per line with 17 significant digits."""
    text = "".join(f"{val:.17g}\n" for val in np.asarray(v, dtype=float).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_matrix(d, meta):
    """A as a C-ordered float64 array of ``meta.json``'s shape (m, n).

    A format-2 ``A.npy`` of C-ordered float64 comes back as a read-only
    map of the file (``mmap_mode="r"``), so the instance's read-only copy
    is the one full-size allocation A needs; other layouts and real dtypes
    are converted.
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
    else:
        try:
            A = np.load(path, mmap_mode="r", allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path} is not a .npy array file: {exc}") from None
        if not isinstance(A, np.ndarray):
            A.close()
            raise ValueError(f"{path} is an .npz archive, not a .npy array file")
    if not isinstance(A, np.ndarray):
        raise ValueError(f"{path} does not hold a dense array")
    if A.dtype.kind not in "fiu":
        raise ValueError(f"{path} holds {A.dtype} values, not real numbers")
    shape = (meta.typed("m", int), meta.typed("n", int))
    if A.shape != shape:
        raise ValueError(f"{path.name} shape {A.shape} disagrees with meta.json's {shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{path} has non-finite entries")
    return np.require(A, dtype=np.float64, requirements="C")


def _read_vector(path, length):
    try:
        with warnings.catch_warnings():
            # a file with no data is the length error below, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            v = np.loadtxt(path, dtype=float, ndmin=1)
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


def _save(inst, directory, kind):
    _, scalars, vectors = _KINDS[kind]
    if not math.isfinite(getattr(inst, "c_true", 0.0)):  # JSON has no NaN or infinity
        raise ValueError(f"cannot save a {kind} instance whose c_true is {inst.c_true!r}")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    meta = {"kind": kind, "n": int(inst.n), "m": int(inst.m), "format_version": FORMAT_VERSION}
    _write_meta(d / "meta.json", meta | {key: t(getattr(inst, key)) for key, t in scalars.items()})
    if kind == "fused_logistic":
        _write_meta(
            d / "pattern.json",
            {"pattern": inst.pattern, "n": int(inst.n), "m": int(inst.m), "seed": int(inst.seed)},
        )
    np.save(d / "A.npy", inst.A, allow_pickle=False)
    for field in vectors:
        write_vector(d / f"{field}.txt", getattr(inst, field))
    return d


def save_bp_instance(inst, directory):
    return _save(inst, directory, "basis_pursuit")


def save_fused_instance(inst, directory):
    return _save(inst, directory, "fused_logistic")


def load_instance(directory):
    """Load either instance kind, dispatching on meta.json's ``kind``.
    Files are read in the order meta.json, pattern.json, A, vectors."""
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
    if kind == "fused_logistic" and not np.isin(fields["labels"], (-1.0, 1.0)).all():
        raise ValueError(f"{d / 'labels.txt'} holds a label other than -1 or +1")
    fields |= {key: meta.typed(key, t) for key, t in scalars.items()}
    if pattern is not None:
        fields["pattern"] = pattern.typed("pattern", str)
    return cls(**fields)
