"""Instance directories: a binary matrix file plus portable text.

Each instance is a directory holding ``meta.json``, the matrix ``A`` as
``A.npy`` (NumPy's binary array format, NEP 1: a short text header, then
the float64 values exactly, about a third of the size of 17-digit text),
and one-value-per-line vector files written with 17 significant digits
so float64 values round-trip.  Basis-pursuit directories carry ``b.txt``
and ``xhat.txt``; fused directories carry ``labels.txt``, ``xhat.txt``,
and a ``pattern.json`` naming the generator and its parameters.

``meta.json``'s ``format_version`` says where A is: 2 is ``A.npy``; 1 (or
no ``format_version``) is ``A.mtx``, MatrixMarket array text, which
directories written before format 2 hold and which still load.  A is
read with ``allow_pickle=False``: loading never unpickles.
"""

import json
from pathlib import Path

import numpy as np
from scipy.io import mmread

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


def _load_matrix_file(path, version):
    if version == 1:
        return mmread(str(path))
    try:
        A = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path} is not a .npy array file: {exc}") from None
    if not isinstance(A, np.ndarray):
        A.close()
        raise ValueError(f"{path} is an .npz archive, not a .npy array file")
    return A


def _read_matrix(d, meta):
    """A as a C-ordered float64 array of ``meta.json``'s shape (m, n).

    A format-2 ``A.npy`` of C-ordered float64 comes back as a read-only
    memory map of the file, so the instance's read-only copy is the one
    full-size allocation A needs; other layouts and real dtypes are
    converted.
    Anything that is not a real 2-d array of that shape is a ValueError
    naming the file; a missing file is an OSError naming it."""
    version = meta.get("format_version", 1)
    if type(version) is not int or version not in _MATRIX_FILES:
        raise ValueError(f"{meta.path} has unknown format_version {version!r}")
    path = d / _MATRIX_FILES[version]
    A = _load_matrix_file(path, version)
    if not isinstance(A, np.ndarray):
        raise ValueError(f"{path} does not hold a dense array")
    if A.dtype.kind not in "fiu":
        raise ValueError(f"{path} holds {A.dtype} values, not real numbers")
    shape = (meta["m"], meta["n"])
    if A.shape != shape:
        raise ValueError(f"{path.name} shape {A.shape} disagrees with meta.json's {shape}")
    return np.require(A, dtype=np.float64, requirements="C")


def _read_vector(path, length):
    v = np.atleast_1d(np.loadtxt(path, dtype=float, ndmin=1))
    if v.shape != (length,):
        raise ValueError(f"{path.name} has {v.size} entries, meta.json says {length}")
    return v


class _JsonObject(dict):
    """The JSON object in ``path``.  Invalid JSON, and a key read with
    ``[]`` that the object lacks, raise a ValueError naming the file."""

    def __init__(self, path):
        try:
            super().__init__(json.loads(path.read_text(encoding="utf-8")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} does not hold a JSON object: {exc}") from None
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path} lacks the key {key!r}")


def _write_meta(path, meta):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_bp_instance(inst, directory):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_meta(
        d / "meta.json",
        {
            "kind": "basis_pursuit",
            "n": int(inst.n),
            "m": int(inst.m),
            "s": int(inst.s),
            "seed": int(inst.seed),
            "format_version": FORMAT_VERSION,
        },
    )
    np.save(d / "A.npy", inst.A, allow_pickle=False)
    write_vector(d / "b.txt", inst.b)
    write_vector(d / "xhat.txt", inst.xhat)
    return d


def load_bp_instance(directory):
    d = Path(directory)
    meta = _JsonObject(d / "meta.json")
    A = _read_matrix(d, meta)
    b = _read_vector(d / "b.txt", meta["m"])
    xhat = _read_vector(d / "xhat.txt", meta["n"])
    return BasisPursuitInstance(
        A=A, b=b, xhat=xhat, s=int(meta["s"]), seed=int(meta["seed"])
    )


def save_fused_instance(inst, directory):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_meta(
        d / "meta.json",
        {
            "kind": "fused_logistic",
            "n": int(inst.n),
            "m": int(inst.m),
            "seed": int(inst.seed),
            "c_true": float(inst.c_true),
            "format_version": FORMAT_VERSION,
        },
    )
    _write_meta(
        d / "pattern.json",
        {
            "pattern": inst.pattern,
            "n": int(inst.n),
            "m": int(inst.m),
            "seed": int(inst.seed),
        },
    )
    np.save(d / "A.npy", inst.A, allow_pickle=False)
    write_vector(d / "labels.txt", inst.labels)
    write_vector(d / "xhat.txt", inst.xhat)
    return d


def load_fused_instance(directory):
    d = Path(directory)
    meta = _JsonObject(d / "meta.json")
    pattern = _JsonObject(d / "pattern.json")
    A = _read_matrix(d, meta)
    labels = _read_vector(d / "labels.txt", meta["m"])
    xhat = _read_vector(d / "xhat.txt", meta["n"])
    return FusedLogisticInstance(
        A=A,
        labels=labels,
        xhat=xhat,
        c_true=float(meta["c_true"]),
        seed=int(meta["seed"]),
        pattern=str(pattern["pattern"]),
    )


def load_instance(directory):
    """Load either instance kind, dispatching on meta.json (falling back
    to the presence of pattern.json for directories written elsewhere)."""
    d = Path(directory)
    meta_path = d / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"no meta.json under {d}")
    meta = _JsonObject(meta_path)
    kind = meta.get("kind")
    if kind is None:
        kind = "fused_logistic" if (d / "pattern.json").is_file() else "basis_pursuit"
    if kind == "basis_pursuit":
        return load_bp_instance(d)
    if kind == "fused_logistic":
        return load_fused_instance(d)
    raise ValueError(f"unknown instance kind {kind!r}")
