"""Instance directories in portable text formats.

Each instance is a directory holding ``meta.json`` plus ``A.mtx``
(MatrixMarket array format, column-major) and one-value-per-line vector
files written with 17 significant digits so float64 values round-trip.
Basis-pursuit directories carry ``b.txt`` and ``xhat.txt``; fused
directories carry ``labels.txt``, ``xhat.txt``, and a ``pattern.json``
naming the generator and its parameters.
"""

import json
from pathlib import Path

import numpy as np
from scipy.io import mmread, mmwrite

from .basis_pursuit import BasisPursuitInstance
from .fused_logistic import FusedLogisticInstance

FORMAT_VERSION = 1


def write_vector(path, v):
    """Write ``v`` one value per line with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for val in np.asarray(v, dtype=float):
            fh.write(f"{val:.17g}\n")


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
    mmwrite(str(d / "A.mtx"), inst.A, precision=17)
    write_vector(d / "b.txt", inst.b)
    write_vector(d / "xhat.txt", inst.xhat)
    return d


def load_bp_instance(directory):
    d = Path(directory)
    meta = _JsonObject(d / "meta.json")
    A = np.asarray(mmread(str(d / "A.mtx")), dtype=float)
    if A.shape != (meta["m"], meta["n"]):
        raise ValueError(f"A.mtx shape {A.shape} disagrees with meta.json")
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
    mmwrite(str(d / "A.mtx"), inst.A, precision=17)
    write_vector(d / "labels.txt", inst.labels)
    write_vector(d / "xhat.txt", inst.xhat)
    return d


def load_fused_instance(directory):
    d = Path(directory)
    meta = _JsonObject(d / "meta.json")
    pattern = _JsonObject(d / "pattern.json")
    A = np.asarray(mmread(str(d / "A.mtx")), dtype=float)
    if A.shape != (meta["m"], meta["n"]):
        raise ValueError(f"A.mtx shape {A.shape} disagrees with meta.json")
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
