"""Split-kernel backend selection.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes; delete that file to rebuild. Without a compiler the
contractually bit-identical numpy twin _split_py runs.
"""

import ctypes
import os
import platform
import subprocess
import zlib
from pathlib import Path

import numpy as np

from paydev.ml import _split_py
from paydev.ml._split_py import node_score  # noqa: F401  (shared definition)

# no -march/-ffast-math: the kernel must match _split_py bit for bit
_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off"]


def _load():
    src = Path(__file__).with_name("_split.c")
    code = src.read_bytes()
    key = zlib.crc32(code + " ".join(_FLAGS).encode() + platform.machine().encode())
    lib = Path.home() / ".cache" / "paydev" / f"split-{key:08x}.so"
    if not lib.exists():
        lib.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        subprocess.run(["cc", *_FLAGS, str(src), "-o", str(tmp)], check=True,
                       capture_output=True)
        os.replace(tmp, lib)
    fn = ctypes.CDLL(str(lib)).best_split
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr]
    fn.restype = ctypes.c_int
    return fn


try:
    _c_kernel = _load()
except (OSError, RuntimeError, subprocess.CalledProcessError):
    _c_kernel = None

_DTYPES = (np.dtype(np.float64), np.dtype(np.int8), np.dtype(np.int64), np.dtype(np.int64))


def _c_best_split(X, y, idx, feats):
    """See _split_py.best_split for the contract."""
    for a, dtype in zip((X, y, idx, feats), _DTYPES):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
            raise TypeError(f"best_split needs C-contiguous {dtype} arrays")
    if X.ndim != 2 or y.shape != X.shape[:1] or idx.ndim != 1 or feats.ndim != 1:
        raise ValueError("best_split needs X (n, p), y (n,), 1-d idx and feats")
    f, thr, score = ctypes.c_int64(), ctypes.c_double(), ctypes.c_double()
    rc = _c_kernel(X.ctypes.data, X.shape[0], X.shape[1], y.ctypes.data,
                   idx.ctypes.data, len(idx), feats.ctypes.data, len(feats),
                   ctypes.byref(f), ctypes.byref(thr), ctypes.byref(score))
    if rc:
        raise MemoryError() if rc == -1 else IndexError("best_split index out of range")
    return f.value, thr.value, score.value


if _c_kernel is not None:
    BACKEND, best_split = "c", _c_best_split
else:
    BACKEND, best_split = "python", _split_py.best_split


def available_backends():
    """name -> best_split implementation, for benchmarks and tests."""
    out = {"python": _split_py.best_split}
    if _c_kernel is not None:
        out["c"] = _c_best_split
    return out
