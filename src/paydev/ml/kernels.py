"""Tree-kernel backend selection.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes; delete that file to rebuild. It holds best_split and
grow_tree, which grows a whole tree in one call. Without a compiler the
contractually bit-identical numpy twin _split_py.best_split runs, and
trees grow in Python (tree._grow_tree_py).

The compiled grower draws each forest node's features through the
Generator's own bit generator, repeating numpy's Generator.choice. Before
its first use one fixed draw is compared with numpy's; if they differ (a
numpy that samples differently), `grower()` is None and trees grow in
Python.
"""

import ctypes
import functools
import os
import platform
import subprocess
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from paydev.ml import _split_py
from paydev.ml._split_py import node_score  # noqa: F401  (shared definition)

# no -march/-ffast-math: the kernels must match their Python twins bit for bit
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
    lib = ctypes.CDLL(str(lib))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.best_split.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr]
    lib.best_split.restype = ctypes.c_int
    lib.choice.argtypes = [ptr, i64, i64, ptr]
    lib.choice.restype = ctypes.c_int
    lib.grow_tree.argtypes = [ptr, i64, i64, ptr, ptr, i64, i64, f64, i64, i64, ptr,
                              ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.grow_tree.restype = i64
    return lib


try:
    _lib = _load()
except (OSError, RuntimeError, subprocess.CalledProcessError):
    _lib = None

_F64, _I8, _I64 = np.dtype(np.float64), np.dtype(np.int8), np.dtype(np.int64)


def _check(name, X, y, *index_arrays):
    dtypes = (_F64, _I8) + (_I64,) * len(index_arrays)
    for a, dtype in zip((X, y, *index_arrays), dtypes):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
            raise TypeError(f"{name} needs C-contiguous {dtype} arrays")
    if X.ndim != 2 or y.shape != X.shape[:1] or any(a.ndim != 1 for a in index_arrays):
        raise ValueError(f"{name} needs X (n, p), y (n,) and 1-d index arrays")


def _raise_for(rc, name):
    raise MemoryError() if rc == -1 else IndexError(f"{name} index out of range")


def _c_best_split(X, y, idx, feats):
    """See _split_py.best_split for the contract."""
    _check("best_split", X, y, idx, feats)
    f, thr, score = ctypes.c_int64(), ctypes.c_double(), ctypes.c_double()
    rc = _lib.best_split(X.ctypes.data, X.shape[0], X.shape[1], y.ctypes.data,
                         idx.ctypes.data, len(idx), feats.ctypes.data, len(feats),
                         ctypes.byref(f), ctypes.byref(thr), ctypes.byref(score))
    if rc:
        _raise_for(rc, "best_split")
    return f.value, thr.value, score.value


def _c_choice(rng, p, k):
    """rng.choice(p, k, replace=False) drawn in C, for p <= 10000 or
    k <= p // 50 (where numpy uses Floyd's algorithm)."""
    out = np.empty(k, dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        if _lib.choice(bitgen.ctypes.bit_generator, p, k, out.ctypes.data):
            raise MemoryError()
    return out


def _c_grow_tree(X, y, idx, minsplit, cp, maxdepth, mtry, rng):
    """tree._grow_tree_py in one compiled call. Returns the six node arrays
    (feature, threshold, left, right, n, pos) and the importance vector;
    maxdepth None is unbounded, rng None searches every feature."""
    _check("grow_tree", X, y, idx)
    n, p = len(idx), X.shape[1]
    cap = max(2 * n - 1, 1)
    ints = np.empty((5, cap), dtype=np.int64)  # feature, left, right, n, pos
    threshold, importance = np.empty(cap), np.zeros(p)
    # ctypes releases the GIL; the lock keeps other threads off this generator
    with nullcontext() if rng is None else rng.bit_generator.lock:
        m = _lib.grow_tree(X.ctypes.data, X.shape[0], p, y.ctypes.data, idx.ctypes.data, n,
                           minsplit, cp, -1 if maxdepth is None else maxdepth, mtry,
                           None if rng is None else rng.bit_generator.ctypes.bit_generator,
                           ints[0].ctypes.data, threshold.ctypes.data,
                           *(row.ctypes.data for row in ints[1:]), importance.ctypes.data)
    if m < 0:
        _raise_for(m, "grow_tree")
    feature, left, right, count, pos = (row[:m].copy() for row in ints)
    return (feature, threshold[:m].copy(), left, right, count, pos), importance


@functools.cache
def grower():
    """_c_grow_tree when the C feature draw matches Generator.choice on one
    fixed problem (same features, same generator state after), else None.
    Checked on first use rather than at import, which would load
    numpy.random for every command."""
    if _lib is None:
        return None
    a, b = np.random.default_rng(20181), np.random.default_rng(20181)
    same = (_c_choice(a, 40, 25).tolist() == b.choice(40, 25, replace=False).tolist()
            and a.integers(2**62) == b.integers(2**62))
    return _c_grow_tree if same else None


if _lib is not None:
    BACKEND, best_split = "c", _c_best_split
else:
    BACKEND, best_split = "python", _split_py.best_split


def available_backends():
    """name -> best_split implementation, for benchmarks and tests."""
    out = {"python": _split_py.best_split}
    if _lib is not None:
        out["c"] = _c_best_split
    return out
