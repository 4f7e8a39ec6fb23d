"""The tree grower, the forest predictor and the two record scanners:
grow_tree, forest_sum, scan_canonical and scan_git_log, the one place that
chooses between their compiled and Python forms, which give the same
results.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes; delete that file to rebuild. Its grow_tree grows a whole
tree in one call, searching splits in C over each feature's rows sorted
once per fit (Presorted), and its forest_sum predicts a whole forest, or
one CART, in one call. Without a compiler, trees grow in Python
(_grow_tree_py), which calls the numpy best_split below node by node, and
forests predict tree by tree (tree_proba); both give bit-identical trees
and predictions.

scan_canonical reads a canonical commit file for ingest.read_canonical in
blocks of whole lines. Its C scanner takes only lines in
ingest.write_canonical's exact layout, with printable-ASCII strings that
hold no `"` or `\\`, ints of at most 18 digits and values that pass
ingest._checked_row, and raises nothing: every other line (every line
without a compiler, where scan_canonical is `iter`) is handed back as bytes
for the per-line reader, which alone raises the reader's errors.

scan_git_log reads the records of a git-log export for
ingest.parse_git_log from the buffer it already holds. Its C scanner takes
only records in exactly git's shape (a 40-hex sha, printable-ASCII name and
email, %at of at most 18 digits, a [+-]hhmm offset at the end of %ad,
numstat lines `(digits|-)\t(digits|-)\t<path>` or empty) with values that
ingest._parse_header and ingest._parse_numstat accept, and raises nothing:
every other record (every record without a compiler, where scan_git_log is
record_offsets) is handed back as its byte offset for those two functions,
which alone raise the parser's errors.

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

# no -march/-ffast-math: the compiled grower must match the Python one bit for bit
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
    lib.choice.argtypes = [ptr, i64, i64, ptr]
    lib.choice.restype = ctypes.c_int
    lib.grow_tree.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, i64, f64, i64, i64, ptr,
                              ptr, ptr, ptr]
    lib.grow_tree.restype = i64
    lib.forest_sum.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, ptr]
    lib.forest_sum.restype = ctypes.c_int
    lib.scan_canonical.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, ptr]
    lib.scan_canonical.restype = i64
    lib.scan_git_log.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, i64, ptr]
    lib.scan_git_log.restype = i64
    return lib


try:
    _lib = _load()
except (OSError, RuntimeError, subprocess.CalledProcessError):
    _lib = None

_F64, _I8, _I64 = np.dtype(np.float64), np.dtype(np.int8), np.dtype(np.int64)
# the address of a Generator's bitgen_t, from its bit generator's capsule
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _bitgen(rng):
    return _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")


class Presorted:
    """X (n_rows, p) and y (n_rows,), checked once for all the trees grown
    over them, and each feature's rows in ascending value order (a
    (p, n_rows) int64 array). `args` holds what every compiled grow_tree
    call over them passes first; the arrays are kept so that their
    addresses stay valid."""

    def __init__(self, X, y):
        for a, dtype in ((X, _F64), (y, _I8)):
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
                raise TypeError(f"grow_tree needs C-contiguous {dtype} arrays")
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError("grow_tree needs X (n, p) and y (n,)")
        order = np.ascontiguousarray(np.argsort(X.T, axis=1))
        self.arrays = X, y, order
        self.args = (X.ctypes.data, X.shape[0], X.shape[1], y.ctypes.data, order.ctypes.data)


def node_score(n: int, pos: int) -> float:
    """n * gini of a node with n samples of which pos are positive."""
    neg = n - pos
    return (n * n - pos * pos - neg * neg) / n


def threshold_between(a: float, b: float) -> float:
    """The threshold between neighbouring distinct values a < b: their
    midpoint, or a where the midpoint is not in [a, b) (it rounds up to b
    when a and b are adjacent doubles, and overflows to -inf or inf past the
    largest doubles), so that `x <= threshold` sends exactly the rows up to
    a left. Keep in sync with threshold_between in _split.c."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def best_split(X, y, idx, feats):
    """Best (feature, threshold) for the node made of rows `idx`.

    X: (n_total, p) float64 C-contiguous, y: (n_total,) int8 in {0, 1},
    idx: int64 row indices, feats: int64 candidate features sorted
    ascending. Candidate thresholds lie between consecutive distinct sorted
    values (threshold_between); ties break to the lowest feature then lowest
    threshold. Returns (feature, threshold, child_score); feature is -1
    when no candidate strictly improves on the parent score.

    The score of a candidate split is an exact function of integer class
    counts,

        score = (nl^2 - pl^2 - ql^2)/nl + (nr^2 - pr^2 - qr^2)/nr

    (the sum over children of n_child * gini_child), evaluated with int64
    numerators so the float value does not depend on how the counts were
    accumulated. Keep the expression in sync with grow_tree in _split.c.
    """
    y_node = y[idx]
    n = len(idx)
    pos = int(y_node.sum())
    neg = n - pos
    best_f = -1
    best_thr = 0.0
    best_score = node_score(n, pos)

    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cand = np.nonzero(sv[:-1] != sv[1:])[0]
        if cand.size == 0:
            continue
        cum_pos = np.cumsum(y_node[order], dtype=np.int64)

        nl = cand.astype(np.int64) + 1
        pl = cum_pos[cand]
        ql = nl - pl
        nr = n - nl
        pr = pos - pl
        qr = neg - ql
        score = (nl * nl - pl * pl - ql * ql) / nl + (nr * nr - pr * pr - qr * qr) / nr

        j = int(np.argmin(score))  # first minimum = lowest threshold
        if score[j] < best_score:
            best_f = int(f)
            best_thr = threshold_between(float(sv[cand[j]]), float(sv[cand[j] + 1]))
            best_score = float(score[j])

    return best_f, best_thr, best_score


def _grow_tree_py(rows: Presorted, idx, minsplit, cp, maxdepth, mtry, rng):
    """The Python twin of _c_grow_tree (grow_tree in _split.c), node by
    node through best_split; same arguments, same results.

    Iterative preorder so depth is not bounded by the interpreter recursion
    limit; a split node's children are appended as the next two node rows.
    """
    X, y = rows.arrays[:2]
    p = X.shape[1]
    all_feats = np.arange(p, dtype=np.int64)
    n_root = len(idx)
    pos_root = int(y[idx].sum())
    root_err = n_root - max(pos_root, n_root - pos_root)
    importance = np.zeros(p)

    ns, poss = [n_root], [pos_root]
    splits = []  # (node, feature, threshold) in split order
    stack = [(0, idx, 0)]
    while stack:
        node, node_idx, depth = stack.pop()
        n = ns[node]
        pos = poss[node]
        if pos == 0 or pos == n or n < minsplit:
            continue
        if maxdepth is not None and depth >= maxdepth:
            continue
        if rng is not None:
            feats = np.sort(rng.choice(p, size=mtry, replace=False)).astype(np.int64)
        else:
            feats = all_feats
        f, thr, child_score = best_split(X, y, node_idx, feats)
        if f < 0:
            continue

        left_mask = X[node_idx, f] <= thr
        left_idx = node_idx[left_mask]
        right_idx = node_idx[~left_mask]
        pos_l = int(y[left_idx].sum())
        pos_r = pos - pos_l

        # rpart-style pruning: relative misclassification improvement >= cp.
        err_node = n - max(pos, n - pos)
        err_children = (
            len(left_idx) - max(pos_l, len(left_idx) - pos_l)
            + len(right_idx) - max(pos_r, len(right_idx) - pos_r)
        )
        if root_err > 0 and (err_node - err_children) / root_err < cp:
            continue

        importance[f] += node_score(n, pos) - child_score
        child = len(ns)
        splits.append((node, f, thr))
        ns += (len(left_idx), len(right_idx))
        poss += (pos_l, pos_r)
        stack.append((child + 1, right_idx, depth + 1))
        stack.append((child, left_idx, depth + 1))

    m = len(ns)
    inner = np.array([s[0] for s in splits], dtype=np.int64)
    feature, left, right = (np.full(m, -1, dtype=np.int64) for _ in range(3))
    threshold = np.zeros(m)
    feature[inner] = [s[1] for s in splits]
    threshold[inner] = [s[2] for s in splits]
    # children were appended in split order, two rows per split
    left[inner] = np.arange(1, m, 2)
    right[inner] = np.arange(2, m, 2)
    n, pos = np.array(ns, dtype=np.int64), np.array(poss, dtype=np.int64)
    return (feature, threshold, left, right, n, pos), importance


def _c_choice(rng, p, k):
    """rng.choice(p, k, replace=False) drawn in C, for p <= 10000 or
    k <= p // 50 (where numpy uses Floyd's algorithm)."""
    out = np.empty(k, dtype=np.int64)
    with rng.bit_generator.lock:
        if _lib.choice(_bitgen(rng), p, k, out.ctypes.data):
            raise MemoryError()
    return out


def _c_grow_tree(rows: Presorted, idx, minsplit, cp, maxdepth, mtry, rng):
    """_grow_tree_py over rows idx of `rows` in one compiled call."""
    if not (isinstance(idx, np.ndarray) and idx.dtype == _I64 and idx.flags.c_contiguous
            and idx.ndim == 1):
        raise TypeError("grow_tree needs a 1-d C-contiguous int64 idx")
    n, p = len(idx), rows.args[2]
    cap = max(2 * n - 1, 1)
    ints = np.empty((5, cap), dtype=np.int64)  # feature, left, right, n, pos
    threshold, importance = np.empty(cap), np.zeros(p)
    if rng is None:
        bitgen, lock = None, nullcontext()
    else:  # ctypes releases the GIL; the lock keeps other threads off this generator
        bitgen, lock = _bitgen(rng), rng.bit_generator.lock
    with lock:
        m = _lib.grow_tree(*rows.args, idx.ctypes.data, n, minsplit, cp,
                           -1 if maxdepth is None else maxdepth, mtry, bitgen,
                           ints.ctypes.data, threshold.ctypes.data, importance.ctypes.data)
    if m < 0:
        raise {-1: MemoryError(), -2: IndexError("grow_tree row index out of range"),
               -3: ValueError("grow_tree needs labels 0 or 1")}[m]
    feature, left, right, count, pos = ints[:, :m].copy()
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


def grow_tree(rows: Presorted, idx, *, minsplit, cp, maxdepth, mtry=None, rng=None):
    """Grow one tree over rows idx of `rows`; returns the six node arrays
    (feature, threshold, left, right, n, pos) and the importance vector.
    maxdepth None is unbounded. mtry, when below the feature count p, samples
    that many candidate features at every node with rng.choice(p, mtry,
    replace=False). The compiled grower makes the same draws from rng's bit
    generator, except where numpy shuffles a whole range instead (p > 10,000
    and mtry > p // 50): there, and without a compiled grower, the tree grows
    in Python."""
    p = rows.args[2]
    if mtry is None or mtry >= p:
        mtry, rng = p, None
    grow = grower()
    if grow is None or (rng is not None and p > 10_000 and mtry > p // 50):
        grow = _grow_tree_py
    return grow(rows, idx, minsplit, cp, maxdepth, mtry, rng)


def tree_proba(tree, X) -> np.ndarray:
    """P(hired) per row of X under one tree (tree.Tree's node arrays):
    every row still at an inner node moves one level down per step."""
    out = np.empty(len(X), dtype=np.float64)
    proba = tree.pos / tree.n
    rows = np.arange(len(X))
    nodes = np.zeros(len(X), dtype=np.int64)
    while rows.size:
        f = tree.feature[nodes]
        inner = f >= 0
        out[rows[~inner]] = proba[nodes[~inner]]
        rows, nodes, f = rows[inner], nodes[inner], f[inner]
        go_left = X[rows, f] <= tree.threshold[nodes]
        nodes = np.where(go_left, tree.left[nodes], tree.right[nodes])
    return out


def _forest_sum_py(trees, X):
    return sum((tree_proba(tree, X) for tree in trees), np.zeros(len(X)))


def _c_forest_sum(trees, X):
    """_forest_sum_py in one compiled call over the trees' concatenated
    node arrays."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    roots = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum([len(t.feature) for t in trees], out=roots[1:])
    ints = np.empty((5, roots[-1]), dtype=np.int64)
    for row, key in zip(ints, ("feature", "left", "right", "n", "pos")):
        np.concatenate([getattr(t, key) for t in trees], out=row)
    threshold = np.concatenate([t.threshold for t in trees], dtype=np.float64)
    out = np.empty(len(X))
    if _lib.forest_sum(X.ctypes.data, X.shape[0], X.shape[1], ints.ctypes.data,
                       threshold.ctypes.data, roots.ctypes.data, len(trees), out.ctypes.data):
        raise ValueError("forest_sum: a tree node points outside its tree")
    return out


BLOCK_BYTES = 1 << 20  # the canonical scanner reads whole lines in blocks of about this size


def _blocks(fileobj):
    """The bytes of binary `fileobj` as blocks of whole lines, each about
    BLOCK_BYTES long or one longer line, then the final line when it has no
    line feed."""
    head = []  # the start of a line that has not ended yet
    while block := fileobj.read(BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            head.append(block[:cut])
            yield b"".join(head)
            head = [block[cut:]]
        else:
            head.append(block)
    rest = b"".join(head)
    if rest:
        yield rest


def _c_scan_canonical(fileobj):
    """The lines of binary `fileobj` in file order: each run of lines that
    scan_canonical in _split.c takes as (ints, strings), and each line it
    declines as its bytes, line feed included. ints is a (4, n) int64 array
    of the run's timestamp_utc, tz_offset_minutes, lines_added and
    lines_deleted; strings lists its 4n strings, sha, author_name,
    author_email and message line by line."""
    info = (ctypes.c_int64 * 2)()
    for data in _blocks(fileobj):
        end = len(data)
        if data[-1:] != b"\n":  # the final line, without its line feed
            yield data
            continue
        # room for every line the scanner can take: a canonical line has at
        # least 188 bytes, and at most `end` bytes of strings are copied out
        cap = end // 128 + 1
        ints = np.empty((4, cap), dtype=np.int64)
        text = ctypes.create_string_buffer(end)
        ints_at, pos = ints.ctypes.data, 0
        while pos < end:
            n = _lib.scan_canonical(data, pos, end, cap, ints_at, text, info)
            if n:  # each string ends with a line feed; the last one is dropped before the split
                strings = ctypes.string_at(text, info[1] - 1).decode("ascii").split("\n")
                yield ints[:, :n].copy(), strings
            pos = info[0]
            if pos < end:
                line_end = data.index(b"\n", pos) + 1
                yield data[pos:line_end]
                pos = line_end


def record_offsets(data, pos):
    """The byte offset of each record of the git-log export `data` from
    `pos` on: pos, then one past each later 0x1E."""
    while pos:
        yield pos
        pos = data.find(b"\x1e", pos) + 1


RUN_RECORDS = 1 << 14  # the git-log scanner takes at most this many records per call


def _c_scan_git_log(data, pos):
    """The records of the git-log export `data` (bytes) from byte `pos`, one
    past a 0x1E, on, in order: each run of records that scan_git_log in
    _split.c takes as (ints, strings), and each record it declines as its
    byte offset. ints is a (4, n) int64 array of the run's timestamp_utc,
    tz_offset_minutes, lines_added and lines_deleted; strings lists its 3n
    strings, sha, author_name and author_email (lowercased) record by
    record. A run ends early when its strings fill BLOCK_BYTES; a record
    whose strings alone do not fit is declined."""
    ints = np.empty((4, RUN_RECORDS), dtype=np.int64)
    text = ctypes.create_string_buffer(BLOCK_BYTES)
    info = (ctypes.c_int64 * 2)()
    while pos:
        n = _lib.scan_git_log(data, pos, len(data), RUN_RECORDS, ints.ctypes.data, text,
                              BLOCK_BYTES, info)
        if n:  # each string ends with a line feed; the last one is dropped before the split
            strings = ctypes.string_at(text, info[1] - 1).decode("ascii").split("\n")
            yield ints[:, :n].copy(), strings
            pos = info[0]
        else:
            yield pos
            pos = data.find(b"\x1e", pos) + 1


# (trees, X (n_rows, p)) -> per row, the sum over the trees, in order, of the
# row's leaf probability pos/n
forest_sum = _forest_sum_py if _lib is None else _c_forest_sum
# (binary file) -> its lines in scanned runs and declined lines; without the
# compiled kernels every line is handed back, for ingest.read_canonical's
# per-line reader
scan_canonical = iter if _lib is None else _c_scan_canonical
# (export bytes, offset of its first record) -> its records in scanned runs
# and declined offsets; without the compiled kernels every record's offset,
# for ingest.parse_git_log's per-record parser
scan_git_log = record_offsets if _lib is None else _c_scan_git_log
BACKEND = "python" if _lib is None else "c"


def available_backends():
    """name -> split search, for benchmarks; the numpy search is the only one
    (the compiled grower searches inside grow_tree)."""
    return {"python": best_split}
