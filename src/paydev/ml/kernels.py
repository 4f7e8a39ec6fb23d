"""The tree grower and the forest predictor over numpy matrices: grow_tree
and forest_sum, the place that chooses between their compiled and Python
forms, which give the same results (paydev.model.predict_rows makes the
same choice for the rows `predict` reads).

The compiled library is paydev.native's `lib` (_split.c, built on first
import of that module); BACKEND says whether it loaded. Its grow_tree grows
a whole tree in one call, searching splits in C over each feature's rows
sorted once per fit (Presorted), and its forest_sum predicts a whole
forest, or one CART, in one call. Without a compiler, trees grow in Python
(_grow_tree_py), which calls the numpy best_split below node by node, and
forests predict tree by tree (tree_proba); both give bit-identical trees
and predictions. Either way a tree's node arrays are the array("q") and
array("d") buffers of paydev.model.Tree. The forest_sum driver and the
record scanners that share the library live in paydev.native, which
imports no numpy.

The compiled grower draws each forest node's features through the
Generator's own bit generator, repeating numpy's Generator.choice. Before
its first use one fixed draw is compared with numpy's; if they differ (a
numpy that samples differently), `grower()` is None and trees grow in
Python.
"""

import ctypes
import functools
from array import array
from contextlib import nullcontext

import numpy as np

from paydev import native
from paydev.native import BACKEND  # noqa: F401  perfbench/run.py reads kernels.BACKEND
from paydev.native import lib as _lib

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
    feature, left, right = (array("q", [-1]) * m for _ in range(3))
    threshold = array("d", [0.0]) * m
    # children were appended in split order, two rows per split
    for child, (node, f, thr) in zip(range(1, m, 2), splits):
        feature[node], threshold[node], left[node], right[node] = f, thr, child, child + 1
    return (feature, threshold, left, right, array("q", ns), array("q", poss)), importance


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
    ints = array("q", bytes(40 * cap))  # five rows of cap: feature, left, right, n, pos
    threshold, importance = array("d", bytes(8 * cap)), np.zeros(p)
    if rng is None:
        bitgen, lock = None, nullcontext()
    else:  # ctypes releases the GIL; the lock keeps other threads off this generator
        bitgen, lock = _bitgen(rng), rng.bit_generator.lock
    with lock:
        m = _lib.grow_tree(*rows.args, idx.ctypes.data, n, minsplit, cp,
                           -1 if maxdepth is None else maxdepth, mtry, bitgen,
                           ints.buffer_info()[0], threshold.buffer_info()[0],
                           importance.ctypes.data)
    if m < 0:
        raise {-1: MemoryError(), -2: IndexError("grow_tree row index out of range"),
               -3: ValueError("grow_tree needs labels 0 or 1")}[m]
    feature, left, right, count, pos = (ints[k * cap:k * cap + m] for k in range(5))
    return (feature, threshold[:m], left, right, count, pos), importance


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
    (feature, threshold, left, right, n, pos: paydev.model.Tree's
    array("q") and array("d") buffers) and the importance vector (numpy).
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
    """P(hired) per row of X under one tree (paydev.model.Tree's node
    arrays): every row still at an inner node moves one level down per
    step."""
    feature, threshold, left, right, n, pos = map(np.asarray, (
        tree.feature, tree.threshold, tree.left, tree.right, tree.n, tree.pos))
    out = np.empty(len(X), dtype=np.float64)
    proba = pos / n
    rows = np.arange(len(X))
    nodes = np.zeros(len(X), dtype=np.int64)
    while rows.size:
        f = feature[nodes]
        inner = f >= 0
        out[rows[~inner]] = proba[nodes[~inner]]
        rows, nodes, f = rows[inner], nodes[inner], f[inner]
        go_left = X[rows, f] <= threshold[nodes]
        nodes = np.where(go_left, left[nodes], right[nodes])
    return out


def _forest_sum_py(trees, X):
    return sum((tree_proba(tree, X) for tree in trees), np.zeros(len(X)))


def _c_forest_sum(trees, X):
    """_forest_sum_py in one compiled call (native.forest_sum)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return np.asarray(native.forest_sum(trees, X.ctypes.data, *X.shape))


# (trees, X (n_rows, p)) -> per row, the sum over the trees, in order, of the
# row's leaf probability pos/n
forest_sum = _forest_sum_py if _lib is None else _c_forest_sum


def available_backends():
    """name -> split search, for benchmarks; the numpy search is the only one
    (the compiled grower searches inside grow_tree)."""
    return {"python": best_split}
