"""Binary CART classifier grown by greedy Gini minimization.

Splits are midpoints between consecutive distinct feature values (the
lower value where the midpoint rounds or overflows out of the gap, see
kernels.threshold_between), so both children hold rows; a split is kept only when it cuts the tree's misclassification cost by at least
cp relative to the root's cost. Defaults mirror the usual recursive
partitioning settings (minsplit 20, cp 0.01, maxdepth 30).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from paydev.ml import kernels
from paydev.ml.dataset import Dataset, check_training, fill_missing, impute_median


@dataclass
class Tree:
    """One fitted tree as parallel node arrays. Node 0 is the root and every
    child index is greater than its parent's; leaves have feature, left and
    right -1. n and pos count the node's training rows and hired rows."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: np.ndarray
    pos: np.ndarray


@dataclass
class TreeModel:
    root: Tree
    columns: list[str]
    impute: np.ndarray
    minsplit: int
    cp: float
    maxdepth: int | None
    importance: np.ndarray = field(default=None)


def grow_tree(X, y, idx, *, minsplit, cp, maxdepth, mtry=None, rng=None, rows=None):
    """Grow one tree over rows `idx`; returns (Tree, importance).

    mtry, when set below the feature count, samples that many candidate
    features at every node with rng.choice(p, mtry, replace=False). The
    compiled grower makes the same draws from rng's bit generator, except
    where numpy shuffles a whole range instead (p > 10,000 and
    mtry > p // 50): there, and without a compiled grower, the tree grows
    in Python. rows is kernels.Presorted(X, y), which the compiled grower
    reads; a forest makes it once for all its trees, and it is made here
    when None.
    """
    p = X.shape[1]
    if mtry is None or mtry >= p:
        mtry, rng = p, None
    compiled = kernels.grower()
    if compiled is None or (rng is not None and p > 10_000 and mtry > p // 50):
        return _grow_tree_py(X, y, idx, minsplit=minsplit, cp=cp, maxdepth=maxdepth,
                             mtry=mtry, rng=rng)
    if rows is None:
        rows = kernels.Presorted(X, y)
    arrays, importance = compiled(rows, idx, minsplit, cp, maxdepth, mtry, rng)
    return Tree(*arrays), importance


def _grow_tree_py(X, y, idx, *, minsplit, cp, maxdepth, mtry, rng):
    """The Python twin of the compiled grower (_split.c), node by node.

    Iterative preorder so depth is not bounded by the interpreter recursion
    limit; a split node's children are appended as the next two node rows.
    """
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
        f, thr, child_score = kernels.best_split(X, y, node_idx, feats)
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

        importance[f] += kernels.node_score(n, pos) - child_score
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
    return Tree(feature, threshold, left, right, n, pos), importance


def fit_tree(data: Dataset, minsplit=20, cp=0.01, maxdepth=30) -> TreeModel:
    check_training(data)
    X, medians = impute_median(data.X)
    X = np.ascontiguousarray(X)
    y = np.asarray(data.y, dtype=np.int8)
    idx = np.arange(len(y), dtype=np.int64)
    root, importance = grow_tree(X, y, idx, minsplit=minsplit, cp=cp, maxdepth=maxdepth)
    return TreeModel(
        root=root,
        columns=list(data.columns),
        impute=medians,
        minsplit=minsplit,
        cp=cp,
        maxdepth=maxdepth,
        importance=importance,
    )


def tree_proba(tree: Tree, X) -> np.ndarray:
    """P(hired) per row of X: every row still at an inner node moves one
    level down per step."""
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


def predict_tree(model: TreeModel, X) -> np.ndarray:
    X = fill_missing(np.asarray(X, dtype=np.float64), model.impute)
    return tree_proba(model.root, X)
