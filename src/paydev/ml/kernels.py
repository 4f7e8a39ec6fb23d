"""The numpy twins of the compiled fit, of the compiled forest predictor and
of the compiled fold draws.

paydev.native grows trees: its compiled grow_forest grows a whole forest,
or one CART, in one call, searching splits in C over each feature's rows
sorted once per fit, with each tree's bootstrap and node features drawn in
C from numpy's own SeedSequence and PCG64; its impute_median and seed_state
fill a matrix's missing values and derive forest seeds, and its fold_draws
shuffles each class for evaluation's folds. The twins here,
grow_forest_py, impute_median_py, seed_state_py and fold_draws_py, give
the same bytes through numpy: paydev.native binds them without the
compiled library, and its compiled grow_forest hands them a forest it
declines because numpy draws it otherwise. grow_forest_py grows each tree
node by node through best_split, the numpy split search below. Either way
the trees come out as one node table, the array("q") and array("d")
buffers of paydev.model.Nodes.

forest_sum_py, the twin of native.forest_sum, scores a whole forest, or one
CART, tree by tree over that table (tree_proba) after filling the missing
values, and gives the same bytes.
"""

from array import array

import numpy as np

from paydev.model import join_trees
from paydev.native import BACKEND  # noqa: F401  perfbench/run.py reads kernels.BACKEND
from paydev.native import NODE_ARRAYS


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
    values (threshold_between), but not between a NaN and the NaN after it,
    which `<=` cannot tell apart; ties break to the lowest feature then
    lowest threshold. Returns (feature, threshold, child_score); feature is -1
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
        cand = np.nonzero((sv[:-1] != sv[1:]) & ~np.isnan(sv[:-1]))[0]  # NaN sorts last
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


def _grow_tree_py(X, y, idx, minsplit, cp, maxdepth, mtry, rng):
    """One tree of grow_forest_py over rows idx of X (n, p) and y (n,), node
    by node through best_split: the six node arrays and the importance
    vector (numpy). maxdepth None is unbounded; rng None searches every
    feature at every node, else each node draws
    np.sort(rng.choice(p, mtry, replace=False)).

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


def grow_forest_py(X, y, p, n_trees, seed, bootstrap, mtry, minsplit, cp, maxdepth):
    """native.grow_forest through numpy, which it never declines: each tree
    draws from its own Generator, default_rng(SeedSequence([seed, t]))."""
    n = len(y)
    X = np.frombuffer(X, dtype=np.float64).reshape(n, p)
    y = np.frombuffer(y, dtype=np.int8)
    if ((y != 0) & (y != 1)).any():
        raise ValueError("grow_forest needs labels 0 or 1")
    trees, importance = [], np.zeros(p)
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), t]))
        if bootstrap:
            idx = np.sort(rng.integers(0, n, size=n)).astype(np.int64)
        else:
            idx = np.arange(n, dtype=np.int64)
        arrays, imp = _grow_tree_py(X, y, idx, minsplit, cp, maxdepth, mtry,
                                    rng if mtry < p else None)
        trees.append(arrays)
        importance += imp
    importance /= n_trees
    table = join_trees(trees)
    return [getattr(table, key) for key in NODE_ARRAYS], array("d", importance.tobytes())


def impute_median_py(X, p):
    """native.impute_median through numpy: the two middle values a and b of
    a column give np.median's value where their sum is finite, and
    a / 2 + b / 2, which stays finite, where it is not."""
    X = np.array(X, dtype=np.float64).reshape(-1, p) if p else np.zeros((0, 0))
    medians = np.zeros(p)
    for j in range(p):
        col = X[:, j]
        nan = np.isnan(col)
        good = col[~nan]
        if good.size:
            mid = ((good.size - 1) // 2, good.size // 2)
            a, b = np.partition(good, mid)[list(mid)].tolist()
            total = 0.0 + a + b  # np.median's sum, which turns -0.0 into 0.0
            medians[j] = total / 2 if np.isfinite(total) else a / 2 + b / 2
        col[nan] = medians[j]
    return array("d", X.tobytes()), array("d", medians.tobytes())


def seed_state_py(entropy, n_words):
    """native.seed_state through numpy."""
    return np.random.SeedSequence(entropy=list(entropy)).generate_state(n_words).tolist()


def fold_draws_py(entropy, sizes, k):
    """native.fold_draws through numpy."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=list(entropy)))
    out = []
    for m in sizes:
        order = np.arange(m, dtype=np.int64)
        rng.shuffle(order)
        out += order.tolist()
        out.append(int(rng.integers(k)))
    return out


def tree_proba(nodes, X, t=0) -> np.ndarray:
    """P(hired) per row of X under tree t of the node table `nodes`
    (paydev.model.Nodes): every row still at an inner node moves one level
    down per step."""
    feature, threshold, left, right, n, pos = map(np.asarray, (
        nodes.feature, nodes.threshold, nodes.left, nodes.right, nodes.n, nodes.pos))
    base = nodes.roots[t]
    out = np.empty(len(X), dtype=np.float64)
    rows = np.arange(len(X))
    at = np.full(len(X), base, dtype=np.int64)
    while rows.size:
        f = feature[at]
        inner = f >= 0
        leaf = at[~inner]
        out[rows[~inner]] = pos[leaf] / n[leaf]
        rows, at, f = rows[inner], at[inner], f[inner]
        go_left = X[rows, f] <= threshold[at]
        at = base + np.where(go_left, left[at], right[at])
    return out


def forest_sum_py(nodes, impute, X, n_rows):
    """native.forest_sum through numpy: the NaNs filled from impute, then
    the tree_proba of each tree of the node table `nodes` summed in tree
    order and divided by their number."""
    X = np.frombuffer(X, dtype=np.float64).reshape(n_rows, len(impute))
    X = np.where(np.isnan(X), np.asarray(impute), X)
    n_trees = len(nodes.roots) - 1
    total = sum((tree_proba(nodes, X, t) for t in range(n_trees)), np.zeros(n_rows))
    return array("d", (total / n_trees).tobytes())


def available_backends():
    """name -> split search, for benchmarks; the numpy search is the only one
    (the compiled grower searches inside grow_forest)."""
    return {"python": best_split}
