"""Pure-numpy split-search kernel (fallback twin of _split.c).

Both backends must return bit-identical results. The score of a candidate
split is defined as an exact function of integer class counts,

    score = (nl^2 - pl^2 - ql^2)/nl + (nr^2 - pr^2 - qr^2)/nr

(i.e. sum over children of n_child * gini_child), evaluated with int64
numerators so the float value does not depend on how the counts were
accumulated. Keep the expression in sync with _split.c.
"""

import numpy as np


def node_score(n: int, pos: int) -> float:
    """n * gini of a node with n samples of which pos are positive."""
    neg = n - pos
    return (n * n - pos * pos - neg * neg) / n


def best_split(X, y, idx, feats):
    """Best (feature, threshold) for the node made of rows `idx`.

    X: (n_total, p) float64 C-contiguous, y: (n_total,) int8 in {0, 1},
    idx: int64 row indices, feats: int64 candidate features sorted
    ascending. Candidate thresholds are midpoints between consecutive
    distinct sorted values; ties break to the lowest feature then lowest
    threshold. Returns (feature, threshold, child_score); feature is -1
    when no candidate strictly improves on the parent score.
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
            best_thr = float((sv[cand[j]] + sv[cand[j] + 1]) / 2.0)
            best_score = float(score[j])

    return best_f, best_thr, best_score
