"""Exhaustive best-split oracle for binary CART training.

Enumerates every (feature, midpoint-threshold) pair and evaluates the
weighted-Gini score from mask-based class counts. Shares only the score
*formula* with the implementation (the score is defined as an exact
function of integer counts); counting and enumeration are independent.
"""

import numpy as np


def score_from_counts(nl, pl, nr, pr):
    """Sum over children of n_child * gini_child, from integer counts."""
    ql = nl - pl
    qr = nr - pr
    return (nl * nl - pl * pl - ql * ql) / nl + (nr * nr - pr * pr - qr * qr) / nr


def exhaustive_best_split(X, y):
    """Scan all features (ascending) and all midpoints (ascending).

    Returns (feature, threshold, score) or (-1, 0.0, parent_score) when no
    split strictly improves on the parent node.
    """
    n = len(y)
    pos = int(y.sum())
    neg = n - pos
    parent = (n * n - pos * pos - neg * neg) / n
    best_f, best_t, best_s = -1, 0.0, parent
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1].tolist(), vals[1:].tolist()):
            mid = (lo + hi) / 2.0
            thr = mid if lo <= mid < hi else lo  # the midpoint can round to hi or overflow
            left = X[:, f] <= thr
            nl = int(left.sum())
            pl = int(y[left].sum())
            s = score_from_counts(nl, pl, n - nl, pos - pl)
            if s < best_s:
                best_f, best_t, best_s = f, thr, s
    return best_f, best_t, best_s
