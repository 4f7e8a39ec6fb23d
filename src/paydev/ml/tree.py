"""Binary CART classifier grown by greedy Gini minimization.

Splits are midpoints between consecutive distinct feature values (the
lower value where the midpoint rounds or overflows out of the gap, see
kernels.threshold_between), so both children hold rows; a split is kept
only when it cuts the tree's misclassification cost by at least cp
relative to the root's cost. Defaults mirror the usual recursive
partitioning settings (minsplit 20, cp 0.01, maxdepth 30). The tree grows
as a forest of one tree that takes every row once and searches every
feature (paydev.ml.dataset.grow_forest), so it draws nothing, and is
scored as one by paydev.model.tree_proba.
"""

from __future__ import annotations

from array import array

from paydev.ml.dataset import Dataset, check_training, grow_forest, impute_median
from paydev.model import Tree, TreeModel, tree_proba


def fit_tree(data: Dataset, minsplit=20, cp=0.01, maxdepth=30) -> TreeModel:
    check_training(data)
    p = len(data.columns)
    X, medians = impute_median(data)
    (arrays,), importance = grow_forest(X, data.y, p, n_trees=1, seed=0, bootstrap=False,
                                        mtry=p, minsplit=minsplit, cp=cp, maxdepth=maxdepth)
    return TreeModel(
        root=Tree(*arrays),
        columns=list(data.columns),
        impute=medians,
        minsplit=minsplit,
        cp=cp,
        maxdepth=maxdepth,
        importance=importance,
    )


def predict_tree(model: TreeModel, X):
    """P(hired) per row of the float64 numpy matrix X (tree_proba)."""
    import numpy as np

    return np.asarray(tree_proba(model, array("d", X.tobytes()), len(X)))
