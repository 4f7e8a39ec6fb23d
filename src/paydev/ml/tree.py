"""Binary CART classifier grown by greedy Gini minimization.

Splits are midpoints between consecutive distinct feature values (the
lower value where the midpoint rounds or overflows out of the gap, see
kernels.threshold_between), so both children hold rows; a split is kept
only when it cuts the tree's misclassification cost by at least cp
relative to the root's cost. Defaults mirror the usual recursive
partitioning settings (minsplit 20, cp 0.01, maxdepth 30). kernels grows
the tree (grow_tree) and walks it (forest_sum).
"""

from __future__ import annotations

import numpy as np

from paydev.ml import kernels
from paydev.ml.dataset import Dataset, check_training, fill_missing, impute_median, vector
from paydev.model import Tree, TreeModel


def fit_tree(data: Dataset, minsplit=20, cp=0.01, maxdepth=30) -> TreeModel:
    check_training(data)
    X, medians = impute_median(data.X)
    y = np.asarray(data.y, dtype=np.int8)
    arrays, importance = kernels.grow_tree(
        kernels.Presorted(np.ascontiguousarray(X), y), np.arange(len(y), dtype=np.int64),
        minsplit=minsplit, cp=cp, maxdepth=maxdepth,
    )
    return TreeModel(
        root=Tree(*arrays),
        columns=list(data.columns),
        impute=vector(medians),
        minsplit=minsplit,
        cp=cp,
        maxdepth=maxdepth,
        importance=vector(importance),
    )


def predict_tree(model: TreeModel, X) -> np.ndarray:
    X = fill_missing(np.asarray(X, dtype=np.float64), model.impute)
    return kernels.forest_sum([model.root], X)
