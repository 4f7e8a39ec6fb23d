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
        impute=medians,
        minsplit=minsplit,
        cp=cp,
        maxdepth=maxdepth,
        importance=importance,
    )


def predict_tree(model: TreeModel, X) -> np.ndarray:
    X = fill_missing(np.asarray(X, dtype=np.float64), model.impute)
    return kernels.forest_sum([model.root], X)
