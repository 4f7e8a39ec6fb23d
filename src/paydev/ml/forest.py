"""CART and random forest. Each grows in one native.grow_forest call, whose
node table (paydev.model.Nodes) the model keeps and paydev.model.predict_proba
scores.

A CART is a binary tree grown by greedy Gini minimization, as a forest of
one tree that takes every row once and searches every feature, so it draws
nothing. Splits are midpoints between consecutive distinct feature values
(the lower value where the midpoint rounds or overflows out of the gap, see
kernels.threshold_between), so both children hold rows; a split is kept
only when it cuts the tree's misclassification cost by at least cp
relative to the root's cost. Defaults mirror the usual recursive
partitioning settings (minsplit 20, cp 0.01, maxdepth 30). A random forest
bags fully-grown CART trees with per-node feature sampling; each tree draws
from its own generator, seeded by (seed, tree index), so the fitted model
is a pure function of (seed, data).
"""

from __future__ import annotations

import math

from paydev import native
from paydev.errors import SchemaError
from paydev.ml.dataset import Dataset, as_rows, check_training, impute_median
from paydev.model import ForestModel, Nodes, TreeModel, predict_proba


def forest_seed(seed_parts) -> int:
    """The forest seed of one fit, derived from (master seed, repeat, fold):
    the first word of numpy's SeedSequence(entropy=seed_parts)."""
    return native.seed_state(list(seed_parts), 1)[0]


def fit_tree(data: Dataset, minsplit=20, cp=0.01, maxdepth=30) -> TreeModel:
    check_training(data)
    p = len(data.columns)
    X, medians = impute_median(data)
    table, importance = native.grow_forest(X, data.y, p, n_trees=1, seed=0, bootstrap=False,
                                           mtry=p, minsplit=minsplit, cp=cp, maxdepth=maxdepth)
    return TreeModel(nodes=Nodes(*table), columns=list(data.columns), impute=medians,
                     minsplit=minsplit, cp=cp, maxdepth=maxdepth, importance=importance)


def fit_forest(data: Dataset, n_trees=500, mtry=None, seed=0, bootstrap=True) -> ForestModel:
    check_training(data)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    p = len(data.columns)
    if mtry is None:
        mtry = max(1, int(math.isqrt(p)))
    if not 1 <= mtry <= p:
        raise SchemaError(f"mtry (config forest_mtry) must be in [1, {p}]")
    X, medians = impute_median(data)
    table, importance = native.grow_forest(X, data.y, p, n_trees=n_trees, seed=int(seed),
                                           bootstrap=bootstrap, mtry=mtry, minsplit=2, cp=0.0,
                                           maxdepth=None)
    return ForestModel(nodes=Nodes(*table), columns=list(data.columns), impute=medians, mtry=mtry,
                       seed=seed, bootstrap=bootstrap, importance=importance)


def predict_forest(model: ForestModel, X):
    """P(hired) per row of X, a matrix() view of rows in the model's columns,
    under a forest, as an array("d"), by paydev.model.predict_proba. A
    tracer that wraps paydev.ml.predict_forest counts the forests' rows
    here."""
    values, n, _ = as_rows(X)
    return predict_proba(model, values, n, model.columns)
