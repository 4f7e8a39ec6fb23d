"""Random forest: bagged fully-grown CART trees with per-node feature
sampling.

Every random draw comes from a per-tree generator seeded by (seed, tree
index), so the fitted model is a pure function of (seed, data). The whole
forest grows in one call of the fit's pass (paydev.ml.dataset.grow_forest)
and is scored by paydev.model.tree_proba.
"""

from __future__ import annotations

import math
from array import array

from paydev.errors import SchemaError
from paydev.ml.dataset import Dataset, check_training, grow_forest, impute_median, seed_state
from paydev.model import ForestModel, Tree, tree_proba


def forest_seed(seed_parts) -> int:
    """The forest seed of one fit, derived from (master seed, repeat, fold):
    the first word of numpy's SeedSequence(entropy=seed_parts)."""
    return seed_state(list(seed_parts), 1)[0]


def fit_forest(
    data: Dataset,
    n_trees=500,
    mtry=None,
    seed=0,
    bootstrap=True,
) -> ForestModel:
    check_training(data)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    p = len(data.columns)
    if mtry is None:
        mtry = max(1, int(math.isqrt(p)))
    if not 1 <= mtry <= p:
        raise SchemaError(f"mtry (config forest_mtry) must be in [1, {p}]")
    X, medians = impute_median(data)
    trees, importance = grow_forest(X, data.y, p, n_trees=n_trees, seed=int(seed),
                                    bootstrap=bootstrap, mtry=mtry, minsplit=2, cp=0.0,
                                    maxdepth=None)
    return ForestModel(
        trees=[Tree(*arrays) for arrays in trees],
        columns=list(data.columns),
        impute=medians,
        n_trees=n_trees,
        mtry=mtry,
        seed=seed,
        bootstrap=bootstrap,
        importance=importance,
    )


def predict_forest(model: ForestModel, X):
    """Mean of the trees' leaf probabilities per row of the float64 numpy
    matrix X, accumulated in tree order (tree_proba)."""
    import numpy as np

    return np.asarray(tree_proba(model, array("d", X.tobytes()), len(X)))
