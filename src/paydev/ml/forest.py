"""Random forest: bagged fully-grown CART trees with per-node feature
sampling.

Every random draw comes from a per-tree generator seeded by (seed, tree
index), so the fitted model is a pure function of (seed, data).
"""

from __future__ import annotations

import math

import numpy as np

from paydev.errors import SchemaError
from paydev.ml import kernels
from paydev.ml.dataset import Dataset, check_training, fill_missing, impute_median, vector
from paydev.model import ForestModel, Tree


def forest_seed(seed_parts) -> int:
    """The forest seed of one fit, derived from (master seed, repeat, fold)."""
    return int(np.random.SeedSequence(entropy=list(seed_parts)).generate_state(1)[0])


def _tree_rng(seed, tree_index):
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), tree_index]))


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
    X, medians = impute_median(data.X)
    X = np.ascontiguousarray(X)
    y = np.asarray(data.y, dtype=np.int8)
    n, p = X.shape
    if mtry is None:
        mtry = max(1, int(math.isqrt(p)))
    if not 1 <= mtry <= p:
        raise SchemaError(f"mtry (config forest_mtry) must be in [1, {p}]")

    rows = kernels.Presorted(X, y)  # checked and sorted once for all the trees
    trees, importance = [], np.zeros(p)
    for t in range(n_trees):
        rng = _tree_rng(seed, t)
        if bootstrap:
            idx = np.sort(rng.integers(0, n, size=n)).astype(np.int64)
        else:
            idx = np.arange(n, dtype=np.int64)
        arrays, imp = kernels.grow_tree(
            rows, idx, minsplit=2, cp=0.0, maxdepth=None, mtry=mtry, rng=rng
        )
        trees.append(Tree(*arrays))
        importance += imp
    importance /= n_trees

    return ForestModel(
        trees=trees,
        columns=list(data.columns),
        impute=vector(medians),
        n_trees=n_trees,
        mtry=mtry,
        seed=seed,
        bootstrap=bootstrap,
        importance=vector(importance),
    )


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Mean of the trees' leaf probabilities, accumulated in tree order."""
    X = fill_missing(np.asarray(X, dtype=np.float64), model.impute)
    return kernels.forest_sum(model.trees, X) / model.n_trees
