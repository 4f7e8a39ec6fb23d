"""Classifiers: logistic regression, CART, random forest.

All three expose probability predictions of the hired class through
predict_proba. The fitted models, and the model files, are paydev.model's,
which needs no numpy.
"""

from __future__ import annotations

import numpy as np

from paydev.ml.dataset import (
    Dataset,
    align_columns,
    check_training,
    fill_missing,
    impute_median,
    make_dataset,
)
from paydev.ml.forest import fit_forest, forest_seed, predict_forest
from paydev.ml.introspect import introspect, root_split_feature
from paydev.ml.logit import fit_logit, loss_and_grad, predict_logit, sigmoid
from paydev.ml.tree import fit_tree, predict_tree
from paydev.model import ForestModel, LogitModel, TreeModel, load_model, model_kind, save_model

__all__ = [
    "Dataset",
    "ForestModel",
    "LogitModel",
    "TreeModel",
    "align_columns",
    "check_training",
    "fill_missing",
    "fit_forest",
    "fit_logit",
    "fit_tree",
    "forest_seed",
    "impute_median",
    "introspect",
    "load_model",
    "loss_and_grad",
    "make_dataset",
    "model_kind",
    "predict_proba",
    "root_split_feature",
    "save_model",
    "sigmoid",
]


def predict_proba(model, X, columns=None) -> np.ndarray:
    """P(hired) per row; columns, when given, are matched to the model's."""
    X = np.asarray(X, dtype=np.float64)
    if columns is not None:
        X = align_columns(X, columns, model.columns)
    elif X.shape[1] != len(model.columns):
        from paydev.errors import ColumnMismatchError

        raise ColumnMismatchError(
            missing={f"column {i}" for i in range(X.shape[1], len(model.columns))},
            extra={f"column {i}" for i in range(len(model.columns), X.shape[1])},
        )
    if isinstance(model, LogitModel):
        return predict_logit(model, X)
    if isinstance(model, TreeModel):
        return predict_tree(model, X)
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    raise TypeError(f"not a model: {type(model).__name__}")

