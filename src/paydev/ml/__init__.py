"""Classifiers: logistic regression, CART, random forest.

All three expose probability predictions of the hired class through
predict_proba. The fitted models, and the model files, are paydev.model's.
This package imports no numpy: each fit and each predictor runs through
paydev.native's kernels on stdlib arrays.
"""

from __future__ import annotations

from array import array

from paydev.errors import ColumnMismatchError
from paydev.ml.dataset import Dataset, as_rows, check_training, impute_median, make_dataset, matrix
from paydev.ml.forest import fit_forest, fit_tree, forest_seed, predict_forest, predict_tree
from paydev.ml.introspect import introspect, root_split_feature
from paydev.ml.logit import fit_logit, loss_and_grad, predict_logit, sigmoid
from paydev.model import (
    ForestModel,
    LogitModel,
    TreeModel,
    column_order,
    load_model,
    model_kind,
    save_model,
)

__all__ = [
    "Dataset",
    "ForestModel",
    "LogitModel",
    "TreeModel",
    "as_rows",
    "check_training",
    "fit_forest",
    "fit_logit",
    "fit_tree",
    "forest_seed",
    "impute_median",
    "introspect",
    "load_model",
    "loss_and_grad",
    "make_dataset",
    "matrix",
    "model_kind",
    "predict_logit",
    "predict_proba",
    "root_split_feature",
    "save_model",
    "sigmoid",
]


def predict_proba(model, X, columns=None):
    """P(hired) per row of X (a 2-D buffer of doubles, see matrix(), or a
    sequence of rows), as an array("d"); columns, when given, are matched to
    the model's."""
    values, n, p = as_rows(X)
    if columns is not None:
        order = column_order(columns, model.columns)
        p = len(columns)
        values = array("d", [values[i + j] for i in range(0, n * p, p) for j in order])
    elif p not in (None, len(model.columns)):
        raise ColumnMismatchError(
            missing={f"column {i}" for i in range(p, len(model.columns))},
            extra={f"column {i}" for i in range(len(model.columns), p)},
        )
    X = matrix(values, len(model.columns))
    if isinstance(model, LogitModel):
        return predict_logit(model, X)
    if isinstance(model, TreeModel):
        return predict_tree(model, X)
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    raise TypeError(f"not a model: {type(model).__name__}")
