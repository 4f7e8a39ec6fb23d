"""Classifiers: logistic regression, CART, random forest.

All three expose probability predictions of the hired class through
predict_proba. The fitted models, and the model files, are paydev.model's,
which needs no numpy. This package imports no numpy either: a tree or a
forest fits without it, and the logit functions (fit_logit, loss_and_grad,
predict_logit, sigmoid), which need it, load paydev.ml.logit on first use.
"""

from __future__ import annotations

from paydev.ml.dataset import Dataset, as_numpy, check_training, impute_median, make_dataset
from paydev.ml.forest import fit_forest, fit_tree, forest_seed, predict_forest, predict_tree
from paydev.ml.introspect import introspect, root_split_feature
from paydev.model import (
    ForestModel,
    LogitModel,
    TreeModel,
    column_order,
    load_model,
    model_kind,
    save_model,
)

_LOGIT = ("fit_logit", "loss_and_grad", "predict_logit", "sigmoid")

__all__ = [
    "Dataset",
    "ForestModel",
    "LogitModel",
    "TreeModel",
    "as_numpy",
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
    "model_kind",
    "predict_proba",
    "root_split_feature",
    "save_model",
    "sigmoid",
]


def __getattr__(name):
    if name in _LOGIT:
        from paydev.ml import logit

        return getattr(logit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def predict_proba(model, X, columns=None):
    """P(hired) per row of X (a numpy matrix, or rows of floats), as a numpy
    vector; columns, when given, are matched to the model's."""
    import numpy as np

    X = np.asarray(X, dtype=np.float64)
    if columns is not None:
        X = X[:, column_order(columns, model.columns)]
    elif X.shape[1] != len(model.columns):
        from paydev.errors import ColumnMismatchError

        raise ColumnMismatchError(
            missing={f"column {i}" for i in range(X.shape[1], len(model.columns))},
            extra={f"column {i}" for i in range(len(model.columns), X.shape[1])},
        )
    if isinstance(model, LogitModel):
        from paydev.ml.logit import predict_logit

        return predict_logit(model, X)
    if isinstance(model, TreeModel):
        return predict_tree(model, X)
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    raise TypeError(f"not a model: {type(model).__name__}")
