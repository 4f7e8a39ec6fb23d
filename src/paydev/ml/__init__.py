"""Classifiers: logistic regression, CART, random forest.

All three expose probability predictions of the hired class through
predict_proba. The fitted models, and the model files, are paydev.model's.
This package imports no numpy: each fit and each predictor runs through
paydev.native's kernels on stdlib arrays.
"""

from __future__ import annotations

from paydev import model as mdl
from paydev.errors import ColumnMismatchError
from paydev.ml.dataset import Dataset, as_rows, check_training, impute_median, make_dataset, matrix
from paydev.ml.forest import fit_forest, fit_tree, forest_seed, predict_forest
from paydev.ml.introspect import introspect
from paydev.ml.logit import fit_logit
from paydev.model import (
    ForestModel,
    LogitModel,
    TreeModel,
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
    "make_dataset",
    "matrix",
    "model_kind",
    "predict_forest",
    "predict_proba",
    "save_model",
]


def predict_proba(model, X):
    """P(hired) per row of X, a 2-D buffer of doubles in the model's columns
    (a matrix() view, or a float64 numpy matrix of any memory layout), as an
    array("d"). A forest is scored through predict_forest, a CART or logit
    by paydev.model.predict_proba."""
    values, n, p = as_rows(X)
    if p not in (None, len(model.columns)):
        raise ColumnMismatchError(
            missing={f"column {i}" for i in range(p, len(model.columns))},
            extra={f"column {i}" for i in range(len(model.columns), p)},
        )
    if isinstance(model, ForestModel):
        return predict_forest(model, matrix(values, len(model.columns)))
    return mdl.predict_proba(model, values, n, model.columns)
