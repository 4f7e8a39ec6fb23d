"""Training data container and column matching."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from paydev.errors import SingleClassError
from paydev.model import column_order


@dataclass
class Dataset:
    """Feature matrix with binary labels (1 = hired)."""

    X: np.ndarray
    y: np.ndarray
    columns: list[str]
    ids: list[str]


def make_dataset(X, y, columns, ids) -> Dataset:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError("X and y shapes disagree")
    if X.shape[1] != len(columns):
        raise ValueError("column names do not match X width")
    return Dataset(X=X, y=y, columns=list(columns), ids=list(ids))


def check_training(data: Dataset) -> None:
    """Both classes must be present, which takes at least two rows."""
    if len(data.y) == 0:
        raise SingleClassError("training data has no labeled rows")
    if (data.y == data.y[0]).all():
        raise SingleClassError("training data contains a single class")


def impute_median(X):
    """Fill NaN with per-column medians of the other values (0.0 where there
    are none); returns (filled X, medians). The two middle values a and b
    give np.median's value where their sum is finite, and a / 2 + b / 2,
    which stays finite, where it is not."""
    X = np.array(X, dtype=np.float64, copy=True)
    medians = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        nan = np.isnan(col)
        good = col[~nan]
        if good.size:
            mid = ((good.size - 1) // 2, good.size // 2)
            a, b = np.partition(good, mid)[list(mid)].tolist()
            total = 0.0 + a + b  # np.median's sum, which turns -0.0 into 0.0
            medians[j] = total / 2 if np.isfinite(total) else a / 2 + b / 2
        col[nan] = medians[j]
    return X, medians


def fill_missing(X, medians):
    X = np.array(X, dtype=np.float64, copy=True)
    for j in range(X.shape[1]):
        nan = np.isnan(X[:, j])
        if nan.any():
            X[nan, j] = medians[j]
    return X


def align_columns(X, columns, model_columns):
    """Reorder X's columns to the model's order; error on any mismatch."""
    return X[:, column_order(columns, model_columns)]


def vector(values) -> array:
    """A numpy vector as the array("d") that the model objects hold."""
    return array("d", np.ascontiguousarray(values, dtype=np.float64).tobytes())
