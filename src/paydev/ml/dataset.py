"""Training data.

A Dataset holds one representation, stdlib arrays: X is an array("d") of
its rows one after another, y an array("b") of labels. numpy views them
without a copy (as_numpy) where it runs, so fitting a tree or a forest
needs no numpy. impute_median fills a Dataset's missing values through
native.impute_median.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from paydev import native
from paydev.errors import SingleClassError


@dataclass
class Dataset:
    """Feature rows with binary labels (1 = hired): X holds len(y) rows of
    len(columns) values, one row after another."""

    X: array
    y: array
    columns: list[str]
    ids: list[str]


def make_dataset(X, y, columns, ids) -> Dataset:
    """A Dataset of X, a numpy matrix or a sequence of rows, each with one
    value per column, and the labels y."""
    if hasattr(X, "dtype"):  # numpy: one conversion, no per-value objects
        if X.ndim != 2:
            raise ValueError("X and y shapes disagree")
        n, widths, X = X.shape[0], {X.shape[1]}, X.astype("d").tobytes()
    else:
        rows = list(X)
        n, widths, X = len(rows), {len(row) for row in rows}, [v for row in rows for v in row]
    if n != len(y):
        raise ValueError("X and y shapes disagree")
    if widths - {len(columns)}:
        raise ValueError("column names do not match X width")
    y = array("b", y.astype("b").tobytes() if hasattr(y, "dtype") else y)
    return Dataset(X=array("d", X), y=y, columns=list(columns), ids=list(ids))


def as_numpy(data: Dataset):
    """(X, y): data.X as an (n, p) float64 matrix and data.y as an int8
    vector, numpy views of its arrays."""
    import numpy as np

    X = np.frombuffer(data.X, dtype=np.float64).reshape(len(data.y), len(data.columns))
    return X, np.frombuffer(data.y, dtype=np.int8)


def check_training(data: Dataset) -> None:
    """Both classes must be present, which takes at least two rows."""
    if len(data.y) == 0:
        raise SingleClassError("training data has no labeled rows")
    if data.y.count(data.y[0]) == len(data.y):
        raise SingleClassError("training data contains a single class")


def impute_median(data: Dataset):
    """(X, medians): data.X with each NaN replaced by its column's median
    (0.0 where the column has no other values), and the medians, as
    array("d")."""
    return native.impute_median(data.X, len(data.columns))
