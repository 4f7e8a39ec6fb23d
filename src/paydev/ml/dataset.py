"""Training data.

A Dataset holds one representation, stdlib arrays: X is an array("d") of
its rows one after another, y an array("b") of labels. matrix() views such
rows as an (n, p) memoryview without a copy, which len() counts in rows and
numpy views as a matrix, and as_rows() takes them, or any 2-D buffer of
doubles, back, so no fit and no predictor needs numpy. impute_median fills
a Dataset's missing values through native.impute_median.
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


def matrix(values: array, p: int) -> memoryview:
    """`values`, an array("d") of rows of p values one after another, as an
    (n, p) memoryview over it, without a copy; no rows give an empty 1-D
    view, as a shape holds no 0."""
    view = memoryview(values)
    return view.cast("B").cast("d", (len(values) // p, p)) if values else view


def as_rows(X):
    """(values, n, p): X, a 2-D buffer of doubles (a matrix() view, or a
    float64 numpy matrix of any memory layout), as an array("d") of its rows
    one after another; an empty 1-D buffer, which matrix() gives for no
    rows, is no rows, with p None. A matrix() view gives back its own array,
    not a copy."""
    view = memoryview(X)
    if view.format == "d" and view.ndim == 1 and not len(view):
        return array("d"), 0, None
    if view.format != "d" or view.ndim != 2:
        raise TypeError("rows must be a 2-D buffer of doubles")
    (n, p), values = view.shape, view.obj
    if not (view.c_contiguous and type(values) is array and values.typecode == "d"
            and len(values) == n * p):
        values = array("d", view.tobytes())  # in row order, whatever the layout
    return values, n, p


def make_dataset(X, y, columns, ids) -> Dataset:
    """A Dataset of the labels y and X: an array("d") of their rows one
    after another (kept, not copied) or a 2-D buffer of doubles, each row
    with one value per column."""
    p = len(columns)
    if type(X) is array and X.typecode == "d":
        n = len(X) // p if p else len(y)
        width = p if n * p == len(X) else None
    else:
        X, n, width = as_rows(X)
    if n != len(y):
        raise ValueError("X and y shapes disagree")
    if width != p and n:
        raise ValueError("column names do not match X width")
    y = y if type(y) is array and y.typecode == "b" else array("b", map(int, y))
    return Dataset(X=X, y=y, columns=list(columns), ids=list(ids))


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
