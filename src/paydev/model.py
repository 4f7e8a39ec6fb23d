"""Fitted models as data, their files, and prediction over the rows of a
features CSV, without numpy.

The model objects hold stdlib arrays: a Tree's six node arrays are
array("q") (array("d") for threshold), and every per-feature vector
(impute, importance, a logit's coef, mean and scale) is an array("d").
paydev.ml's fit_logit, fit_tree and fit_forest and load_model return these
same objects. A model file is one JSON object starting with the magic
string PAYDEVMODEL/2; floats serialize via repr so save/load round-trips
exactly. Each tree is an object of its six node arrays.

tree_proba scores a tree or forest, for predict_rows and for paydev.ml's
predictors alike, and fills missing values as it walks; with the compiled
library it is native.forest_sum, so `paydev predict --features` with such
a model runs without numpy. predict_rows scores rows as read_features_csv
gives them; a logit model is scored by paydev.ml.predict_proba.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field, fields

from paydev import native
from paydev.errors import ColumnMismatchError, SchemaError, csv_rows

MAGIC = "PAYDEVMODEL/2"
HIRED = "hired"
VOLUNTEER = "volunteer"


@dataclass
class Tree:
    """One fitted tree as parallel node arrays. Node 0 is the root and every
    child index is greater than its parent's; leaves have feature, left and
    right -1. n and pos count the node's training rows and hired rows."""

    feature: array
    threshold: array
    left: array
    right: array
    n: array
    pos: array


TREE_ARRAYS = tuple(f.name for f in fields(Tree))


@dataclass
class TreeModel:
    root: Tree
    columns: list[str]
    impute: array
    minsplit: int
    cp: float
    maxdepth: int | None
    importance: array = field(default=None)


@dataclass
class ForestModel:
    trees: list[Tree]
    columns: list[str]
    impute: array
    n_trees: int
    mtry: int
    seed: int
    bootstrap: bool
    importance: array


@dataclass
class LogitModel:
    coef: array  # coefficients in standardized feature space
    intercept: float
    mean: array
    scale: array
    columns: list[str]
    impute: array
    converged: bool
    n_iter: int
    loss_history: list[float] = field(default_factory=list)


def model_kind(model) -> str:
    if isinstance(model, LogitModel):
        return "logit"
    if isinstance(model, TreeModel):
        return "tree"
    if isinstance(model, ForestModel):
        return "forest"
    raise TypeError(f"not a model: {type(model).__name__}")


def column_order(columns, model_columns) -> list[int]:
    """The index in `columns` of each of the model's columns; raises
    ColumnMismatchError when the two name different columns."""
    columns = list(columns)
    missing = set(model_columns) - set(columns)
    extra = set(columns) - set(model_columns)
    if missing or extra:
        raise ColumnMismatchError(missing=missing, extra=extra)
    return [columns.index(c) for c in model_columns]


def read_features_csv(fileobj):
    """Read a features CSV into (rows, ids, columns): one list of floats per
    identity, in file order, where nan marks a missing value; no id may
    repeat."""
    reader = csv_rows(fileobj)
    header = next(reader, None)
    if not header or header[0] != "identity":
        raise SchemaError("features CSV must start with an 'identity' column", line=1)
    columns = header[1:]
    ids, rows, seen = [], [], set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns) + 1:
            raise SchemaError("wrong number of columns", line=lineno)
        if row[0] in seen:
            raise SchemaError(f"identity {row[0]!r} repeated", line=lineno)
        seen.add(row[0])
        ids.append(row[0])
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise SchemaError("non-numeric feature value", line=lineno) from None
        if any(math.isinf(v) for v in values):  # nan means missing and is imputed
            raise SchemaError("infinite feature value", line=lineno)
        rows.append(values)
    return rows, ids, columns


def tree_proba(model, X, n_rows):
    """P(hired) per row under a TreeModel or ForestModel, as an array("d"):
    the mean over its trees, summed in tree order, of the leaf probability
    pos/n. X is an array("d") of n_rows rows in the model's column order;
    a NaN in column f takes model.impute[f]. This is the one place that
    chooses how a tree or forest is scored: native.forest_sum with the
    compiled library, else its numpy twin in paydev.ml.kernels."""
    trees = [model.root] if isinstance(model, TreeModel) else model.trees
    if native.lib is None:
        from paydev.ml.kernels import forest_sum_py

        return forest_sum_py(trees, model.impute, X, n_rows)
    return native.forest_sum(trees, model.impute, X, n_rows)


def predict_rows(model, rows, columns):
    """P(hired) of each row (a list of floats in `columns` order) under
    `model`, with the columns matched to the model's by name and each
    missing (nan) value replaced by the model's imputed one."""
    if isinstance(model, LogitModel):
        import numpy as np

        from paydev import ml

        X = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
        return ml.predict_proba(model, X, columns=columns)
    order = column_order(columns, model.columns)
    return tree_proba(model, array("d", [row[j] for row in rows for j in order]), len(rows))


def _tree_to_obj(tree: Tree):
    return {key: getattr(tree, key).tolist() for key in TREE_ARRAYS}


_MISSING = object()


def _get(obj, key, types):
    """obj[key] if it has one of `types`; a bool counts only as a bool."""
    value = obj.get(key, _MISSING) if isinstance(obj, dict) else _MISSING
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise SchemaError(f"model file: {key!r} missing or mistyped")
    return value


def _is_number(v):
    """A JSON number that float64 holds exactly (integers up to 2**53)."""
    return type(v) is float or (type(v) is int and abs(v) <= 2**53)


def _is_finite(v):
    return _is_number(v) and math.isfinite(v)


def _number(obj, key):
    """obj[key] as a finite number."""
    value = _get(obj, key, (int, float))
    if not _is_finite(value):
        raise SchemaError(f"model file: {key!r} out of range")
    return value


def _floats(obj, key, size=None, allowed=_is_number):
    """obj[key] as an array("d"); size=None accepts any length, and every
    element must pass `allowed`."""
    values = _get(obj, key, list)
    if size not in (None, len(values)) or not all(allowed(v) for v in values):
        raise SchemaError(f"model file: {key!r} is not a list of valid numbers of the right length")
    return array("d", values)


def _ints_in(values, lo, hi):
    return all(type(v) is int and lo <= v < hi for v in values)


def _tree_from_obj(obj, p) -> Tree:
    """Checks every element before any conversion: types and ranges, and
    that the inner nodes' children are each node 1..m-1 exactly once, at a
    larger index than their parent, so the arrays form one tree."""
    arrays = {key: _get(obj, key, list) for key in TREE_ARRAYS}
    feature, threshold, left, right, n, pos = arrays.values()
    m = len(n)
    if m == 0 or any(len(a) != m for a in arrays.values()):
        raise SchemaError("model file: tree arrays are empty or of unequal length")
    if not (
        _ints_in(feature, -1, p) and _ints_in(left, -1, m) and _ints_in(right, -1, m)
        and _ints_in(n, 1, 2**53) and all(_is_finite(v) for v in threshold)
        and all(type(k) is int and 0 <= k <= c for k, c in zip(pos, n))
    ):
        raise SchemaError("model file: tree array element mistyped or out of range")
    children = []
    for i, (f, lo, hi) in enumerate(zip(feature, left, right)):
        if f < 0 and lo == hi == -1:
            continue
        if f < 0 or lo <= i or hi <= i:
            raise SchemaError(f"model file: tree node {i} has bad children")
        children += (lo, hi)
    if sorted(children) != list(range(1, m)):
        raise SchemaError("model file: tree nodes do not form one tree")
    return Tree(**{key: array("d" if key == "threshold" else "q", a)
                   for key, a in arrays.items()})


def save_model(model, fileobj) -> None:
    kind = model_kind(model)
    if kind == "logit":
        params = {}
        payload = {
            "coef": list(model.coef),
            "intercept": model.intercept,
            "mean": list(model.mean),
            "scale": list(model.scale),
            "impute": list(model.impute),
            "converged": model.converged,
            "n_iter": model.n_iter,
            "loss_history": list(model.loss_history),
        }
    elif kind == "tree":
        params = {"minsplit": model.minsplit, "cp": model.cp, "maxdepth": model.maxdepth}
        payload = {
            "root": _tree_to_obj(model.root),
            "impute": list(model.impute),
            "importance": list(model.importance),
        }
    else:
        params = {
            "n_trees": model.n_trees,
            "mtry": model.mtry,
            "seed": model.seed,
            "bootstrap": model.bootstrap,
        }
        payload = {
            "trees": [_tree_to_obj(t) for t in model.trees],
            "impute": list(model.impute),
            "importance": list(model.importance),
        }
    obj = {
        "magic": MAGIC,
        "kind": kind,
        "columns": list(model.columns),
        "params": params,
        "payload": payload,
    }
    # one json.dumps call takes the C encoder; json.dump would take the
    # pure-Python one and write the file in thousands of pieces. A NaN or
    # infinite number, which load_model would reject, raises ValueError
    # before a byte is written.
    fileobj.write(json.dumps(obj, allow_nan=False) + "\n")


def load_model(fileobj):
    try:
        obj = json.load(fileobj)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise SchemaError(f"model file is not valid JSON: {exc}") from None
    magic = obj.get("magic") if isinstance(obj, dict) else None
    if magic == "PAYDEVMODEL/1":
        raise SchemaError("PAYDEVMODEL/1 model files are no longer read; retrain the model")
    if magic != MAGIC:
        raise SchemaError(f"not a {MAGIC} model file")
    kind = obj.get("kind")
    columns = _get(obj, "columns", list)
    if not all(isinstance(c, str) for c in columns):
        raise SchemaError("model file: 'columns' must be a list of names")
    p = len(columns)
    params = _get(obj, "params", dict)
    payload = _get(obj, "payload", dict)
    if kind == "logit":
        return LogitModel(
            coef=_floats(payload, "coef", p, _is_finite),
            intercept=_number(payload, "intercept"),
            mean=_floats(payload, "mean", p, _is_finite),
            scale=_floats(payload, "scale", p, lambda v: _is_finite(v) and v > 0),
            columns=columns,
            impute=_floats(payload, "impute", p, _is_finite),
            converged=_get(payload, "converged", bool),
            n_iter=_get(payload, "n_iter", int),
            loss_history=_floats(payload, "loss_history").tolist(),
        )
    if kind == "tree":
        return TreeModel(
            root=_tree_from_obj(_get(payload, "root", dict), p),
            columns=columns,
            impute=_floats(payload, "impute", p, _is_finite),
            minsplit=_get(params, "minsplit", int),
            cp=_number(params, "cp"),
            maxdepth=_get(params, "maxdepth", (int, type(None))),
            importance=_floats(payload, "importance", p, _is_finite),
        )
    if kind == "forest":
        trees = _get(payload, "trees", list)
        if not trees or len(trees) != _get(params, "n_trees", int):
            raise SchemaError("model file: 'trees' does not hold n_trees trees")
        return ForestModel(
            trees=[_tree_from_obj(t, p) for t in trees],
            columns=columns,
            impute=_floats(payload, "impute", p, _is_finite),
            n_trees=len(trees),
            mtry=_get(params, "mtry", int),
            seed=_get(params, "seed", int),
            bootstrap=_get(params, "bootstrap", bool),
            importance=_floats(payload, "importance", p, _is_finite),
        )
    raise SchemaError(f"unknown model kind {kind!r}")
