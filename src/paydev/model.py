"""Fitted models as data, their files, and prediction over the rows of a
features CSV, without numpy.

The model objects hold stdlib arrays. A CART (one tree) and a forest hold
one node table, Nodes, in the layout native.grow_forest hands out and
native.forest_sum reads, so no fit slices it per tree and no predict joins
it. Every per-feature vector (impute, importance, a logit's coef, mean and
scale) is an array("d"). paydev.ml's fit_logit, fit_tree and fit_forest
and load_model return these same objects. A model file is one JSON object
starting with the magic string PAYDEVMODEL/2; floats serialize via repr so
save/load round-trips exactly. Each tree is an object of its six node
arrays; load_model joins them into one table.

predict_proba scores every model, for `paydev predict` and for paydev.ml's
predictors alike, over one layout: an array("d") of rows one after another,
as read_features_csv gives them. A logit goes to native.logit_proba, a CART
or forest to native.forest_sum, and both fill missing values as they score.
Neither needs numpy where the library is loaded, so `paydev predict` runs
without it.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields

from paydev import native
from paydev.errors import ColumnMismatchError, SchemaError, csv_rows

MAGIC = "PAYDEVMODEL/2"
HIRED = "hired"
VOLUNTEER = "volunteer"


@dataclass
class Nodes:
    """The node table of a model's trees: six parallel node arrays holding
    every tree's nodes, one tree after another, and roots, where tree t owns
    nodes roots[t]..roots[t+1]-1 (roots[0] is 0, roots[-1] the node count).
    Each tree numbers its nodes from 0: its root is node 0, every child
    index is greater than its parent's, and leaves have feature, left and
    right -1. n and pos count a node's training rows and hired rows.
    threshold is an array("d"), the others array("q")."""

    feature: array
    threshold: array
    left: array
    right: array
    n: array
    pos: array
    roots: array

    def trees(self) -> list[Nodes]:
        """Each tree as a table of its own, copied out."""
        roots = self.roots
        return [Nodes(*(getattr(self, key)[a:b] for key in TREE_ARRAYS),
                      roots=array("q", [0, b - a])) for a, b in zip(roots, roots[1:])]


TREE_ARRAYS = tuple(f.name for f in fields(Nodes))[:6]  # the arrays a model file holds per tree


def join_trees(trees) -> Nodes:
    """One table of `trees`, each given as its six node arrays or lists in
    TREE_ARRAYS order."""
    nodes = Nodes(*(array("d" if key == "threshold" else "q") for key in TREE_ARRAYS),
                  roots=array("q", [0]))
    columns = [getattr(nodes, key) for key in TREE_ARRAYS]
    for tree in trees:
        for column, values in zip(columns, tree):
            column.extend(values)
        nodes.roots.append(len(nodes.n))
    return nodes


@dataclass
class TreeModel:
    nodes: Nodes  # of one tree
    columns: list[str]
    impute: array
    minsplit: int
    cp: float
    maxdepth: int | None
    importance: array = field(default=None)

    @property
    def root(self) -> Nodes:
        """The one tree."""
        return self.nodes


@dataclass
class ForestModel:
    nodes: Nodes
    columns: list[str]
    impute: array
    mtry: int
    seed: int
    bootstrap: bool
    importance: array

    @property
    def n_trees(self) -> int:
        return len(self.nodes.roots) - 1

    @property
    def trees(self) -> list[Nodes]:  # for a model file's per-tree objects, and for tracers
        return self.nodes.trees()


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
    """Read a features CSV into (X, ids, columns): X an array("d") of one row
    per identity, in file order, one row after another, where nan marks a
    missing value; the header names at least one feature column, and no
    header name and no id may repeat."""
    reader = csv_rows(fileobj)
    header = next(reader, None)
    if not header or header[0] != "identity":
        raise SchemaError("features CSV must start with an 'identity' column", line=1)
    if len(header) == 1:
        raise SchemaError("features CSV names no feature column", line=1)
    _check_unique(header, "features CSV", line=1)
    columns = header[1:]
    X, ids, seen = array("d"), [], set()
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
        X.extend(values)
    return X, ids, columns


def predict_proba(model, X, n_rows, columns):
    """P(hired) of each of the n_rows rows of X, an array("d") of rows in
    `columns` order one after another, under `model`, as an array("d"). The
    columns are matched to the model's by name (ColumnMismatchError where
    they differ), and the rows gathered into the model's order only where
    it differs. A logit is scored by native.logit_proba; a CART or forest by
    native.forest_sum, the mean over its trees, summed in tree order, of
    the leaf probability pos/n. A NaN in a column takes the model's imputed
    value."""
    order = column_order(columns, model.columns)
    p = len(order)
    if order != list(range(p)):
        X = array("d", [X[i + j] for i in range(0, n_rows * p, p) for j in order])
    if model_kind(model) == "logit":
        return native.logit_proba(model, X, n_rows)
    return native.forest_sum(model.nodes, model.impute, X, n_rows)


def _check_unique(names, where, line=None):
    """SchemaError naming a name that repeats in `names`."""
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise SchemaError(f"{where}: column {repeated[0]!r} repeated", line=line)


def _tree_to_obj(tree: Nodes):
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


def _tree_from_obj(obj, p):
    """The six node lists of one tree of a model file, in TREE_ARRAYS
    order. Checks every element: types and ranges, and that the inner
    nodes' children are each node 1..m-1 exactly once, at a larger index
    than their parent, so the lists form one tree."""
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
    return arrays.values()


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
    else:
        if kind == "tree":
            params = {"minsplit": model.minsplit, "cp": model.cp, "maxdepth": model.maxdepth}
            payload = {"root": _tree_to_obj(model.nodes)}
        else:
            params = {"n_trees": model.n_trees, "mtry": model.mtry, "seed": model.seed,
                      "bootstrap": model.bootstrap}
            payload = {"trees": [_tree_to_obj(t) for t in model.trees]}
        payload.update(impute=list(model.impute), importance=list(model.importance))
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
    if not columns or not all(isinstance(c, str) for c in columns):
        raise SchemaError("model file: 'columns' must be a non-empty list of names")
    _check_unique(columns, "model file")
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
    if kind not in ("tree", "forest"):
        raise SchemaError(f"unknown model kind {kind!r}")
    trees = [_get(payload, "root", dict)] if kind == "tree" else _get(payload, "trees", list)
    if kind == "forest" and (not trees or len(trees) != _get(params, "n_trees", int)):
        raise SchemaError("model file: 'trees' does not hold n_trees trees")
    shared = dict(nodes=join_trees(_tree_from_obj(t, p) for t in trees), columns=columns,
                  impute=_floats(payload, "impute", p, _is_finite),
                  importance=_floats(payload, "importance", p, _is_finite))
    if kind == "tree":
        return TreeModel(**shared, minsplit=_get(params, "minsplit", int), cp=_number(params, "cp"),
                         maxdepth=_get(params, "maxdepth", (int, type(None))))
    return ForestModel(**shared, mtry=_get(params, "mtry", int), seed=_get(params, "seed", int),
                       bootstrap=_get(params, "bootstrap", bool))
