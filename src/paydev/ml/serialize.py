"""Versioned model files.

A model file is one JSON object starting with the magic string
PAYDEVMODEL/1; floats serialize via repr so save/load round-trips exactly.
"""

from __future__ import annotations

import json

import numpy as np

from paydev.errors import SchemaError
from paydev.ml.forest import ForestModel
from paydev.ml.logit import LogitModel
from paydev.ml.tree import TreeModel, TreeNode

MAGIC = "PAYDEVMODEL/1"


def _node_to_obj(node: TreeNode):
    obj = {"n": node.n, "pos": node.pos}
    if not node.is_leaf:
        obj["feature"] = node.feature
        obj["threshold"] = node.threshold
        obj["left"] = _node_to_obj(node.left)
        obj["right"] = _node_to_obj(node.right)
    return obj


_MISSING = object()


def _get(obj, key, types):
    """obj[key] if it has one of `types`; a bool counts only as a bool."""
    value = obj.get(key, _MISSING) if isinstance(obj, dict) else _MISSING
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise SchemaError(f"model file: {key!r} missing or mistyped")
    return value


def _floats(obj, key, size=None):
    """obj[key] as a float64 array; size=None accepts any length."""
    values = _get(obj, key, list)
    if size not in (None, len(values)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise SchemaError(f"model file: {key!r} is not a list of numbers of the right length")
    return np.array(values, dtype=np.float64)


def _node_from_obj(obj, p) -> TreeNode:
    node = TreeNode(n=_get(obj, "n", int), pos=_get(obj, "pos", int))
    if not 0 <= node.pos <= node.n or node.n == 0:
        raise SchemaError("model file: tree node counts out of range")
    if len(obj) > 2:  # an inner node must carry all four split keys
        node.feature = _get(obj, "feature", int)
        if not 0 <= node.feature < p:
            raise SchemaError("model file: tree node feature out of range")
        node.threshold = _get(obj, "threshold", (int, float))
        node.left = _node_from_obj(_get(obj, "left", dict), p)
        node.right = _node_from_obj(_get(obj, "right", dict), p)
    return node


def model_kind(model) -> str:
    if isinstance(model, LogitModel):
        return "logit"
    if isinstance(model, TreeModel):
        return "tree"
    if isinstance(model, ForestModel):
        return "forest"
    raise TypeError(f"not a model: {type(model).__name__}")


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
            "root": _node_to_obj(model.root),
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
            "trees": [_node_to_obj(t) for t in model.trees],
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
    json.dump(obj, fileobj)
    fileobj.write("\n")


def load_model(fileobj):
    try:
        obj = json.load(fileobj)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc.msg}") from None
    if not isinstance(obj, dict) or obj.get("magic") != MAGIC:
        raise SchemaError(f"not a {MAGIC} model file")
    kind = obj.get("kind")
    columns = _get(obj, "columns", list)
    if not all(isinstance(c, str) for c in columns):
        raise SchemaError("model file: 'columns' must be a list of names")
    p = len(columns)
    params = _get(obj, "params", dict)
    payload = _get(obj, "payload", dict)
    num = (int, float)
    if kind == "logit":
        return LogitModel(
            coef=_floats(payload, "coef", p),
            intercept=_get(payload, "intercept", num),
            mean=_floats(payload, "mean", p),
            scale=_floats(payload, "scale", p),
            columns=columns,
            impute=_floats(payload, "impute", p),
            converged=_get(payload, "converged", bool),
            n_iter=_get(payload, "n_iter", int),
            loss_history=_floats(payload, "loss_history").tolist(),
        )
    if kind == "tree":
        return TreeModel(
            root=_node_from_obj(_get(payload, "root", dict), p),
            columns=columns,
            impute=_floats(payload, "impute", p),
            minsplit=_get(params, "minsplit", int),
            cp=_get(params, "cp", num),
            maxdepth=_get(params, "maxdepth", (int, type(None))),
            importance=_floats(payload, "importance", p),
        )
    if kind == "forest":
        trees = _get(payload, "trees", list)
        if not trees or len(trees) != _get(params, "n_trees", int):
            raise SchemaError("model file: 'trees' does not hold n_trees trees")
        return ForestModel(
            trees=[_node_from_obj(t, p) for t in trees],
            columns=columns,
            impute=_floats(payload, "impute", p),
            n_trees=len(trees),
            mtry=_get(params, "mtry", int),
            seed=_get(params, "seed", int),
            bootstrap=_get(params, "bootstrap", bool),
            importance=_floats(payload, "importance", p),
        )
    raise SchemaError(f"unknown model kind {kind!r}")
