"""In-process tracing of paydev's layers, done entirely from outside src/.

Each layer's public functions are replaced, for the duration of a traced
chain, at the module attribute their callers look them up by: `paydev.cli`
binds the ingest functions by name, `paydev.ml` binds the forest predictor,
`paydev.ml.tree` calls `kernels.best_split`, and features, labels and
evaluation each bind `to_local`. A wrapper records one span per call
(name, start, end, parent span, run id) in memory, plus counts taken from
the arguments and the returned objects.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def count_nodes(tree) -> int:
    """Nodes of a linked tree (TreeNode) or of a flat-array tree."""
    feature = getattr(tree, "feature", None)
    if hasattr(feature, "__len__"):
        return len(feature)
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack += (node.left, node.right)
    return n


def _kernel_rows(c, args, result):
    c["ml.kernels.best_split.rows"] += len(args[2])


def _forest(c, args, model):
    c["ml.fit_forest.trees"] += len(model.trees)
    c["ml.forest.nodes"] += sum(count_nodes(t) for t in model.trees)


def _tree(c, args, model):
    c["ml.tree.nodes"] += count_nodes(model.root)


def _row_trees(c, args, result):
    c["ml.predict_forest.row_trees"] += len(args[1]) * len(args[0].trees)


def _model_bytes(c, args, result):
    c["ml.save_model.bytes"] += args[1].tell()  # a fresh output file


def _commits(c, args, records):
    c["ingest.commits"] += len(records)


def _identities(c, args, identities):
    c["identity.identities"] += len(identities)


def _report_cells(c, args, report):
    c["evaluation.cells"] += len(report.cells)


def _one_cell(c, args, cell):
    c["evaluation.cells"] += 1


def _two_reports(c, args, reports):
    c["evaluation.cells"] += sum(len(r.cells) for r in reports)


# (module the caller looks the function up in, attribute, span name, count hook)
SPANS = (
    ("paydev.cli", "parse_git_log", "ingest.parse_git_log", _commits),
    ("paydev.cli", "write_canonical", "ingest.write_canonical", None),
    ("paydev.cli", "read_canonical", "ingest.read_canonical", None),
    ("paydev.cli", "read_identity_map", "cli.read_identity_map", None),
    ("paydev.cli", "write_identity_map", "cli.write_identity_map", None),
    ("paydev.identity", "merge_identities", "identity.merge_identities", _identities),
    ("paydev.features", "compute_features", "features.compute_features", None),
    ("paydev.features", "developer_features", "features.developer_features", None),
    ("paydev.features", "commit_features", "features.commit_features", None),
    ("paydev.features", "write_features_csv", "features.write_features_csv", None),
    ("paydev.features", "read_features_csv", "features.read_features_csv", None),
    ("paydev.labels", "load_labels", "labels.load_labels", None),
    ("paydev.labels", "resolve_status", "labels.resolve_status", None),
    ("paydev.labels", "commit_labels", "labels.commit_labels", None),
    ("paydev.evaluation", "stratified_kfold", "evaluation.stratified_kfold", None),
    ("paydev.evaluation", "cross_validate", "evaluation.cross_validate", _report_cells),
    ("paydev.evaluation", "baseline_cell", "evaluation.baseline_cell", _one_cell),
    ("paydev.evaluation", "per_commit_experiment", "evaluation.per_commit_experiment",
     _two_reports),
    ("paydev.ml", "fit_logit", "ml.fit_logit", None),
    ("paydev.ml", "fit_tree", "ml.fit_tree", _tree),
    ("paydev.ml", "fit_forest", "ml.fit_forest", _forest),
    ("paydev.ml", "predict_proba", "ml.predict_proba", None),
    ("paydev.ml", "predict_forest", "ml.predict_forest", _row_trees),
    ("paydev.ml", "save_model", "ml.save_model", _model_bytes),
    ("paydev.ml", "load_model", "ml.load_model", None),
    ("paydev.ml", "introspect", "ml.introspect", None),
    ("paydev.ml.kernels", "best_split", "ml.kernels.best_split", _kernel_rows),
)
TO_LOCAL_CALLERS = ("paydev.features", "paydev.labels", "paydev.evaluation")
ROOT = "cli"  # one root span per `paydev.cli.main` call
COUNTS = (
    "ml.kernels.best_split.rows",
    "ml.fit_forest.trees",
    "ml.forest.nodes",
    "ml.tree.nodes",
    "ml.predict_forest.row_trees",
    "ml.save_model.bytes",
    "ingest.commits",
    "ingest.to_local.calls",
    "identity.identities",
    "evaluation.cells",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"trace.wall_s": "s", "trace.overhead_s": "s", "cli.self.s": "s",
             "ml.forest.grow_self.s": "s"}
    for _, _, name, _ in SPANS:
        units.update({f"{name}.s": "s", f"{name}.self.s": "s", f"{name}.calls": "count"})
    units.update({name: "bytes" if name.endswith("bytes") else "count" for name in COUNTS})
    return units


class Tracer:
    """Spans and counts of one traced chain."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[list] = []  # [name, start, end, parent index, run]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts, run = self.spans, self._open, self.counts, self.run

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, run])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
            counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced function; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in SPANS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
            for module_name in TO_LOCAL_CALLERS:
                module = importlib.import_module(module_name)
                saved.append((module, "to_local", module.to_local))
                setattr(module, "to_local", self._counter("ingest.to_local.calls", module.to_local))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Inclusive and self time per span name, calls and counts.

        A span's self time is its duration minus that of its direct
        children, so the self times of all spans add up to the root spans'
        total, which is the traced wall time.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.s"] += end - start
            out[f"{name}.self.s"] += end - start - inner
        out.update(self.counts)
        out["trace.wall_s"] = out.pop(f"{ROOT}.s", 0.0)
        out.pop(f"{ROOT}.calls", None)
        out["ml.forest.grow_self.s"] = out.get("ml.fit_forest.self.s", 0.0)
        self_total = sum(v for k, v in out.items() if k.endswith(".self.s"))
        out["self_sum_error_s"] = self_total - out["trace.wall_s"]
        return out

    def dump(self, fileobj) -> None:
        keys = ("name", "start", "end", "parent", "run")
        for span in self.spans:
            fileobj.write(json.dumps(dict(zip(keys, span))) + "\n")
