"""The names perfbench's tracer and kernel timer look up in paydev.

perfbench/tracing.py wraps functions by module attribute and counts
`to_local` calls on the modules that import it; perfbench/run.py reads the
kernel backend. A rename in paydev breaks them only at benchmark time, so
this checks the same names in the unit suite, and that a traced run counts
every fit and report cell (a function bound before the tracer installs
would go uncounted). The tracer is imported from its file and never changed.
"""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from paydev.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_to_local_on_every_counted_module(tracing):
    for module in tracing.TO_LOCAL_CALLERS:
        assert callable(getattr(importlib.import_module(module), "to_local", None)), module


def test_kernel_names():
    from paydev.ml import kernels

    assert isinstance(kernels.BACKEND, str)
    assert callable(kernels.available_backends)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("traced")
    records, labels = d / "records.jsonl", d / "labels.csv"
    assert main(["synth", "--out", str(records), "--labels-out", str(labels), "--seed", "7",
                 "--devs", "24", "--commits-low", "30", "--commits-high", "60"]) == 0
    return d, records, labels


def _traced(tracing, corpus, command, *flags):
    """The tracer's counts and the report of one in-process run."""
    d, records, labels = corpus
    out = d / f"{command}.json"
    tracer = tracing.Tracer(0)
    with tracer.installed():
        assert main([command, str(records), "--labels", str(labels), "--min-commits", "20",
                     "--forest-trees", "5", *flags, "--out", str(out)]) == 0
    return tracer.counts, json.loads(out.read_text())


def _fits(counts):
    return [counts[f"ml.fit_{kind}.calls"] for kind in ("logit", "tree", "forest")]


def test_traced_evaluate_counts(tracing, corpus):
    counts, report = _traced(tracing, corpus, "evaluate", "--folds", "3", "--repeats", "2")
    cells = Counter(c["classifier"] for c in report["cells"])
    assert _fits(counts) == [cells["logit"], cells["rpart"], cells["randomforest"]] == [6, 6, 6]
    assert counts["evaluation.baseline_cell.calls"] == 5
    assert counts["evaluation.cells"] == len(report["cells"]) == 6 * 3 + 5


def test_traced_commits_counts(tracing, corpus):
    counts, report = _traced(tracing, corpus, "commits")
    assert _fits(counts) == [1, 1, 1]  # one fit per classifier, on the training commits
    assert counts["evaluation.baseline_cell.calls"] == 0
    assert counts["evaluation.cells"] == sum(len(r["cells"]) for r in report.values())
