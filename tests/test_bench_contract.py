"""The names perfbench's tracer and kernel timer look up in paydev.

perfbench/tracing.py wraps functions by module attribute and counts
`to_local` calls on the modules that import it; perfbench/run.py reads the
kernel backend. A rename in paydev breaks them only at benchmark time, so
this checks the same names in the unit suite. The tracer is imported from
its file and never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
