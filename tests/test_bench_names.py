"""Every function the benchmark instruments exists in the package.

The benchmark in ``perfbench/`` wraps package functions by their
"<module>.<function>" names. A deleted or renamed function would only
fail a traced benchmark run; this test reads those names and resolves
each one against ``tensordg`` instead. It loads the benchmark modules
from their files and changes nothing there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


def resolve(qualname):
    module, attr = qualname.split(".")
    return getattr(importlib.import_module(f"tensordg.{module}"), attr, None)


def probe_names():
    names = set()
    for cls in workloads.WORKLOADS.values():
        names.update(cls(0, "unused").probes)   # __init__ writes nothing
    return sorted(names)


@pytest.mark.parametrize("qualname", sorted(
    set(spans.TRACED) | set(spans.HISTORY_SOLVERS)
    | set(spans.PATH_FUNCTIONS) | set(probe_names())))
def test_instrumented_name_resolves(qualname):
    assert callable(resolve(qualname)), f"tensordg.{qualname} is gone"


@pytest.mark.parametrize("qualname", spans.HISTORY_SOLVERS)
def test_history_solvers_take_history(qualname):
    assert "history" in inspect.signature(resolve(qualname)).parameters
