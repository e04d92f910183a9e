"""The benchmark's traced run wraps library functions by name.

``perfbench/tracing.py`` patches the bindings listed in ``TRACED`` and
``perfbench/workloads.py`` reads the library's caches through
``cache_info()``.  A rename in the library would otherwise only show up
as a failed ``perfbench/run.py --trace 1``.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_binding_resolves(perfbench):
    tracing, _ = perfbench
    for module_name, attr, name, _hook in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} (span {name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_bench_cache_reports_cache_info(perfbench):
    _, workloads = perfbench
    assert workloads.CACHES
    for name, cache in workloads.CACHES.items():
        assert callable(getattr(cache, "cache_info", None)), f"cache {name} has no cache_info"
