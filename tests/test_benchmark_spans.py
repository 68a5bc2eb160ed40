"""Every span that the benchmark's traced runs report (``perfbench/tracing.py``)
names a function of the package, so a refactor that removes or renames a
traced function fails here rather than only in ``perfbench/smoke.py``."""

import importlib
import importlib.util
import inspect
import os

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _spans():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span", _spans())
def test_span_names_a_package_function(span):
    module, func = span.split(".", 1)
    fn = getattr(importlib.import_module(f"mtfact.{module}"), func, None)
    assert inspect.isfunction(fn) and fn.__module__.startswith("mtfact."), span
