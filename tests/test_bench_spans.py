"""Every span the benchmark traces must still name a function of the package.

bench/tracing.py wraps functions by module and name from outside src/, so a
rename or a deleted function would otherwise only show up as a failed
benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, qualname) for module, qualname, _, _ in tracing.SPANS]


@pytest.mark.parametrize("module,qualname", _spans())
def test_bench_span_names_a_package_function(module, qualname):
    mod = importlib.import_module(f"riccigraph.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = vars(mod).get(cls_name)
        assert inspect.isclass(owner), f"riccigraph.{module}.{cls_name} is not a class"
        assert attr in vars(owner), f"{cls_name}.{attr} is not defined on the class"
    else:
        assert inspect.isfunction(vars(mod).get(qualname)), (
            f"riccigraph.{module}.{qualname} is not a module-level function"
        )
