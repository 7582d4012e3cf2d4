"""Every span the benchmark traces must name a function of the package and be reached.

bench/tracing.py wraps functions by module and name from outside src/, so a
rename, a deleted function or a call path that no longer reaches a span
would otherwise only show up as a failed benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


SPANS = _load_spans()


@pytest.mark.parametrize("module,qualname", [(module, qualname) for module, qualname, _, _ in SPANS])
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


@pytest.mark.parametrize("workload", sorted(set().union(*(reached for _, _, reached, _ in SPANS))))
def test_bench_spans_reached_on_tiny_workload(tmp_path, workload):
    # The same two child processes bench/run.py starts: set-up, then one
    # traced command at the tiny scale and the default seed.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    common = [workload, "tiny", "7", str(tmp_path)]
    child = [sys.executable, str(ROOT / "bench" / "child.py")]
    for args in (["setup", *common], ["run", *common, str(tmp_path / "out.txt"), "1"]):
        proc = subprocess.run([*child, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["rc"] == 0
    spans = record["spans"]
    unreached = [f"{module}.{qualname}" for module, qualname, reached_by, _ in SPANS
                 if workload in reached_by and spans[f"{module}.{qualname}"]["calls"] == 0]
    assert unreached == []
