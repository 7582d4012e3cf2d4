"""The benchmark's tiny workloads still produce their reference payload bytes.

bench/run.py rejects a payload whose digest at the default seed differs from
bench/reference.json.  This runs each workload's CLI command in-process at
scale "tiny", the way bench/child.py does, so a payload change shows up in
the test suite instead of only in a benchmark run.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from riccigraph import cli
from riccigraph.graph import write_edge_list

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_modules():
    # run.py imports its siblings by bare name, as when it runs as a script
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
        for name in ("workloads", "run", "tracing"):
            sys.modules.pop(name, None)


workloads, run = _bench_modules()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_payload_matches_reference(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    workdir = str(tmp_path)
    if workload.kind == "curvature":
        graph = workloads.make_graph(workload, "tiny", seed)
        Path(workloads.edge_path(workdir, workload)).write_text(write_edge_list(graph))
    for key, value in workload.env:
        monkeypatch.setenv(key, value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(workloads.cli_argv(workload, "tiny", seed, workdir))
    assert rc == 0
    reference = json.loads((BENCH / "reference.json").read_text())["tiny"][name]
    assert run.payload_rows(workload, out.getvalue())[0] == reference
