"""One benchmark child process: a fresh interpreter per set-up or per command.

    child.py setup <workload> <scale> <seed> <workdir>
        Import riccigraph, write the seeded input (curvature workloads), then
        load it the way the command does: parse the edge file, or parse the
        arguments and build the experiment config.  The parent times the
        whole process.

    child.py run <workload> <scale> <seed> <workdir> <out> <trace>
        Run one command through riccigraph.cli.main with stdout captured,
        write the captured output to <out> and print one JSON line:
        {"rc", "wall_s", "peak_rss_mb", "spans"}.  Only cli.main is timed.

The parent puts the repository's src/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

from workloads import WORKLOADS, cli_argv, edge_path, make_graph


def setup(workload, scale: str, seed: int, workdir: str) -> None:
    from riccigraph import cli
    from riccigraph.graph import parse_edge_list, write_edge_list
    from riccigraph.randgraph import ExperimentConfig, canonical_regime_params

    if workload.kind == "curvature":
        path = edge_path(workdir, workload)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(make_graph(workload, scale, seed)))
        with open(path, encoding="utf-8") as fh:
            parse_edge_list(fh.read())
    else:
        args = cli.build_parser().parse_args(cli_argv(workload, scale, seed, workdir))
        n, p = canonical_regime_params(args.model, args.regime)
        ExperimentConfig(model=args.model, n=n, p=p, replicates=args.replicates,
                         seed=args.seed, regime=args.regime, workers=args.workers)


def run(workload, scale: str, seed: int, workdir: str, out: str, trace: bool) -> None:
    from riccigraph import cli

    os.environ.update(workload.env)
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    argv = cli_argv(workload, scale, seed, workdir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "spans": tracer.stats if tracer else None,
    }))


def main(argv: list[str]) -> int:
    mode, name, scale, seed, workdir = argv[:5]
    workload = WORKLOADS[name]
    if mode == "setup":
        setup(workload, scale, int(seed), workdir)
    else:
        out, trace = argv[5:7]
        run(workload, scale, int(seed), workdir, out, trace == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
