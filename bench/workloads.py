"""Workload definitions shared by run.py and its child processes.

Each workload is one `riccigraph` CLI command.  Its input is made from the
benchmark seed during set-up; the program sees only the generated edge file
or the command-line arguments.  `scale` selects the measured sizes ("full")
or the small sizes the self-test uses ("tiny").
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "curvature" (items are edges) or "experiment" (items are replicates)
    fmt: str  # CLI --format; decides how the results payload is read
    full: dict
    tiny: dict
    why: str
    env: tuple = ()  # (name, value) pairs set for the measured command


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cube_all",
            kind="curvature",
            fmt="json",
            full={"family": "hypercube", "d": 7},
            tiny={"family": "hypercube", "d": 3},
            why="per-edge global scans and the bipartite closed form; no transport solve",
        ),
        Workload(
            name="sparse_gnp_all",
            kind="curvature",
            fmt="csv",
            full={"family": "gnp", "n": 800, "m": 2400},
            tiny={"family": "gnp", "n": 60, "m": 177},
            why="many tiny LP instances: dual oracle, small solves, partitions, bounds",
            env=(("RICCI_ORACLE_CAP", "12"),),
        ),
        Workload(
            name="gnp_f_experiment",
            kind="experiment",
            fmt="csv",
            full={"model": "gnp", "regime": "f", "replicates": 10},
            tiny={"model": "gnp", "regime": "f", "replicates": 2},
            why="few 200x200 transport solves, dense cost matrices, plan materialization",
        ),
        Workload(
            name="bipartite_d_experiment",
            kind="experiment",
            fmt="csv",
            full={"model": "bipartite", "regime": "d", "replicates": 2},
            tiny={"model": "bipartite", "regime": "d", "replicates": 2},
            why="sampler and Graph.from_arrays dominate; one closed-form edge per new graph",
        ),
    )
}


def params(workload: Workload, scale: str) -> dict:
    return workload.full if scale == "full" else workload.tiny


def edge_path(workdir: str, workload: Workload) -> str:
    return os.path.join(workdir, f"{workload.name}.edges")


def cli_argv(workload: Workload, scale: str, seed: int, workdir: str) -> list[str]:
    """The command the measured child passes to riccigraph.cli.main."""
    if workload.kind == "curvature":
        return ["curvature", "--graph", edge_path(workdir, workload), "--all",
                "--format", workload.fmt]
    p = params(workload, scale)
    return ["experiment", "--model", p["model"], "--regime", p["regime"],
            "--replicates", str(p["replicates"]), "--seed", str(seed),
            "--workers", "1", "--format", workload.fmt]


def make_graph(workload: Workload, scale: str, seed: int):
    """The seeded input graph of a curvature workload.

    The hypercube's vertex ids are shuffled by the seed, so every seed gives a
    different edge file with the same structure.

    The sparse graph is G(n, m): m edges drawn uniformly from a denser
    `sample_gnp` graph.  A fixed edge count keeps the amount of work the same
    for every seed; under G(n, p) the count alone varied by 9% between seeds.
    The graph is then relabelled so that its first triangle takes ids 0, 1, 2.
    The per-edge global scans (`girth_at_least`, `two_coloring`) stop at the
    first triangle or odd cycle in id order; left where the sampler puts it,
    that position alone moved the command's wall time by 30% between seeds.
    """
    from riccigraph.graph import Graph, generate_family
    from riccigraph.randgraph import sample_gnp

    p = params(workload, scale)
    if p["family"] == "hypercube":
        g = generate_family("hypercube", [p["d"]])
        order = list(range(g.vertex_count))
        random.Random(seed).shuffle(order)
    else:
        n, m = p["n"], p["m"]
        denser = sample_gnp(n, 1.25 * m / (n * (n - 1) // 2), seed, (0, 1))
        g = Graph(n, random.Random(seed).sample(list(denser.edges()), m))
        triangle = next(
            (u, v, w)
            for u, v in g.edges()
            for w in sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
        )
        order = list(triangle) + [v for v in range(g.vertex_count) if v not in triangle]
    label = {v: i for i, v in enumerate(order)}
    return Graph(g.vertex_count, [(label[u], label[v]) for u, v in g.edges()])
