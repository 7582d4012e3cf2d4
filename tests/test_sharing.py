"""One core per edge, one scan of each global graph fact per graph, one
minimum cut per closed-form edge, and matchings only where the partition
leaves both sides something to pair.

The counters rebind every riccigraph name that refers to a counted function,
the way bench/tracing.py records its spans, so calls made through a
`from .graph import ...` binding are seen too.  `Graph.degrees`, a method,
is counted on the class.
"""

import json
import sys

import numpy as np
import pytest

from riccigraph import (
    Graph,
    cli,
    curvature_all,
    curvature_bounds,
    generate_family,
    parse_edge_list,
    result_to_dict,
    ricci_auto,
    write_edge_list,
)
from riccigraph import curvature, matching
from riccigraph import graph as graph_module
from conftest import disjoint_union, dodecahedron

COUNTED = ("neighbor_partition", "core_neighborhood", "two_coloring", "girth_at_least")


def _gnm(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)])


GRAPHS = {
    "Q4": lambda: generate_family("hypercube", [4]),
    "Petersen": lambda: generate_family("petersen", []),
    "G(60,177)": lambda: _gnm(60, 177, seed=11),
}


def _rebind(monkeypatch, original, counted):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "riccigraph" or mod_name.startswith("riccigraph."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


def _count_calls(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(graph_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    degrees = Graph.degrees
    counts["degrees"] = 0

    def counted_degrees(self):
        counts["degrees"] += 1
        return degrees(self)

    monkeypatch.setattr(Graph, "degrees", counted_degrees)
    return counts


def _assert_shared(counts, edges):
    assert counts["neighbor_partition"] == edges
    assert counts["core_neighborhood"] == edges
    assert counts["two_coloring"] <= 1
    assert counts["girth_at_least"] <= 1
    assert counts["degrees"] <= 1


@pytest.mark.parametrize("label", sorted(GRAPHS))
def test_curvature_all_builds_one_core_per_edge(label, monkeypatch):
    g = GRAPHS[label]()
    with monkeypatch.context() as patch:
        counts = _count_calls(patch)
        results = curvature_all(g, verify=True)
    _assert_shared(counts, g.edge_count)
    fresh = GRAPHS[label]()
    for result, (u, v) in zip(results, fresh.edges(), strict=True):
        expected = ricci_auto(fresh, u, v)
        assert (result.edge, result.kappa, result.method) == (
            expected.edge, expected.kappa, expected.method
        )


@pytest.mark.parametrize("label", sorted(GRAPHS))
def test_cli_curvature_all_builds_one_core_per_edge(label, monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(GRAPHS[label]()))
    with monkeypatch.context() as patch:
        counts = _count_calls(patch)
        rc = cli.main(["curvature", "--graph", str(path), "--all"])
    out = capsys.readouterr().out
    assert rc == 0
    fresh = parse_edge_list(path.read_text())
    _assert_shared(counts, fresh.edge_count)
    expected = [
        result_to_dict(ricci_auto(fresh, u, v), curvature_bounds(fresh, u, v))
        for u, v in fresh.edges()
    ]
    assert json.loads(out)["results"] == json.loads(json.dumps(expected))


FORMULA_GRAPHS = {
    "Q4": lambda: generate_family("hypercube", [4]),
    "dodecahedron": dodecahedron,
}


@pytest.mark.parametrize("label", sorted(FORMULA_GRAPHS))
def test_curvature_all_runs_one_cut_per_formula_edge(label, monkeypatch):
    # the bipartite and girth-5 sums over components are a single min cut
    g = FORMULA_GRAPHS[label]()
    calls = []
    original = curvature._max_flow

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvature, "_max_flow", counted)
    methods = [r.method for r in curvature_all(g)]
    assert set(methods) <= {"bipartite", "girth5"}
    assert len(calls) == len(methods) == g.edge_count


@pytest.mark.parametrize(
    "label, build",
    [
        ("Petersen", lambda: generate_family("petersen", [])),
        ("disjoint", lambda: disjoint_union(dodecahedron(), generate_family("cycle", [4]))),
    ],
)
def test_flat_scans_components_once(label, build, monkeypatch, tmp_path, capsys):
    # flatness_with_classification, classify_girth5_flat and is_ricci_flat
    # all ask for the components; the graph scans them once
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(build()))
    calls = []
    original = graph_module.components_within

    def counted(g, vertices):
        calls.append(g.vertex_count)
        return original(g, vertices)

    monkeypatch.setattr(graph_module, "components_within", counted)
    assert cli.main(["flat", "--graph", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "label, build",
    [("G(60,177)", GRAPHS["G(60,177)"]), ("path", lambda: generate_family("path", [12]))],
)
def test_matching_bounds_skip_instances_with_an_empty_side(
    label, build, monkeypatch, tmp_path, capsys
):
    # The matching bound matches N1(x) against N1(y), the 2-matching N1 | N2
    # against N1 | N2; an empty side runs no matcher and builds no balls.
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(build()))
    fresh = parse_edge_list(path.read_text())
    expected = 0
    for u, v in fresh.edges():
        part = graph_module.neighbor_partition(fresh, u, v)
        expected += bool(part.n1_x and part.n1_y)
        expected += bool((part.n1_x + part.n2_x) and (part.n1_y + part.n2_y))
    matchings, balls = [], []
    original = matching.max_matching

    def counted(inst):
        matchings.append(inst)
        return original(inst)

    local_distance = graph_module.CoreNeighborhood.local_distance

    def counted_balls(core):
        if core._balls is None:
            balls.append(tuple(sorted((core.x, core.y))))
        return local_distance(core)

    with monkeypatch.context() as patch:
        _rebind(patch, original, counted)
        patch.setattr(graph_module.CoreNeighborhood, "local_distance", counted_balls)
        assert cli.main(["curvature", "--graph", str(path), "--all"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(matchings) == expected
    tree_edges = {tuple(sorted(r["edge"])) for r in results if r["method"] == "tree_girth6"}
    assert tree_edges and not tree_edges & set(balls)
