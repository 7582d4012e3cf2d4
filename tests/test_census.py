"""Census of the paper's claims over every graph on 1 to 7 vertices.

networkx supplies the graphs (its atlas: 1,252 graphs, 12,342 edges) and the
girth reference; it shares no code with riccigraph.  Every core here has at
most 7 vertices, so ricci_lp runs the dual oracle beside the primal solve on
every edge.
"""

import pytest

from riccigraph import (
    Graph,
    NotApplicableError,
    core_neighborhood,
    curvature_bounds,
    flatness_with_classification,
    girth,
    ricci_formula,
    ricci_lp,
)
from riccigraph import curvature

nx = pytest.importorskip("networkx")


def test_census_of_graphs_up_to_seven_vertices(monkeypatch):
    oracle_calls = []
    oracle = curvature.w1_dual_oracle

    def counted(*args, **kwargs):
        oracle_calls.append(1)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(curvature, "w1_dual_oracle", counted)
    graphs = edges = formula_edges = flat = 0
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n == 0:
            continue
        graphs += 1
        g = Graph(n, atlas_graph.edges())
        nx_girth = nx.girth(atlas_graph)
        assert girth(g) == (None if nx_girth == float("inf") else nx_girth), atlas_graph.graph
        kappas = []
        for x, y in g.edges():
            edges += 1
            core = core_neighborhood(g, x, y)
            before = len(oracle_calls)
            kappa = ricci_lp(g, x, y, core=core).kappa
            assert len(oracle_calls) == before + 1  # the oracle agreed with the primal
            kappas.append(kappa)
            try:
                closed = ricci_formula(g, x, y, core=core)
            except NotApplicableError:
                pass
            else:
                formula_edges += 1
                assert closed.kappa == kappa, (atlas_graph.graph, x, y, closed.method)
            for pair in curvature_bounds(g, x, y, core=core):
                assert pair.lower <= kappa <= pair.upper, (atlas_graph.graph, x, y, pair)
        report = flatness_with_classification(g)
        assert report.is_flat == all(k == 0 for k in kappas), atlas_graph.graph
        flat += report.is_flat and bool(kappas)
    assert (graphs, edges) == (1252, 12342)
    assert formula_edges == 1576
    assert flat == 110  # graphs with at least one edge
