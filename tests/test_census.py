"""Census of the paper's claims over every graph on 1 to 7 vertices.

networkx supplies the graphs (its atlas: 1,252 graphs, 12,342 edges), the
girth, bipartiteness and component references and the matching sizes behind
both matching bounds; it shares no code with riccigraph.  Every core here has
at most 7 vertices, so ricci_lp runs the dual oracle beside the primal solve
on every edge.
"""

from collections import Counter

import pytest

from riccigraph import (
    Graph,
    NotApplicableError,
    connected_components,
    core_neighborhood,
    curvature_bounds,
    flatness_with_classification,
    girth,
    ricci_formula,
    ricci_lp,
)
from riccigraph import curvature

nx = pytest.importorskip("networkx")


def _nx_matching_size(left, right, paired):
    b = nx.Graph()
    b.add_nodes_from(("l", a) for a in left)
    b.add_nodes_from(("r", c) for c in right)
    b.add_edges_from((("l", a), ("r", c)) for a in left for c in right if paired(a, c))
    return len(nx.bipartite.hopcroft_karp_matching(b, top_nodes=[("l", a) for a in left])) // 2


def _check_matching_sizes(atlas_graph, dist, g, x, y, bounds):
    # |M| over Q(x) x Q(y) adjacency and over R(x) x R(y) at distance <= 2,
    # against the m each bound's lower value and its saturated note imply
    delta = set(g.neighbors(x)) & set(g.neighbors(y))
    q_x = [v for v in g.neighbors(x) if v not in delta]
    q_y = [v for v in g.neighbors(y) if v not in delta]
    r_x, r_y = [v for v in q_x if v != y], [v for v in q_y if v != x]
    t, dmax = len(delta), max(g.degree(x), g.degree(y))
    by_source = {bp.source: bp for bp in bounds}
    for source, left, right, radius in (("matching", q_x, q_y, 1), ("two_matching", r_x, r_y, 2)):
        m = _nx_matching_size(left, right, lambda a, c: dist[a].get(c, 3) <= radius)
        bp = by_source[source]
        gain = bp.lower * dmax - 3 * t + 2 * dmax
        assert (gain / 2 if radius == 1 else gain - 2) == m, (atlas_graph.graph, x, y, source)
        saturated = m == min(len(left), len(right))
        assert (bp.note == "saturated") == saturated, (atlas_graph.graph, x, y, source)


def test_census_of_graphs_up_to_seven_vertices(monkeypatch):
    oracle_calls = []
    oracle = curvature.w1_dual_oracle

    def counted(*args, **kwargs):
        oracle_calls.append(1)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(curvature, "w1_dual_oracle", counted)
    graphs = edges = formula_edges = flat = 0
    tight = Counter()  # (source, "applies" | "lower" | "upper") -> edges
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n == 0:
            continue
        graphs += 1
        g = Graph(n, atlas_graph.edges())
        nx_girth = nx.girth(atlas_graph)
        assert girth(g) == (None if nx_girth == float("inf") else nx_girth), atlas_graph.graph
        assert g.has_girth_5() == (nx_girth >= 5), atlas_graph.graph
        assert g.is_bipartite() == nx.is_bipartite(atlas_graph), atlas_graph.graph
        nx_components = sorted(tuple(sorted(c)) for c in nx.connected_components(atlas_graph))
        assert connected_components(g) == nx_components, atlas_graph.graph
        dist = dict(nx.all_pairs_shortest_path_length(atlas_graph, cutoff=2))
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
            bounds = curvature_bounds(g, x, y, core=core)
            for pair in bounds:
                assert pair.lower <= kappa <= pair.upper, (atlas_graph.graph, x, y, pair)
                tight[pair.source, "applies"] += 1
                tight[pair.source, "lower"] += pair.lower == kappa
                tight[pair.source, "upper"] += pair.upper == kappa
            _check_matching_sizes(atlas_graph, dist, g, x, y, bounds)
        report = flatness_with_classification(g)
        assert report.is_flat == all(k == 0 for k in kappas), atlas_graph.graph
        flat += report.is_flat and bool(kappas)
    assert (graphs, edges) == (1252, 12342)
    assert formula_edges == 1576
    assert flat == 110  # graphs with at least one edge
    # how often each bound is tight; the README's table reports these counts
    assert {
        source: (tight[source, "applies"], tight[source, "lower"], tight[source, "upper"])
        for source, _ in tight
    } == {
        "jost_liu": (12342, 6670, 11309),
        "matching": (12342, 3594, 11309),
        "two_matching": (12342, 1103, 11309),
        "triangle_free": (2955, 1336, 2616),
        "bipartite_upper": (783, 0, 783),
        "cho_paeng_girth5": (239, 0, 20),
    }
