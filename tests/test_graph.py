import random

import pytest

from riccigraph import (
    Graph,
    GraphInputError,
    connected_components,
    core_neighborhood,
    generate_family,
    girth,
    girth_at_least,
    neighbor_partition,
    parse_edge_list,
    two_coloring,
    write_edge_list,
)
from riccigraph.graph import components_within
from riccigraph.transport import _distance_matrix
from riccigraph.randgraph import sample_gnp
from conftest import (
    bfs_distance_capped,
    cycle_graph,
    local_distance_bfs,
    path_graph,
    random_tree,
    star_graph,
)


def test_basic_accessors():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 1)])
    assert g.vertex_count == 5
    assert g.edge_count == 4
    assert g.neighbors(1) == (0, 2, 3)
    assert g.degree(4) == 0
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 3)
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3)]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_self_loop_rejected():
    with pytest.raises(GraphInputError, match=r"^self-loop at vertex 1$"):
        Graph(3, [(0, 2), (1, 1)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(GraphInputError, match=r"^edge \(0, 2\) outside vertex range 0\.\.1$"):
        Graph(2, [(0, 1), (0, 2)])


def test_adjacency_matrix_symmetric():
    g = generate_family("petersen", [])
    a = g.adjacency_matrix()
    assert (a == a.T).all()
    assert a.sum() == 2 * g.edge_count


def test_parse_write_round_trip():
    g = generate_family("hypercube", [3])
    text = write_edge_list(g)
    h = parse_edge_list(text)
    assert h.vertex_count == g.vertex_count
    assert list(h.edges()) == list(g.edges())


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1\n  \n1 2\n")
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_errors():
    with pytest.raises(GraphInputError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphInputError):
        parse_edge_list("0 x\n")
    with pytest.raises(GraphInputError):
        parse_edge_list("-1 0\n")


def test_build_graph_vertex_count_from_ids():
    g = parse_edge_list("0 7\n")
    assert g.vertex_count == 8


def test_bfs_distance_capped():
    g = path_graph(10)
    d = bfs_distance_capped(g, 0, 3)
    assert d == {0: 0, 1: 1, 2: 2, 3: 3}
    full = bfs_distance_capped(g, 0, 100)
    assert full[9] == 9


def test_girth_named():
    assert girth(generate_family("complete", [4])) == 3
    assert girth(cycle_graph(7)) == 7
    assert girth(generate_family("hypercube", [3])) == 4
    assert girth(generate_family("petersen", [])) == 5
    assert girth(path_graph(6)) is None
    assert girth(star_graph(5)) is None


def test_girth_at_least_matches_girth():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 12)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = Graph(n, edges)
        gg = girth(g)
        for k in (3, 4, 5, 6):
            expect = gg is None or gg >= k
            assert girth_at_least(g, k) == expect


def test_two_coloring_bipartite():
    g = generate_family("complete_bipartite", [3, 4])
    colors, odd = two_coloring(g)
    assert odd is None
    for u, v in g.edges():
        assert colors[u] != colors[v]


def test_two_coloring_odd_cycle_witness():
    g = cycle_graph(9)
    colors, cyc = two_coloring(g)
    assert colors is None
    assert len(cyc) % 2 == 1
    for a, b in zip(cyc, cyc[1:]):
        assert g.has_edge(a, b)
    assert g.has_edge(cyc[0], cyc[-1])


def test_connected_components_ordering():
    g = Graph(7, [(2, 3), (5, 6), (0, 1)])
    comps = connected_components(g)
    assert comps == [(0, 1), (2, 3), (4,), (5, 6)]


def test_components_within_induced_subgraph():
    g = cycle_graph(8)
    assert components_within(g, [6, 0, 1, 7, 3, 4]) == [(0, 1, 6, 7), (3, 4)]
    assert components_within(g, []) == []


def test_global_facts_cached_on_graph():
    import numpy as np

    cube = generate_family("hypercube", [3])
    arrays = Graph.from_arrays(10, np.array([0, 1, 2, 3, 4]), np.array([1, 2, 3, 4, 0]))
    for g, bipartite, girth5 in (
        (cube, True, False),
        (generate_family("petersen", []), False, True),
        (arrays, False, True),
        (generate_family("complete", [4]), False, False),
    ):
        for _ in range(2):
            assert g.is_bipartite() is bipartite
            assert g.has_girth_5() is girth5
    colors, _ = two_coloring(cube)
    colors[0] = 7
    assert two_coloring(cube)[0][0] == 0


def test_neighbor_partition_cycle4():
    g = cycle_graph(4)
    part = neighbor_partition(g, 0, 1)
    assert part.delta == ()
    assert part.n1_x == (3,)
    assert part.n1_y == (2,)
    assert not part.n2_x and not part.n2_y and not part.p_xy


def test_neighbor_partition_cycle5():
    g = cycle_graph(5)
    part = neighbor_partition(g, 0, 1)
    assert part.delta == () and not part.n1_x and not part.n1_y
    assert part.n2_x == (4,)
    assert part.n2_y == (2,)
    assert part.p_xy == (3,)


def test_neighbor_partition_tree_all_empty():
    g = random_tree(random.Random(3), 15)
    for u, v in g.edges():
        part = neighbor_partition(g, u, v)
        assert part.all_empty()


def test_neighbor_partition_complete():
    g = generate_family("complete", [5])
    part = neighbor_partition(g, 0, 1)
    assert part.delta == (2, 3, 4)


def test_partition_rejects_non_edge():
    from riccigraph import NotAnEdgeError

    g = cycle_graph(5)
    with pytest.raises(NotAnEdgeError):
        neighbor_partition(g, 0, 2)


def test_core_neighborhood_petersen():
    g = generate_family("petersen", [])
    core = core_neighborhood(g, 0, 1)
    assert core.d_x == 3 and core.d_y == 3
    assert core.rows == tuple(sorted(g.neighbors(0)))
    assert core.cols == tuple(sorted(g.neighbors(1)))
    dist = _distance_matrix(core.local_distance())
    nv = len(core.vertices)
    for i in range(nv):
        assert dist[i][i] == 0
        for j in range(nv):
            assert dist[i][j] == dist[j][i]
            assert 0 <= dist[i][j] <= 4


def test_core_removes_triangle_to_pentagon_edges():
    # Delta-P edges are dropped inside the core, so a common neighbor sits at
    # local distance 2 from a P vertex it is adjacent to in the full graph.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (3, 5), (4, 5), (2, 5)])
    part = neighbor_partition(g, 0, 1)
    assert 2 in part.delta
    assert 5 in part.p_xy
    assert g.has_edge(2, 5)
    core = core_neighborhood(g, 0, 1)
    idx = core.index
    assert _distance_matrix(core.local_distance())[idx[2]][idx[5]] >= 2


@pytest.mark.parametrize("n, p, count", [(400, 0.05, 4), (400, 0.5, 1)])
def test_local_distance_matches_bfs_on_wide_cores(n, p, count):
    # Cores of about 186 and 400 vertices, so every ball spans several
    # machine words; G(400, 0.5) also has delta, P and phi edges.
    g = sample_gnp(n, p, 7, (0, 1))
    for u, v in list(g.edges())[:count]:
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            assert len(core.vertices) > 128
            assert _distance_matrix(core.local_distance()) == local_distance_bfs(core)


@pytest.mark.parametrize(
    "g, count",
    [
        (generate_family("hypercube", [6]), None),
        (generate_family("petersen", []), None),
        (generate_family("complete", [7]), None),
        (generate_family("complete_bipartite", [3, 4]), None),
        (sample_gnp(40, 0.1, 1, (0, 1)), None),
        (sample_gnp(60, 0.2, 2, (0, 1)), None),
        (sample_gnp(80, 0.12, 7, (0, 1)), None),
        # rows x cols >= 2500, so the cost matrix is an ndarray
        (sample_gnp(150, 0.5, 3, (0, 1)), 6),
    ],
    ids=["Q6", "Petersen", "K7", "K3,4", "gnp40", "gnp60", "gnp80", "gnp150"],
)
def test_core_distance_at_most_two_iff_cost_at_most_two(g, count):
    # The 2-matching bound pairs R(x) x R(y) at core distance <= 2.  The
    # transport cost matrix answers the same question: the middle vertex of
    # such a path is never x or y and lies on no phi edge.
    for u, v in list(g.edges())[:count]:
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            dist, idx = _distance_matrix(core.local_distance()), core.index
            costs = core.transport_costs()
            costs = costs.tolist() if hasattr(costs, "tolist") else costs
            skip = {x, y, *core.partition.delta}
            for i, a in enumerate(core.rows):
                for j, b in enumerate(core.cols):
                    if a not in skip and b not in skip:
                        assert (dist[idx[a]][idx[b]] <= 2) == (costs[i][j] <= 2), (x, y, a, b)


@pytest.mark.parametrize("n, p, rows", [(150, 0.6, None), (400, 0.8, 5)])
def test_dense_transport_costs_match_bfs(n, p, rows):
    # Both cores take the numpy branch (rows x cols >= 2500).  In G(400, 0.8)
    # two vertices share about 256 neighbours, where a uint8 count wraps to 0.
    g = sample_gnp(n, p, 7, (0, 1))
    core = core_neighborhood(g, 0, 1)
    assert len(core.rows) * len(core.cols) >= 2500
    for z1, row in list(zip(core.rows, core.transport_costs()))[:rows]:
        dist = bfs_distance_capped(g, z1, 3)
        assert row.tolist() == [min(dist.get(z2, 3), 3) for z2 in core.cols]


def test_generate_family_errors():
    with pytest.raises(GraphInputError):
        generate_family("moebius", [8])
    with pytest.raises(GraphInputError):
        generate_family("cycle", [])
    with pytest.raises(GraphInputError):
        generate_family("cycle", [2])
    with pytest.raises(GraphInputError):
        generate_family("petersen", [5])
    # a negative size is the builder's error, not an edge count over the limit
    with pytest.raises(GraphInputError, match="needs both sides >= 1"):
        generate_family("complete_bipartite", [-100000, -100000])


def test_generate_family_limits_admit_largest_members(monkeypatch):
    # Stand-in builders record the call, so nothing of this size is built.
    from riccigraph import graph

    built = []
    for name, params in (("hypercube", [20]), ("complete", [4096]), ("path", [2**22])):
        arity, _, size = graph._FAMILIES[name]
        monkeypatch.setitem(graph._FAMILIES, name, (arity, lambda *a: built.append(a), size))
        generate_family(name, params)
    assert built == [(20,), (4096,), (2**22,)]


def test_family_shapes():
    assert generate_family("path", [1]).edge_count == 0
    q4 = generate_family("hypercube", [4])
    assert q4.vertex_count == 16 and q4.edge_count == 32
    assert set(q4.degrees()) == {4}
    p = generate_family("petersen", [])
    assert p.vertex_count == 10 and p.edge_count == 15
    assert set(p.degrees()) == {3}
    k = generate_family("complete_bipartite", [2, 5])
    assert k.edge_count == 10
    colors, _ = two_coloring(k)
    assert colors is not None


def test_from_arrays_rejects_bad_input():
    import numpy as np

    for n, us, vs in (
        (3, [0.7, 1.2], [1.9, 2.0]),
        (3, np.array([0, 1]), np.array([1.0, 2.0])),
        (3, np.array([True]), np.array([False])),
        (3, [0, 1], [1, 1]),
        (3, [0], [3]),
        (3, [-1], [2]),
        (-1, [], []),
        (2**22 + 1, [], []),
        (3, [0, 2], [1]),
        (3, np.array([[0, 1]]), np.array([[1, 2]])),
    ):
        with pytest.raises(GraphInputError):
            Graph.from_arrays(n, us, vs)
    g = Graph.from_arrays(3, np.array([2, 1, 0, 1], dtype=np.uint8), np.array([1, 2, 1, 0]))
    assert g.neighbors(1) == (0, 2) and g.edge_count == 2
    assert Graph.from_arrays(0, [], []).edge_count == 0
    assert Graph.from_arrays(1, [], []).degrees() == (0,)


def test_constructor_rejects_bad_pairs():
    for edges in ([(0, 1, 2)], [(0, 1), (2,)], [5], [(True, False)], [(0, 1.0)], [(0, None)]):
        with pytest.raises(GraphInputError):
            Graph(3, edges)
    # ids of 2**63 and more make the pairs uint64, float64 or object, yet are range errors
    for u, v in ((0, 2**63), (0, 2**64), (2**63, 2**63 + 1)):
        with pytest.raises(GraphInputError, match=rf"^edge \({u}, {v}\) outside vertex range 0\.\.2$"):
            Graph(3, [(u, v)])
    for edges, dtype in (([(0, 1.0)], "float64"), ([(0, 2**63), (0, 1.5)], "float64"),
                         ([(0, None)], "object"), ([(0, 2**64), (1, None)], "object")):
        with pytest.raises(GraphInputError, match=f"^vertex ids must be integers, got dtype {dtype}$"):
            Graph(3, edges)
    # numpy promotes a mixed int/bool pair to integers
    assert Graph(3, [(2, True)]).neighbors(1) == (2,)
