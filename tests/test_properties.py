"""Property tests on small random graphs: the routes agree and kappa is a graph invariant."""

import contextlib
import io
import os
import random
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccigraph import (
    Graph,
    NeighborPartition,
    core_neighborhood,
    curvature_bounds,
    generate_family,
    matching_lower_bound,
    neighbor_partition,
    parse_edge_list,
    result_to_dict,
    ricci_auto,
    ricci_formula,
    ricci_lp,
    two_matching_lower_bound,
    w1_dual_oracle,
    write_edge_list,
)
from riccigraph import cli
from riccigraph.graph import _mask_partition, _set_partition
from riccigraph.transport import _distance_matrix
from riccigraph.curvature import (
    _bipartite_from_partition,
    _girth5_from_partition,
    _girth6_from_partition,
)
from conftest import (
    ball_bound_reference,
    bfs_distance_capped,
    bipartite_kappa_reference,
    girth5_kappa_reference,
    girth6_kappa_reference,
    local_distance_bfs,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, nmax=9):
    """A graph on 2..nmax vertices with at least one edge."""
    n = draw(st.integers(min_value=2, max_value=nmax))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, chosen) if keep] or [pairs[0]]
    return Graph(n, edges)


@st.composite
def phi_graphs(draw, nmax=9):
    """Drawn edges over a triangle next to P, beside a second, separate drawn piece.

    The edges (0, 1), (0, 2), (1, 2) and (2, 3) make 2 a common neighbour of
    (0, 1) and put 3 in P(0, 1) through the phi edge (2, 3) alone; with no
    other edge at 3, the phi-free core cuts 3 off and its entries read 4.
    """
    n = draw(st.integers(min_value=4, max_value=nmax))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    other = draw(graphs(nmax=5))
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    edges += [pair for pair, keep in zip(pairs, chosen) if keep]
    edges += [(u + n, v + n) for u, v in other.edges()]
    return Graph(n + other.vertex_count, edges)


@st.composite
def formula_graphs(draw, nmax=12):
    """A bipartite graph or a graph of girth at least five, so every edge has a closed form."""
    n = draw(st.integers(min_value=3, max_value=nmax))
    pairs = draw(st.permutations([(i, j) for i in range(n) for j in range(i + 1, n)]))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(n, [(u, v) for (u, v), k in zip(pairs, keep) if k and (u + v) % 2])
    edges = []
    for u, v in pairs:
        # adding (u, v) closes a cycle of length dist(u, v) + 1, so keep it at 5 or more
        if v not in bfs_distance_capped(Graph(n, edges), u, 3):
            edges.append((u, v))
    return Graph(n, edges)


@st.composite
def edge_arrays(draw, nmax=12):
    """(n, us, vs) on 0..nmax vertices, with isolated vertices and repeated edges.

    The arc u -> u + d (mod n) gives both orientations of an edge across draws.
    """
    n = draw(st.integers(min_value=0, max_value=nmax))
    if n < 2:
        return n, [], []
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=4 * n))
    return n, [u for u, _ in arcs], [(u + d) % n for u, d in arcs]


def _matrix_from_edges(g):
    a = np.zeros((g.vertex_count, g.vertex_count), dtype=bool)
    for u, v in g.edges():
        a[u, v] = a[v, u] = True
    return a


@PROPERTY
@given(edge_arrays())
@example((0, [], []))
@example((1, [], []))
@example((3, [0, 1, 1, 2, 0], [1, 0, 2, 1, 1]))
def test_from_arrays_matches_constructor(case):
    # Both constructors share one builder, so each is checked against a
    # reference built here from the raw pairs.
    n, us, vs = case
    nbrs = [set() for _ in range(n)]
    for u, v in zip(us, vs):
        nbrs[u].add(v)
        nbrs[v].add(u)
    fast = Graph.from_arrays(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))
    slow = Graph(n, zip(us, vs))
    tuples = tuple(tuple(sorted(s)) for s in nbrs)
    masks = [sum(1 << w for w in s) for s in nbrs]
    assert slow.neighbor_masks() == masks  # from its own scatter
    # built all at once, before any single tuple is read
    assert Graph(n, zip(us, vs))._neighbor_tuples() == tuples
    for g in (fast, slow):
        assert g.edge_count == sum(map(len, nbrs)) // 2
        assert g.degrees() == tuple(map(len, nbrs))
        assert tuple(g.neighbors(v) for v in range(n)) == tuples  # one at a time
        assert g._neighbor_tuples() == tuples
        assert np.array_equal(g.adjacency_matrix(), _matrix_from_edges(g))
        assert g.neighbor_masks() == masks  # fast: from the cached dense matrix


def _partition_by_distances(g, x, y):
    # The definition, one capped BFS per vertex: a z in N(x) - delta - {y}
    # is classed by its distance to N(y) - {x} (1 or 2; farther is dropped),
    # and P by the radius-2 maps.
    def split(own, far):
        targets = set(g.neighbors(far)) - {own}
        parts = {1: [], 2: [], 3: []}
        for z in g.neighbors(own):
            if z != far and z not in g.neighbors(far):
                dist = bfs_distance_capped(g, z, 2)
                parts[min((dist.get(t, 3) for t in targets), default=3)].append(z)
        return tuple(parts[1]), tuple(parts[2])

    dist_x, dist_y = bfs_distance_capped(g, x, 2), bfs_distance_capped(g, y, 2)
    return NeighborPartition(
        x, y, tuple(z for z in g.neighbors(x) if z in g.neighbors(y)),
        *split(x, y), *split(y, x),
        tuple(sorted(v for v, d in dist_x.items() if d == 2 and dist_y.get(v) == 2)),
    )


@PROPERTY
@given(graphs())
def test_neighbor_partition_matches_distances(g):
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            assert neighbor_partition(g, x, y) == _partition_by_distances(g, x, y)


@PROPERTY
@given(st.one_of(graphs(), formula_graphs()))
@example(generate_family("complete", [4]))  # delta
@example(generate_family("cycle", [5]))  # N2 and P
@example(generate_family("petersen", []))
@example(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))  # the pendant edge (2, 3)
@example(generate_family("complete_bipartite", [2, 3]))
def test_mask_partition_equals_set_partition(g):
    # the set path is the one kept above _DENSE_LIMIT
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            assert _mask_partition(g, x, y) == _set_partition(g, x, y)


@PROPERTY
@given(phi_graphs())
@example(Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (5, 6)]))
def test_local_distance_matches_bfs(g):
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            assert _distance_matrix(core.local_distance()) == local_distance_bfs(core)


@PROPERTY
@given(phi_graphs(), st.data())
def test_core_pairs_match_distances(g, data):
    # pairs(left, right, r) lists, for each left vertex, exactly the right
    # vertices at core distance <= r, ascending whatever the order of right
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            dist, idx = _distance_matrix(core.local_distance()), core.index
            subsets = st.lists(st.sampled_from(core.vertices), unique=True)
            left, right = data.draw(subsets), data.draw(subsets)
            for r in (1, 2, 3):
                near = core.pairs(left, right, r)
                assert list(near) == left
                for a in left:
                    assert near[a] == sorted(b for b in right if dist[idx[a]][idx[b]] <= r)


@PROPERTY
@given(graphs())
def test_edge_list_round_trip(g):
    assert list(parse_edge_list(write_edge_list(g)).edges()) == list(g.edges())


@PROPERTY
@given(graphs())
def test_lp_equals_dual_oracle(g):
    for u, v in g.edges():
        value, _ = w1_dual_oracle(core_neighborhood(g, u, v), cap=g.vertex_count)
        assert ricci_lp(g, u, v).kappa == 1 - value


@PROPERTY
@given(graphs())
def test_kappa_symmetric(g):
    for u, v in g.edges():
        assert ricci_lp(g, u, v).kappa == ricci_lp(g, v, u).kappa


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_kappa_invariant_under_relabelling(g, rnd: random.Random):
    label = list(range(g.vertex_count))
    rnd.shuffle(label)
    h = Graph(g.vertex_count, [(label[u], label[v]) for u, v in g.edges()])
    for u, v in g.edges():
        assert ricci_lp(h, label[u], label[v]).kappa == ricci_lp(g, u, v).kappa


@PROPERTY
@given(formula_graphs())
def test_formula_equals_lp_where_it_applies(g):
    for u, v in g.edges():
        assert ricci_formula(g, u, v).kappa == ricci_lp(g, u, v).kappa


@PROPERTY
@given(formula_graphs())
def test_girth6_closed_form_equals_fraction_chain(g):
    # the form reads only the two degrees, so every edge's degree pair checks it
    for u, v in g.edges():
        core = core_neighborhood(g, u, v)
        got = _girth6_from_partition(core).kappa
        assert got == girth6_kappa_reference(core.d_x, core.d_y)


@PROPERTY
@given(formula_graphs())
def test_cut_closed_forms_equal_fraction_chains(g):
    # the integer forms read the cut from one side, so check both orientations
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            if g.is_bipartite():
                assert _bipartite_from_partition(core).kappa == bipartite_kappa_reference(core)
            if g.has_girth_5():
                got = _girth5_from_partition(core)
                want = girth5_kappa_reference(core)
                assert (got.kappa, got.detail.kappa0, got.detail.kappa1) == want


@PROPERTY
@given(graphs())
def test_bounds_sandwich_lp(g):
    for u, v in g.edges():
        kappa = ricci_lp(g, u, v).kappa
        for bp in curvature_bounds(g, u, v):
            assert bp.lower <= kappa <= bp.upper, (u, v, bp.source)


@PROPERTY
@given(st.one_of(graphs(), formula_graphs()))
@example(Graph(2, [(0, 1)]))  # K_2: Q(x) = {y}, R(x) empty
@example(Graph(3, [(0, 1), (1, 2)]))  # a leaf edge, d_x = 1
@example(generate_family("complete", [4]))  # delta is not empty
@example(generate_family("cycle", [4]))  # |M'| + 2 = 3 exceeds both sides of 2
def test_ball_bounds_match_the_full_instance(g):
    # matching only the partition classes that can pair, plus y and x in
    # closed form at radius 1, gives the bound the full instance gives
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            assert matching_lower_bound(g, x, y, core=core) == ball_bound_reference(g, x, y, 1)
            assert two_matching_lower_bound(g, x, y, core=core) == ball_bound_reference(
                g, x, y, 2
            )


def _bounds_csv_cell(bounds_dict):
    """The CSV bounds cell rebuilt from the JSON bounds dict, sources in sorted order."""
    parts = []
    for source in sorted(bounds_dict):
        entry = bounds_dict[source]
        parts.append(f"{source}={entry['lower']}..{entry['upper']}")
    return ";".join(parts)


def _csv_reference(g, edges):
    """`curvature --format csv` as rebuilt from result_to_dict(result, bounds)."""
    lines = ["u,v,kappa,kappa_float,method,bounds"]
    for u, v in edges:
        entry = result_to_dict(ricci_auto(g, u, v), curvature_bounds(g, u, v))
        lines.append(
            f"{u},{v},{entry['kappa']},{entry['kappa_float']},"
            f"{entry['method']},{_bounds_csv_cell(entry['bounds'])}"
        )
    return "\n".join(lines) + "\n"


def _cli_csv(g, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["curvature", "--graph", path, *argv, "--format", "csv"]) == 0
    return out.getvalue()


# The examples pin one graph per method: every Petersen edge is girth5, every
# K_{2,3} edge bipartite, every path edge tree_girth6 and every K_4 edge lp.
@PROPERTY
@given(st.one_of(graphs(), formula_graphs()), st.integers(min_value=0), st.booleans())
@example(generate_family("petersen", []), 4, False)
@example(generate_family("complete_bipartite", [2, 3]), 1, True)
@example(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1, False)
@example(generate_family("complete", [4]), 2, True)
def test_curvature_csv_rows_match_result_dicts(g, pick, flip):
    # The CLI sees the graph its edge list parses to, isolated vertices dropped.
    g = parse_edge_list(write_edge_list(g))
    edges = list(g.edges())
    assert _cli_csv(g, "--all") == _csv_reference(g, edges)
    if edges:
        u, v = edges[pick % len(edges)]
        if flip:
            u, v = v, u
        assert _cli_csv(g, "--edge", str(u), str(v)) == _csv_reference(g, [(u, v)])
