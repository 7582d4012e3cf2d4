"""Property tests on small random graphs: the routes agree and kappa is a graph invariant."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riccigraph import (
    Graph,
    bfs_distance_capped,
    core_neighborhood,
    curvature_bounds,
    ricci_formula,
    ricci_lp,
    w1_dual_oracle,
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
@given(graphs())
def test_bounds_sandwich_lp(g):
    for u, v in g.edges():
        kappa = ricci_lp(g, u, v).kappa
        for bp in curvature_bounds(g, u, v):
            assert bp.lower <= kappa <= bp.upper, (u, v, bp.source)
