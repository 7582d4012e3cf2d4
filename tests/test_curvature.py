import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from riccigraph import (
    Graph,
    NotApplicableError,
    VerificationError,
    bipartite_upper_bound,
    bounds_to_dict,
    core_neighborhood,
    curvature_all,
    curvature_bounds,
    generate_family,
    jost_liu_bounds,
    neighbor_partition,
    result_to_dict,
    ricci_auto,
    ricci_bipartite_formula,
    ricci_formula,
    ricci_girth5_formula,
    ricci_girth6_formula,
    ricci_lp,
    sample_bipartite,
    w1_dual_oracle,
)
from riccigraph import curvature
from riccigraph.graph import components_within
from conftest import (
    bfs_distance_capped,
    cycle_graph,
    dodecahedron,
    named_corpus,
    nonfamily_girth5_graphs,
    pentagon_pairs_reference,
    random_bipartite_graphs,
    random_girth5_graphs,
    random_trees,
    spider_tree,
    star_graph,
    subset_gain_bruteforce,
)


def kappa(g, u, v):
    return ricci_lp(g, u, v).kappa


def test_complete_graphs():
    # K_n edge: kappa = (n - 2)/(n - 1) + ... checked against known small values
    for n, expect in ((3, Fraction(1, 2)), (4, Fraction(2, 3)), (5, Fraction(3, 4))):
        g = generate_family("complete", [n])
        for u, v in g.edges():
            assert kappa(g, u, v) == expect


def test_cycles():
    assert kappa(cycle_graph(3), 0, 1) == Fraction(1, 2)
    for n in range(4, 10):
        g = cycle_graph(n)
        for u, v in g.edges():
            assert kappa(g, u, v) == 0


def test_single_edge():
    g = Graph(2, [(0, 1)])
    assert kappa(g, 0, 1) == 0


def test_petersen_value_and_breakdown():
    g = generate_family("petersen", [])
    for u, v in g.edges():
        res = ricci_girth5_formula(g, u, v)
        assert res.kappa == Fraction(-1, 3)
        assert res.detail.kappa0 == Fraction(-1, 3)
        assert res.detail.kappa1 == 0
        assert kappa(g, u, v) == Fraction(-1, 3)


def test_hypercubes_flat():
    for d in (2, 3, 4):
        g = generate_family("hypercube", [d])
        for u, v in g.edges():
            assert kappa(g, u, v) == 0


def test_complete_bipartite_flat():
    for p in range(1, 6):
        for q in range(p, 6):
            g = generate_family("complete_bipartite", [p, q])
            for u, v in g.edges():
                assert ricci_bipartite_formula(g, u, v).kappa == 0


def test_double_star():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    res = ricci_auto(g, 0, 1)
    assert res.kappa == Fraction(-2, 3)
    assert res.method == "tree_girth6"


def test_tree_formula_matches_lp():
    for g in random_trees(seed=61, count=25, nmax=20):
        for u, v in g.edges():
            res = ricci_girth6_formula(g, u, v)
            expect = -2 * max(
                Fraction(0), 1 - Fraction(1, g.degree(u)) - Fraction(1, g.degree(v))
            )
            assert res.kappa == expect
            assert res.kappa == kappa(g, u, v)


def test_girth6_formula_rejects_short_cycles():
    g = cycle_graph(4)
    with pytest.raises(NotApplicableError):
        ricci_girth6_formula(g, 0, 1)
    g = cycle_graph(5)
    with pytest.raises(NotApplicableError):
        ricci_girth6_formula(g, 0, 1)
    # girth 6 itself is fine
    assert ricci_girth6_formula(cycle_graph(6), 0, 1).kappa == 0


def test_bipartite_formula_matches_lp_and_is_symmetric():
    for g in random_bipartite_graphs(seed=88, count=30):
        for u, v in g.edges():
            a = ricci_bipartite_formula(g, u, v)
            b = ricci_bipartite_formula(g, v, u)
            assert a.kappa == b.kappa
            assert a.kappa == kappa(g, u, v)


def test_bipartite_formula_rejects_odd_cycle():
    with pytest.raises(NotApplicableError):
        ricci_bipartite_formula(cycle_graph(5), 0, 1)


def test_bipartite_formula_long_augmenting_paths():
    # x=0, y=1; a_i = 2+(m-i) hangs off x and b_i = 2+m+i off y, and the
    # edges b_i-a_i, b_i-a_{i+1} chain R(x, y) into one long path, so the
    # min cut's later augmenting paths zigzag through about 2m vertices.
    m = 600
    edges = [(0, 1)]
    for i in range(1, m + 1):
        a, b = 2 + (m - i), 2 + m + i
        edges += [(0, a), (1, b), (b, a)]
        if i < m:
            edges.append((b, a - 1))
    g = Graph(2 * m + 3, edges)
    res = ricci_auto(g, 0, 1)
    assert (res.kappa, res.method) == (0, "bipartite")


def test_bipartite_cut_memory_grows_with_arcs():
    # x=0, y=1, each with k leaves a_i and b_i joined a_i-b_i: the cut has
    # k lows, k ups and only k arcs, so a rows x columns flow table (k^2
    # cells, about 72 MB at k=3000) would dwarf the instance
    k = 3000
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(k)]
    edges += [(2 + i, 2 + k + i) for i in range(k)]
    g = Graph(2 * k + 2, edges)
    core = core_neighborhood(g, 0, 1)
    tracemalloc.start()
    try:
        res = ricci_auto(g, 0, 1, core=core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.kappa, res.method) == (0, "bipartite")
    assert peak < 10 * 2**20


def _random_cut_instance(rng):
    # up to four groups with no arc between them, so at least that many
    # components; a low may draw no arcs, and a group may be one-sided
    ids = iter(rng.sample(range(100), 100))
    lows, ups, adj = [], [], {}
    for _ in range(rng.randint(0, 4)):
        group_lows = [next(ids) for _ in range(rng.randint(0, 3))]
        group_ups = [next(ids) for _ in range(rng.randint(0, 3))]
        for v in group_lows:
            adj[v] = [w for w in group_ups if rng.random() < 0.5]
        lows += group_lows
        ups += group_ups
    return sorted(lows), sorted(ups), adj, rng.randint(1, 6), rng.randint(1, 6)


def test_max_flow_matches_bruteforce():
    rng = random.Random(909)
    seen = dict.fromkeys(("no lows", "no ups", "isolated low", "d_x != d_y"), 0)
    for trial in range(400):
        lows, ups, adj, dx, dy = _random_cut_instance(rng)
        seen["no lows"] += not lows
        seen["no ups"] += not ups
        seen["isolated low"] += any(not adj[v] for v in lows)
        seen["d_x != d_y"] += dx != dy
        gain = subset_gain_bruteforce(lows, ups, adj, dx, dy)
        cut = curvature._max_flow(lows, ups, adj, dx, dy)
        assert cut == len(lows) * dx - gain * dx * dy, trial
    assert all(seen.values()), seen


def test_girth5_formula_matches_lp():
    for g in random_girth5_graphs(seed=17, count=30, nmax=16):
        for u, v in g.edges():
            res = ricci_girth5_formula(g, u, v)
            assert res.kappa == kappa(g, u, v)
            assert res.kappa <= 0
            assert res.kappa == min(res.detail.kappa0, res.detail.kappa1, Fraction(0))


def test_girth5_cut_pairs_match_middle_scan():
    # On a girth >= 5 host the core has no phi edge, so core distance <= 2
    # between N2(y) and N2(x) is exactly a shared middle vertex in P.
    graphs = random_girth5_graphs() + nonfamily_girth5_graphs()
    graphs += [generate_family("petersen", []), dodecahedron()]
    found = 0
    for g in graphs:
        assert g.has_girth_5()
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                core = core_neighborhood(g, x, y)
                part = core.partition
                pairs = core.pairs(part.n2_y, part.n2_x, 2)
                assert {w: set(zs) for w, zs in pairs.items()} == pentagon_pairs_reference(g, part)
                found += sum(map(len, pairs.values()))
    assert found > 0


def test_girth5_formula_rejects_square():
    with pytest.raises(NotApplicableError):
        ricci_girth5_formula(cycle_graph(4), 0, 1)


def test_dodecahedron_uniform():
    g = dodecahedron()
    for u, v in g.edges():
        res = ricci_auto(g, u, v, verify=True)
        assert res.method == "girth5"
        assert res.kappa == Fraction(-1, 3)


def test_dispatch_method_tags():
    assert ricci_auto(star_graph(5), 0, 1).method == "tree_girth6"
    assert ricci_auto(cycle_graph(6), 0, 1).method == "tree_girth6"
    assert ricci_auto(cycle_graph(4), 0, 1).method == "bipartite"
    assert ricci_auto(cycle_graph(5), 0, 1).method == "girth5"
    assert ricci_auto(generate_family("complete", [4]), 0, 1).method == "lp"
    # square present but graph not bipartite and girth not 5: LP fallback
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert ricci_auto(g, 0, 1).method == "lp"


def test_auto_equals_lp_everywhere():
    rng = random.Random(444)
    for _ in range(40):
        n = rng.randint(4, 10)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        for u, v in g.edges():
            auto = ricci_auto(g, u, v, verify=True)
            assert auto.kappa == kappa(g, u, v)
            assert Fraction(-2) <= auto.kappa <= 1


def test_oracle_route_agrees():
    g = generate_family("petersen", [])
    value, _ = w1_dual_oracle(core_neighborhood(g, 0, 1))
    assert 1 - value == Fraction(-1, 3) == kappa(g, 0, 1)


def test_kappa_matches_highs_on_named_corpus():
    # An independent reference: distances from a plain BFS, not from the
    # core's cost matrix, and a float LP (scipy's HiGHS) on supplies lcm/d_x
    # and demands lcm/d_y; the transportation polytope is integral, so the
    # optimum snaps to an integer.
    linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    for label, g in named_corpus():
        for u, v in g.edges():
            rows, cols = g.neighbors(u), g.neighbors(v)
            dists = [bfs_distance_capped(g, a, 3) for a in rows]
            cost = np.array([[d[b] for b in cols] for d in dists], dtype=float)
            scale = lcm(len(rows), len(cols))
            res = linprog(
                cost.ravel(),
                A_eq=np.vstack([
                    np.kron(np.eye(len(rows)), np.ones((1, len(cols)))),
                    np.kron(np.ones((1, len(rows))), np.eye(len(cols))),
                ]),
                b_eq=[scale // len(rows)] * len(rows) + [scale // len(cols)] * len(cols),
                bounds=(0, None),
                method="highs",
            )
            assert res.status == 0, (label, u, v, res.message)
            assert abs(res.fun - round(res.fun)) < 1e-6, (label, u, v)
            assert Fraction(round(res.fun), scale) == 1 - ricci_auto(g, u, v).kappa, (label, u, v)


def test_locality_under_distant_attachments():
    # grafting a path onto a vertex at distance >= 2 from both endpoints
    # leaves the edge curvature unchanged
    rng = random.Random(3131)
    for g in random_girth5_graphs(seed=52, count=10, nmax=12):
        u, v = next(iter(g.edges()))
        before = ricci_auto(g, u, v).kappa
        near = set(g.neighbors(u)) | set(g.neighbors(v)) | {u, v}
        far = [w for w in range(g.vertex_count) if w not in near]
        if not far:
            continue
        anchor = rng.choice(far)
        n = g.vertex_count
        extra = list(g.edges()) + [(anchor, n), (n, n + 1), (n + 1, n + 2)]
        h = Graph(n + 3, extra)
        assert ricci_auto(h, u, v).kappa == before


def test_jost_liu_tight_on_cliques():
    for n, expect in ((3, Fraction(1, 2)), (4, Fraction(2, 3))):
        g = generate_family("complete", [n])
        bp = jost_liu_bounds(g, 0, 1)
        assert bp.lower == bp.upper == expect


def test_jost_liu_triangle_free_upper_is_zero():
    for g in random_bipartite_graphs(seed=303, count=10):
        for u, v in g.edges():
            assert jost_liu_bounds(g, u, v).upper == 0


def test_bipartite_upper_bound_c4():
    bp = bipartite_upper_bound(cycle_graph(4), 0, 1)
    assert bp.upper == 0
    assert bp.note == "r_connected"
    with pytest.raises(NotApplicableError):
        bipartite_upper_bound(cycle_graph(5), 0, 1)


def _bipartite_note_corpus():
    for d in range(1, 7):
        yield generate_family("hypercube", [d])
    for p in range(1, 6):
        for q in range(p, 6):
            yield generate_family("complete_bipartite", [p, q])
    for seed, (m, n, p) in enumerate([(20, 20, 0.15), (30, 25, 0.1), (40, 40, 0.06), (15, 30, 0.2)]):
        yield sample_bipartite(m, n, p, seed, (0, m))


def test_r_connected_note_pinned():
    # The note comes from the core's N1 arcs.  Reference: components_within
    # on N1(x) | N1(y) in the host graph; the digest pins the serialized bound
    # over every oriented edge of Q_1..Q_6, K_{p,q} (p <= q <= 5) and four
    # seeded G(m, n, p).
    digest = hashlib.sha256()
    notes = Counter()
    for g in _bipartite_note_corpus():
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                bp = bipartite_upper_bound(g, x, y)
                part = neighbor_partition(g, x, y)
                connected = len(components_within(g, part.n1_x + part.n1_y)) <= 1
                assert bp.note == ("r_connected" if connected else None), (x, y)
                notes[bp.note] += 1
                digest.update(json.dumps(bounds_to_dict([bp]), sort_keys=True).encode())
    assert notes == {"r_connected": 834, None: 752}
    assert digest.hexdigest() == (
        "001586e5c10867a5f4e0a0ae3a3927e681887303c8dfb568bdeb5eac9d913ec2"
    )


def test_cho_paeng_bound_tight_on_petersen():
    g = generate_family("petersen", [])
    bounds = {bp.source: bp for bp in curvature_bounds(g, 0, 1)}
    bp = bounds["cho_paeng_girth5"]
    assert bp.upper == Fraction(-1, 3)
    assert kappa(g, 0, 1) == bp.upper


def test_bounds_sandwich_random():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(4, 10)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        for u, v in g.edges():
            k = kappa(g, u, v)
            for bp in curvature_bounds(g, u, v):
                assert bp.lower <= k <= bp.upper, (bp.source, u, v)


def test_triangle_free_bound_emitted_only_without_triangles():
    sources = {bp.source for bp in curvature_bounds(cycle_graph(4), 0, 1)}
    assert "triangle_free" in sources
    sources = {bp.source for bp in curvature_bounds(generate_family("complete", [3]), 0, 1)}
    assert "triangle_free" not in sources


def test_ricci_formula_refusal_on_clique():
    g = generate_family("complete", [4])
    with pytest.raises(NotApplicableError) as info:
        ricci_formula(g, 0, 1)
    assert info.value.witness is not None


def test_formula_applies_to_spider():
    res = ricci_formula(spider_tree(), 1, 2)
    assert res.method == "tree_girth6"
    assert res.kappa == Fraction(-1, 3)


def test_curvature_all_order_and_methods():
    g = generate_family("complete_bipartite", [2, 2])
    results = curvature_all(g)
    assert [r.edge for r in results] == list(g.edges())
    assert all(r.kappa == 0 for r in results)
    lp = curvature_all(g, method="lp")
    assert all(r.method == "lp" for r in lp)
    with pytest.raises(NotApplicableError):
        curvature_all(generate_family("complete", [4]), method="formula")
    with pytest.raises(ValueError):
        curvature_all(g, method="simplex")


def test_verify_flag_passes_on_formula_paths():
    for g in (cycle_graph(5), cycle_graph(4), star_graph(6)):
        for u, v in g.edges():
            ricci_auto(g, u, v, verify=True)


def test_verify_rechecks_cores_above_the_oracle_cap(monkeypatch):
    # Every Q_4 core has 8 vertices, above cap=4; the LP re-check has no cap.
    g = generate_family("hypercube", [4])
    calls = []
    original = curvature.w1_primal

    def counted(core):
        calls.append(core.x)
        return original(core)

    monkeypatch.setattr(curvature, "w1_primal", counted)
    for u, v in g.edges():
        assert ricci_auto(g, u, v, verify=True, cap=4).method == "bipartite"
    assert len(calls) == g.edge_count
    monkeypatch.setattr(curvature, "w1_primal", lambda core: Fraction(7))
    core = core_neighborhood(g, 0, 1)
    assert len(core.vertices) > 4
    with pytest.raises(VerificationError):
        ricci_auto(g, 0, 1, verify=True, cap=4, core=core)


def test_result_serialization():
    g = generate_family("petersen", [])
    res = ricci_auto(g, 0, 1)
    payload = result_to_dict(res, curvature_bounds(g, 0, 1))
    assert payload["edge"] == [0, 1]
    assert payload["kappa"] == "-1/3"
    assert payload["kappa_float"] == -0.333333
    assert payload["method"] == "girth5"
    assert payload["detail"] == {"kappa0": "-1/3", "kappa1": "0/1"}
    assert payload["bounds"]["jost_liu"]["upper"] == "0/1"
    assert payload["bounds"]["cho_paeng_girth5"]["upper"] == "-1/3"


def test_lp_oracle_cross_check_only_under_cap(monkeypatch):
    calls = []

    def counted(core, cap):
        calls.append(len(core.vertices))
        return w1_dual_oracle(core, cap)

    monkeypatch.setattr(curvature, "w1_dual_oracle", counted)
    assert ricci_lp(cycle_graph(6), 0, 1).kappa == 0
    assert calls == [4]
    big = generate_family("complete_bipartite", [5, 5])
    assert ricci_lp(big, 0, 5, cap=4).kappa == 0
    assert calls == [4]


def test_lp_oracle_mismatch_raises(monkeypatch):
    monkeypatch.setattr(curvature, "w1_dual_oracle", lambda core, cap: (Fraction(7), None))
    with pytest.raises(VerificationError):
        ricci_lp(cycle_graph(6), 0, 1)


def test_kappa_range_bounds():
    # extreme cases: kappa = 1 needs W1 = 0 which a simple graph cannot reach,
    # the clique K_n approaches it; stars push toward flat from below
    g = generate_family("complete", [6])
    assert kappa(g, 0, 1) == Fraction(4, 5)
    assert kappa(star_graph(8), 0, 1) == 0
