"""Shared corpus builders and validators for the test suite.

The named corpus mirrors the acceptance list: paths, cycles, stars, cliques,
complete bipartite graphs, small hypercubes, Petersen, plus seeded random
trees, random bipartite graphs, and random girth->=5 graphs.
"""

import random
from collections import deque
from fractions import Fraction
from math import lcm

from riccigraph import (
    BoundPair,
    Graph,
    GraphInputError,
    MatchingInstance,
    core_neighborhood,
    generate_family,
    max_matching,
    solve_transportation,
)
from riccigraph.rationals import positive_part
from riccigraph.transport import _check_dual, _distance_matrix, _Flow, _raise_potentials

HALL_SCAN_LIMIT = 20


def bfs_distance_capped(g, source, cap):
    """Distances from source to every vertex within the cap, as {vertex: distance}.

    The plain BFS that the test references measure graph distance with.
    """
    if not 0 <= source < g.vertex_count:
        raise GraphInputError(f"source {source} out of range")
    if cap < 0:
        raise GraphInputError(f"negative distance cap {cap}")
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = dist[u]
        if d == cap:
            continue
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = d + 1
                frontier.append(w)
    return dist


def path_graph(n):
    return generate_family("path", [n])


def cycle_graph(n):
    return generate_family("cycle", [n])


def star_graph(n):
    # n vertices total: one center, n - 1 leaves.
    return generate_family("star", [n - 1])


def named_corpus():
    """(label, graph) pairs for the fixed part of the corpus."""
    out = []
    for n in range(2, 11):
        out.append((f"P{n}", path_graph(n)))
    for n in range(3, 13):
        out.append((f"C{n}", cycle_graph(n)))
    for n in range(3, 9):
        out.append((f"T{n}", star_graph(n)))
    for n in range(3, 7):
        out.append((f"K{n}", generate_family("complete", [n])))
    for p in range(1, 6):
        for q in range(p, 6):
            out.append((f"K{p},{q}", generate_family("complete_bipartite", [p, q])))
    for d in range(2, 5):
        out.append((f"Q{d}", generate_family("hypercube", [d])))
    out.append(("Petersen", generate_family("petersen", [])))
    return out


def random_tree(rng, n):
    """Uniform labeled tree on n vertices via Pruefer decoding."""
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def random_trees(seed=90210, count=50, nmax=30):
    rng = random.Random(seed)
    return [random_tree(rng, rng.randint(3, nmax)) for _ in range(count)]


def random_bipartite_graphs(seed=140, count=50):
    """Random bipartite graphs with at most 20 vertices; may be disconnected."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, 10)
        n = rng.randint(1, 20 - m)
        p = rng.uniform(0.2, 0.8)
        edges = [
            (i, m + j) for i in range(m) for j in range(n) if rng.random() < p
        ]
        out.append(Graph(m + n, edges))
    return out


def _with_chords(rng, g, attempts):
    # Add chords only between vertices at distance >= 4; each addition keeps
    # the girth at 5 or more, so re-checking against the current graph suffices.
    n = g.vertex_count
    edges = list(g.edges())
    for _ in range(attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        dist = bfs_distance_capped(g, u, 3)
        if v in dist:
            continue
        edges.append((u, v))
        g = Graph(n, edges)
    return g


def random_girth5_graphs(seed=777, count=50, nmax=20):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, nmax)
        g = _with_chords(rng, random_tree(rng, n), 2 * n)
        out.append(g)
    return out


def _degree_shape(g):
    """path / cycle / star / other, from the degree multiset alone."""
    n = g.vertex_count
    degs = sorted(g.degrees())
    if n == 1 or degs == [1, 1]:
        return "path"
    if degs[0] == 2 and degs[-1] == 2:
        return "cycle"
    if degs[:2] == [1, 1] and degs[2:] == [2] * (n - 2):
        return "path"
    if degs[:-1] == [1] * (n - 1) and degs[-1] == n - 1:
        return "star"
    return "other"


def nonfamily_girth5_graphs(seed=4100, count=100):
    """Connected girth->=5 graphs on 5..9 vertices that are not path/cycle/star."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 9)
        g = _with_chords(rng, random_tree(rng, n), 3 * n)
        if _degree_shape(g) == "other":
            out.append(g)
    return out


def full_corpus():
    out = named_corpus()
    out += [(f"tree{i}", g) for i, g in enumerate(random_trees())]
    out += [(f"bip{i}", g) for i, g in enumerate(random_bipartite_graphs())]
    out += [(f"g5_{i}", g) for i, g in enumerate(random_girth5_graphs())]
    return out


def dodecahedron():
    # Generalized Petersen graph on (10, 2): 3-regular, girth 5, 20 vertices.
    edges = []
    for i in range(10):
        edges.append((i, (i + 1) % 10))
        edges.append((i, 10 + i))
        edges.append((10 + i, 10 + (i + 2) % 10))
    return Graph(20, edges)


def wagner_graph():
    # C8 plus the four antipodal chords; 3-regular, girth 4, and Ricci flat.
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def nonflat_cubic_girth4():
    # 3-regular, girth 4; the edge (0, 5) lies on no 4-cycle, so the
    # neighborhoods across it admit no perfect matching and kappa < 0 there.
    edges = [
        (0, 4), (0, 5), (0, 6), (1, 5), (1, 7), (1, 8), (2, 6), (2, 7),
        (2, 8), (3, 5), (3, 8), (3, 9), (4, 7), (4, 9), (6, 9),
    ]
    return Graph(10, edges)


def spider_tree():
    # Path 0-1-2-3-4 with one extra leaf hanging off vertex 2.
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def disjoint_union(a, b):
    off = a.vertex_count
    edges = list(a.edges()) + [(u + off, v + off) for u, v in b.edges()]
    return Graph(a.vertex_count + b.vertex_count, edges)


def hall_deficiency_bruteforce(inst):
    """delta_max = max over X subseteq left of |X| - |N(X)|, by full subset scan.

    An independent oracle for the matching size: max_matching(inst).size
    equals len(inst.left) minus this deficiency (Hall's theorem).
    """
    lefts = sorted(inst.left)
    k = len(lefts)
    if k > HALL_SCAN_LIMIT:
        raise GraphInputError(
            f"left side has {k} vertices, subset scan capped at {HALL_SCAN_LIMIT}"
        )
    rindex = {b: i for i, b in enumerate(sorted(inst.right))}
    lindex = {a: i for i, a in enumerate(lefts)}
    masks = [0] * k
    for a, b in inst.adjacency:
        masks[lindex[a]] |= 1 << rindex[b]
    nbr = [0] * (1 << k)
    best = 0
    for s in range(1, 1 << k):
        low = s & -s
        nbr[s] = nbr[s ^ low] | masks[low.bit_length() - 1]
        d = s.bit_count() - nbr[s].bit_count()
        if d > best:
            best = d
    return best


def ball_bound_reference(g, x, y, radius):
    """The matching (radius 1) or 2-matching (radius 2) bound from the full instance.

    The reference for matching._ball_bound: max_matching over all of
    Q(x) x Q(y) = (N(x) - Delta) x (N(y) - Delta) at core distance 1, or all
    of R(x) x R(y), which also drop y and x, at core distance <= 2, with no
    partition class left out and nothing added in closed form.
    """
    core = core_neighborhood(g, x, y)
    t = len(core.partition.delta)
    skip = set(core.partition.delta) | ({x, y} if radius == 2 else set())
    left = tuple(v for v in core.rows if v not in skip)
    right = tuple(v for v in core.cols if v not in skip)
    near = core.pairs(left, right, radius)
    inst = MatchingInstance(left, right, tuple((a, b) for a in left for b in near[a]))
    m = max_matching(inst).size
    dmax = max(g.degree(x), g.degree(y))
    gain = 2 * m if radius == 1 else m + 2
    return BoundPair(
        lower=Fraction(3 * t + gain - 2 * dmax, dmax),
        upper=Fraction(t, dmax),
        source="matching" if radius == 1 else "two_matching",
        note="saturated" if m == min(len(left), len(right)) else None,
    )


def max_matching_reference(inst):
    """Maximum matching pairs by a set-and-dict augmenting search.

    The reference for matching.max_matching, which must return the same
    pairs: lefts go in ascending id, each runs an iterative alternating DFS
    over ascending adjacency lists, and a free right is claimed before any
    reroute is tried, so each left takes the least right still free when its
    turn comes.
    """
    adj = {a: set() for a in inst.left}
    for a, b in inst.adjacency:
        adj[a].add(b)
    adj = {a: sorted(bs) for a, bs in adj.items()}
    match_r = {}

    def augment(a0, seen):
        def free_right(a):
            for b in adj[a]:
                if b not in seen and b not in match_r:
                    seen.add(b)
                    return b
            return None

        b0 = free_right(a0)
        if b0 is not None:
            match_r[b0] = a0
            return
        stack = [(a0, iter(adj[a0]))]
        arcs = []
        while stack:
            a, it = stack[-1]
            b = next(it, None)
            if b is None:
                stack.pop()
                if arcs:
                    arcs.pop()
                continue
            if b in seen or b not in match_r:
                continue
            seen.add(b)
            rerouted = match_r[b]
            arcs.append((a, b))
            nb = free_right(rerouted)
            if nb is not None:
                arcs.append((rerouted, nb))
                for aa, bb in arcs:
                    match_r[bb] = aa
                return
            stack.append((rerouted, iter(adj[rerouted])))

    for a in sorted(inst.left):
        augment(a, set())
    return tuple(sorted((a, b) for b, a in match_r.items()))


def push_blocking_flows_reference(st, adm):
    """The blocking-flow walk over ascending column lists, applied to the _Flow st.

    The reference for transport._Flow.push_blocking_flows, which takes one
    column mask per row and must leave the same flow: adm[i] lists, ascending,
    the columns row i may send to.  Each phase levels the residual network
    breadth first; the depth-first walk keeps a pointer per row into its arc
    list and per column into a snapshot of its reverse arcs, and a dead end
    advances its parent's pointer and drops the node from the level graph.
    """
    nr, nc = st.nr, st.nc
    rem_s, rem_d, back = st.rem_s, st.rem_d, st.back
    while st.remaining > 0:
        level = [-1] * (nr + nc)
        queue = []
        for i in range(nr):
            if rem_s[i] > 0:
                level[i] = 0
                queue.append(i)
        qi = 0
        sink_seen = False
        while qi < len(queue):
            node = queue[qi]
            qi += 1
            if node < nr:
                for j in adm[node]:
                    if level[nr + j] < 0:
                        level[nr + j] = level[node] + 1
                        queue.append(nr + j)
                        if rem_d[j] > 0:
                            sink_seen = True
            else:
                for i in back[node - nr]:
                    if level[i] < 0:
                        level[i] = level[node] + 1
                        queue.append(i)
        if not sink_seen:
            return
        ptr_row = [0] * nr
        ptr_col = [0] * nc
        back_snapshot = [list(back[j]) for j in range(nc)]
        for i in range(nr):
            # Walk augmenting paths from row i with an explicit node list
            # (row, column, row, ..., column), never by recursion.
            path = [i]
            while path and rem_s[i] > 0:
                node = path[-1]
                if node < nr:
                    arcs = adm[node]
                    k = ptr_row[node]
                    while k < len(arcs) and level[nr + arcs[k]] != level[node] + 1:
                        k += 1
                    ptr_row[node] = k
                    if k < len(arcs):
                        path.append(nr + arcs[k])
                        continue
                else:
                    j = node - nr
                    if rem_d[j] > 0:
                        got = min(rem_s[i], rem_d[j])
                        for t in range(2, len(path), 2):
                            got = min(got, back[path[t - 1] - nr][path[t]])
                        rem_d[j] -= got
                        rem_s[i] -= got
                        st.remaining -= got
                        for t in range(1, len(path), 2):  # row -> column
                            r, c = path[t - 1], path[t] - nr
                            back[c][r] = back[c].get(r, 0) + got
                        for t in range(2, len(path), 2):  # column -> row
                            r, c = path[t], path[t - 1] - nr
                            if back[c][r] == got:
                                del back[c][r]
                            else:
                                back[c][r] -= got
                        path = [i]
                        continue
                    snap = back_snapshot[j]
                    k = ptr_col[j]
                    while k < len(snap):
                        r = snap[k]
                        if level[r] == level[node] + 1 and r in back[j]:
                            break
                        k += 1
                    ptr_col[j] = k
                    if k < len(snap):
                        path.append(snap[k])
                        continue
                # Dead end: retreat, skip the arc that led here, and drop
                # the node from the level graph, since its pointer stays
                # exhausted for the rest of the phase.
                level[path.pop()] = -1
                if path:
                    if path[-1] < nr:
                        ptr_row[path[-1]] += 1
                    else:
                        ptr_col[path[-1] - nr] += 1


def list_pass_reference(cost, supply, demand):
    """solve_transportation by blocking flows over nested lists: the exact-flow reference.

    The reference for transport._array_pass, which must return the same
    (total, flow): the same column-reduced start, blocking flows over each
    row's zero-reduced-cost mask (summed cell by cell here, packed by numpy
    there) and the same Dijkstra between them, with the certificate checked.
    """
    nr, nc = len(supply), len(demand)
    st = _Flow(supply, demand)
    pot = [0] * nr + (list(map(min, zip(*cost))) or [0] * nc)
    bits = [1 << j for j in range(nc)]
    while True:
        col_pot = pot[nr:]
        st.push_blocking_flows(
            [
                sum(b for b, c, p in zip(bits, ci, col_pot) if c + pi == p)
                for ci, pi in zip(cost, pot)
            ]
        )
        if not st.remaining:
            break
        _raise_potentials(cost, pot, st)
    flow = st.matrix()
    total = 0
    for ci, fi, pi in zip(cost, flow, pot):
        for c, f, p in zip(ci, fi, col_pot):
            rc = c + pi - p
            if rc < 0 or (f > 0 and rc != 0):
                raise RuntimeError("transport solver lost complementary slackness")
            total += f * c
    _check_dual(total, supply, demand, pot[:nr], col_pot)
    return total, flow


def girth6_kappa_reference(dx, dy):
    """-2(1 - 1/d_x - 1/d_y)_+ as a chain of Fraction operations.

    The reference for curvature._girth6_from_partition, which forms one
    integer numerator over d_x d_y instead.
    """
    return -2 * positive_part(Fraction(1) - Fraction(1, dx) - Fraction(1, dy))


def subset_gain_bruteforce(lows, ups, adj, dx, dy):
    """max over T subseteq lows of |T|/d_y - |N(T)|/d_x, by full subset scan.

    An independent oracle for the closed forms' minimum cut
    (curvature._max_flow, which is d_x |lows| minus d_x d_y times this);
    N(T) is the union of adj[v] over v in T.
    """
    k = len(lows)
    if k > HALL_SCAN_LIMIT:
        raise GraphInputError(f"{k} lows, subset scan capped at {HALL_SCAN_LIMIT}")
    uindex = {w: j for j, w in enumerate(ups)}
    masks = [sum(1 << uindex[w] for w in set(adj[v])) for v in lows]
    nbr = [0] * (1 << k)
    best = 0  # in units of 1/(d_x d_y); T empty gives 0
    for s in range(1, 1 << k):
        low = s & -s
        nbr[s] = nbr[s ^ low] | masks[low.bit_length() - 1]
        best = max(best, s.bit_count() * dx - nbr[s].bit_count() * dy)
    return Fraction(best, dx * dy)


def pentagon_pairs_reference(g, part):
    """Each N2(y) vertex's N2(x) partners through a common neighbour in P.

    The neighbour-of-middle scan the girth-5 closed form ran before it read
    its pairs from the core's balls; the reference for
    core.pairs(n2_y, n2_x, 2) on girth >= 5 hosts.
    """
    side_x, middles = set(part.n2_x), set(part.p_xy)
    return {
        w: {z for m in g.neighbors(w) if m in middles for z in g.neighbors(m) if z in side_x}
        for w in part.n2_y
    }


def bipartite_kappa_reference(core):
    """The paper's bipartite form as a chain of Fraction operations.

    -2(1 - 1/d_x - 1/d_y - |N1(y)|/d_y + max_T gain)_+, with the subset gain
    over the N1(y) to N1(x) adjacency from subset_gain_bruteforce, so it
    shares no flow code with curvature._bipartite_from_partition.
    """
    g, part = core.graph, core.partition
    dx, dy = g.degree(core.x), g.degree(core.y)
    side_x = set(part.n1_x)
    adj = {v: [w for w in g.neighbors(v) if w in side_x] for v in part.n1_y}
    inner = Fraction(1) - Fraction(1, dx) - Fraction(1, dy) - Fraction(len(part.n1_y), dy)
    inner += subset_gain_bruteforce(part.n1_y, part.n1_x, adj, dx, dy)
    return -2 * positive_part(inner)


def girth5_kappa_reference(core):
    """(kappa, kappa0, kappa1) of the paper's girth-5 form as Fraction chains.

    The subset gain over the pentagon pairs is subset_gain_bruteforce over
    pentagon_pairs_reference, so no flow or ball code of
    curvature._girth5_from_partition is shared.
    """
    g, part = core.graph, core.partition
    dx, dy = g.degree(core.x), g.degree(core.y)
    kappa0 = -positive_part(Fraction(1) - Fraction(1, dx) - Fraction(1, dy))
    adj = pentagon_pairs_reference(g, part)
    inner = Fraction(2) - Fraction(2, dx) - Fraction(2, dy) - Fraction(len(part.n2_y), dy)
    inner += subset_gain_bruteforce(part.n2_y, part.n2_x, adj, dx, dy)
    kappa1 = -positive_part(inner)
    return min(kappa0, kappa1, Fraction(0)), kappa0, kappa1


def local_distance_bfs(core):
    """Core distances truncated at 4, one capped BFS per core vertex.

    The reference for CoreNeighborhood.local_distance: the phi-free core (the
    induced core without its delta-P edges) is built as a Graph on core
    indices and searched from every vertex with bfs_distance_capped.
    """
    idx = core.index
    delta, p = set(core.partition.delta), set(core.partition.p_xy)
    edges = [
        (idx[u], idx[v])
        for u in core.vertices
        for v in core.graph.neighbors(u)
        if v in idx and u < v and not (u in delta and v in p or u in p and v in delta)
    ]
    h = Graph(len(idx), edges)
    mat = []
    for s in range(len(idx)):
        row = [4] * len(idx)
        for v, d in bfs_distance_capped(h, s, 4).items():
            row[v] = d
        mat.append(row)
    return mat


def check_certificates(core, value, witness):
    """Validate W1 = value on a core against the solver's integer flow and a dual witness."""
    scale = lcm(core.d_x, core.d_y)
    supply = [scale // core.d_x] * core.d_x
    demand = [scale // core.d_y] * core.d_y
    total, flow = solve_transportation(core.transport_costs(), supply, demand)
    assert [sum(row) for row in flow] == supply
    assert [sum(col) for col in zip(*flow)] == demand
    assert all(f >= 0 for row in flow for f in row)
    dist = _distance_matrix(core.local_distance())
    idx = core.index
    moved = sum(
        flow[i][j] * dist[idx[u]][idx[v]]
        for i, u in enumerate(core.rows)
        for j, v in enumerate(core.cols)
    )
    assert moved == total == value * scale
    verts = core.vertices
    assert set(witness.values) == set(verts)
    for u in verts:
        assert isinstance(witness.values[u], int)
        for v in verts:
            assert abs(witness.values[u] - witness.values[v]) <= dist[idx[u]][idx[v]]
    obj = Fraction(0)
    for u in core.rows:
        obj += Fraction(witness.values[u], core.d_x)
    for v in core.cols:
        obj -= Fraction(witness.values[v], core.d_y)
    assert obj == witness.objective == value
