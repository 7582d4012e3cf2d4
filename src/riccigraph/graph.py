"""Finite simple graphs plus the neighborhood machinery the curvature code runs on.

Vertices are dense nonnegative integers 0..vertex_count-1.  A Graph is immutable
once built.  It keeps its sorted arc keys and builds a vertex's sorted neighbour
tuple the first time it is read, so a sampled graph read at one edge pays for
the tuples of that edge alone; whole-graph scans build every tuple at once.
All traversals below are deterministic.  Isolated vertices are allowed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import GraphInputError, NotAnEdgeError

# Graph allocates one adjacency list per id up to the largest, so ids are
# capped; 2**22 vertices still admit hypercube-20's 2**20.
MAX_VERTEX_ID = 2**22 - 1

# The samplers and `generate_family` refuse to build more edges than this
# before anything is allocated; the canonical regimes expect at most 600k
# edges.  Hypercube-20, bounded by its own dimension check, is larger.
MAX_EDGES = 2**23

# Largest vertex count for which the dense boolean adjacency and the neighbour
# masks are built; larger graphs keep the set-based neighbour partition.
_DENSE_LIMIT = 4096

# Cost matrices of at least this many cells (rows x cols) are built with numpy;
# below it, per-call overhead makes nested lists faster.  The solver picks its
# pass by its own, smaller switch (transport._PATH_CELLS), so an instance from
# either build may take either pass.
_DENSE_CELLS = 2500


class Graph:
    """Undirected simple graph with sorted neighbour tuples, each built on first read.

    Graph(n, edges) takes (u, v) pairs and Graph.from_arrays takes parallel
    endpoint arrays; both go through one builder, so they accept and reject
    the same edges with the same messages.  Edges may come in any order and
    orientation, and duplicates collapse.
    """

    __slots__ = (
        "_n", "_adj", "_bounds", "_edge_count", "_keys", "_dense", "_masks", "_facts",
    )

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        pairs = list(edges)
        try:
            arr = np.array(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
        except ValueError:
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphInputError("every edge must be a (u, v) pair")
        if arr.dtype.kind in "fO" and all(type(v) is int for v in chain.from_iterable(pairs)):
            arr = np.array(pairs, dtype=object)  # ids past int64, kept exact for the range check
        self._build(vertex_count, arr[:, 0], arr[:, 1])

    @classmethod
    def from_arrays(cls, vertex_count: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """Graph from parallel 1-D integer endpoint arrays of equal length (used by
        the samplers); the same checks and messages as Graph(n, edges).  It sorts
        the arc keys and builds no neighbour tuple."""
        g = cls.__new__(cls)
        g._build(vertex_count, us, vs)
        return g

    def _build(self, n: int, us, vs) -> None:
        # The one path from endpoints to a Graph.  Each edge becomes two arc
        # keys u * n + v, and one sort of those keys lays every vertex's
        # neighbours out as a contiguous ascending run, keys[bounds[v]:bounds[v + 1]].
        if n < 0 or n > MAX_VERTEX_ID + 1:
            raise GraphInputError(f"bad vertex count {n}")
        us = np.asarray(us)
        vs = np.asarray(vs)
        for a in (us, vs):
            # an object array passes if it holds Python ints only (a bool is not one)
            ints = np.issubdtype(a.dtype, np.integer) or all(type(v) is int for v in a.tolist())
            if a.size and not ints:
                raise GraphInputError(f"vertex ids must be integers, got dtype {a.dtype}")
        if us.ndim != 1 or vs.ndim != 1 or us.shape != vs.shape:
            raise GraphInputError(f"endpoint shapes {us.shape} and {vs.shape} are not equal 1-D")
        loops = np.flatnonzero(us == vs)
        if loops.size:
            raise GraphInputError(f"self-loop at vertex {us[loops[0]]}")
        # checked before the int64 cast, which would wrap ids of 2**63 and more
        outside = np.flatnonzero((us < 0) | (us >= n) | (vs < 0) | (vs >= n))
        if outside.size:
            i = outside[0]
            raise GraphInputError(f"edge ({us[i]}, {vs[i]}) outside vertex range 0..{n - 1}")
        us = us.astype(np.int64, copy=False)
        vs = vs.astype(np.int64, copy=False)
        # keys stay below 2**44 since n <= 2**22
        keys = np.sort(np.concatenate([us * n + vs, vs * n + us]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self._n = n
        self._keys = keys
        # 8 bytes per vertex; indexing yields Python ints
        self._bounds = array("q", np.searchsorted(keys, np.arange(n + 1) * n).tobytes())
        # a list with None for each tuple not yet read, then the tuple of all
        self._adj = [None] * n
        self._edge_count = len(keys) // 2
        self._dense = None
        self._masks = None
        self._facts = {}

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        if v < 0:  # from the end, as neighbors reads it
            return len(self.neighbors(v))
        return self._bounds[v + 1] - self._bounds[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        t = self._adj[v]
        if t is None:
            v %= self._n  # a negative id indexes from the end, as a tuple does
            lo, hi = self._bounds[v], self._bounds[v + 1]
            t = self._adj[v] = tuple((self._keys[lo:hi] - v * self._n).tolist())
        return t

    def _neighbor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Every neighbour tuple, built at once for the whole-graph readers.

        Above _DENSE_LIMIT no mask or dense matrix reads the arc keys, so
        they are dropped once every tuple exists.
        """
        if type(self._adj) is list:
            dst = (self._keys % self._n).tolist()
            b = self._bounds
            self._adj = tuple(tuple(dst[lo:hi]) for lo, hi in zip(b, b[1:]))
            if self._n > _DENSE_LIMIT:
                self._keys = None
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        if self.degree(u) > self.degree(v):
            u, v = v, u
        a = self.neighbors(u)
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v in lexicographic order."""
        adj = self._neighbor_tuples()
        for u in range(self._n):
            for v in adj[u]:
                if v > u:
                    yield (u, v)

    def degrees(self) -> tuple[int, ...]:
        b = self._bounds
        return tuple(hi - lo for lo, hi in zip(b, b[1:]))

    def _scatter(self) -> np.ndarray:
        # the n x n boolean adjacency in one scatter of the sorted arc keys
        a = np.zeros(self._n * self._n, dtype=bool)
        a[self._keys] = True
        return a.reshape(self._n, self._n)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency, cached.  Only for graphs up to _DENSE_LIMIT vertices.

        Filled in one scatter from the builder's sorted arc keys u * n + v,
        whichever constructor built the graph.
        """
        if self._dense is None:
            if self._n > _DENSE_LIMIT:
                raise GraphInputError(
                    f"dense adjacency refused for {self._n} vertices (limit {_DENSE_LIMIT})"
                )
            self._dense = self._scatter()
        return self._dense

    def neighbor_masks(self) -> list[int]:
        """One Python-int mask per vertex, bit w set when w is in N(v); cached.

        Only for graphs up to _DENSE_LIMIT vertices.  The rows of the dense
        adjacency (the cached one, else a scatter that is not kept) are packed
        little-endian, so bit w of a row's bytes is column w.
        """
        if self._masks is None:
            n = self._n
            if n > _DENSE_LIMIT:
                raise GraphInputError(
                    f"neighbour masks refused for {n} vertices (limit {_DENSE_LIMIT})"
                )
            a = self._dense if self._dense is not None else self._scatter()
            raw = np.packbits(a, axis=1, bitorder="little").tobytes()
            w = (n + 7) // 8
            self._masks = [int.from_bytes(raw[i * w : i * w + w], "little") for i in range(n)]
        return self._masks

    def is_bipartite(self) -> bool:
        """Whether two_coloring succeeds; scanned on first use, then cached."""
        if "bipartite" not in self._facts:
            self._facts["bipartite"] = two_coloring(self)[0] is not None
        return self._facts["bipartite"]

    def has_girth_5(self) -> bool:
        """girth_at_least(self, 5); scanned on first use, then cached."""
        if "girth5" not in self._facts:
            self._facts["girth5"] = girth_at_least(self, 5)
        return self._facts["girth5"]

    def min_degree(self) -> int:
        """Least degree, 0 without vertices; scanned on first use, then cached."""
        if "min_degree" not in self._facts:
            self._facts["min_degree"] = min(self.degrees(), default=0)
        return self._facts["min_degree"]

    def __repr__(self) -> str:
        return f"Graph(vertices={self._n}, edges={self._edge_count})"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text edge-list format: one "u v" pair per line.

    Lines starting with '#' and blank lines are ignored.  The vertex count is
    the largest id plus one; duplicate edges collapse and self-loops are
    rejected.  Negative ids and ids above MAX_VERTEX_ID (2**22 - 1) are
    rejected with their line number before anything is allocated, since the
    graph holds one adjacency list for every id up to the largest.
    """
    pairs = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphInputError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphInputError(f"line {lineno}: negative vertex id in {raw!r}")
        if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
            raise GraphInputError(f"line {lineno}: vertex id above {MAX_VERTEX_ID} in {raw!r}")
        pairs.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1, pairs)


def write_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format, edges in lexicographic order."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def _shortest_cycle_through_edge(g: Graph, u: int, v: int, cap: int) -> int | None:
    # Shortest u-v path avoiding the edge (u, v) itself, capped; cycle = path + 1.
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        a = frontier.popleft()
        d = dist[a]
        if d >= cap:
            continue
        for w in g.neighbors(a):
            if (a == u and w == v) or (a == v and w == u):
                continue
            if w not in dist:
                if w == v:
                    return d + 2
                dist[w] = d + 1
                frontier.append(w)
    return None


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs (infinite girth).

    Exhaustive: every edge is tested for the shortest cycle through it.
    """
    best: int | None = None
    for u, v in g.edges():
        cap = (best - 2) if best is not None else g.vertex_count
        c = _shortest_cycle_through_edge(g, u, v, cap)
        if c is not None and (best is None or c < best):
            best = c
            if best == 3:
                return 3
    return best


def _has_triangle(g: Graph) -> bool:
    return any(not set(g.neighbors(u)).isdisjoint(g.neighbors(v)) for u, v in g.edges())


def _has_square(g: Graph) -> bool:
    # A 4-cycle exists iff some vertex pair has two common neighbors.
    seen: set[tuple[int, int]] = set()
    for nb in g._neighbor_tuples():
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                pair = (nb[i], nb[j])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


def girth_at_least(g: Graph, k: int) -> bool:
    """True when g has no cycle shorter than k (vacuously true for forests)."""
    if k <= 3:
        return True
    if k == 4:
        return not _has_triangle(g)
    if k == 5:
        return not _has_triangle(g) and not _has_square(g)
    gv = girth(g)
    return gv is None or gv >= k


def two_coloring(g: Graph) -> tuple[list[int] | None, list[int] | None]:
    """2-color the graph if bipartite.

    Returns (colors, None) on success or (None, odd_cycle) where odd_cycle is a
    vertex list of an odd cycle witnessing non-bipartiteness.
    """
    adj = g._neighbor_tuples()
    color = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    depth = [0] * g.vertex_count
    for root in range(g.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        frontier = deque([root])
        while frontier:
            u = frontier.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    frontier.append(w)
                elif color[w] == color[u]:
                    a, b = u, w
                    pa, pb = [a], [b]
                    while depth[a] > depth[b]:
                        a = parent[a]
                        pa.append(a)
                    while depth[b] > depth[a]:
                        b = parent[b]
                        pb.append(b)
                    while a != b:
                        a = parent[a]
                        b = parent[b]
                        pa.append(a)
                        pb.append(b)
                    cycle = pa + pb[-2::-1]
                    return None, cycle
    return color, None


def components_within(g: Graph, vertices: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on `vertices`.

    Each component is a sorted tuple; components are ordered by least member.
    """
    vs = sorted(vertices)
    inside = set(vs)
    parent = {v: v for v in vs}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for v in vs:
        for w in g.neighbors(v):
            if w > v and w in inside:
                ra, rb = find(v), find(w)
                if ra != rb:
                    if rb < ra:
                        ra, rb = rb, ra
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in vs:
        groups.setdefault(find(v), []).append(v)
    return [tuple(groups[r]) for r in sorted(groups)]


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by least vertex;
    scanned on first use and cached among the graph's facts, returned as a fresh list."""
    if "components" not in g._facts:
        g._neighbor_tuples()
        g._facts["components"] = components_within(g, range(g.vertex_count))
    return list(g._facts["components"])


@dataclass(frozen=True)
class NeighborPartition:
    """The edge-local split of the two neighborhoods.

    For an edge (x, y): delta is N(x) & N(y) (triangles on the edge).  A
    remaining z in N(x) lands in n1_x or n2_x when its distance to N(y) - {x}
    is 1 or 2 (4-cycle and 5-cycle neighbors); a farther z is in no field.
    The y side mirrors it.  p_xy collects vertices at distance exactly 2 from
    both x and y.  With near_y = N(N(y) - {x}), these are membership tests:
    z is in near_y, or a neighbour of z is (x is one exactly when delta is
    non-empty); and p_xy is near_x & near_y outside N(x) | N(y) | {x, y}.
    All fields are sorted tuples.
    """

    x: int
    y: int
    delta: tuple[int, ...]
    n1_x: tuple[int, ...]
    n2_x: tuple[int, ...]
    n1_y: tuple[int, ...]
    n2_y: tuple[int, ...]
    p_xy: tuple[int, ...]

    def all_empty(self) -> bool:
        """True when no 3-, 4-, or 5-cycle is supported on the edge."""
        return not (
            self.delta or self.n1_x or self.n2_x or self.n1_y or self.n2_y or self.p_xy
        )


def neighbor_partition(g: Graph, x: int, y: int) -> NeighborPartition:
    """Classify both neighborhoods of the edge (x, y) through near_x and near_y
    (see NeighborPartition); raises NotAnEdgeError otherwise.

    Up to _DENSE_LIMIT vertices the tests read the graph's neighbour masks,
    so only the tuples of x and y are read; above it they are set tests over
    the tuples of N(x) and N(y)."""
    if not g.has_edge(x, y):
        raise NotAnEdgeError(f"({x}, {y}) is not an edge")
    if g.vertex_count > _DENSE_LIMIT:
        return _set_partition(g, x, y)
    return _mask_partition(g, x, y)


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask_partition(g: Graph, x: int, y: int) -> NeighborPartition:
    masks = g.neighbor_masks()
    ax, ay = g.neighbors(x), g.neighbors(y)
    near_x = near_y = 0
    for z in ax:
        if z != y:
            near_x |= masks[z]
    for z in ay:
        if z != x:
            near_y |= masks[z]

    def split(own, skip, near_other):
        # skip holds the far endpoint and delta; own is ascending, so each
        # part comes out sorted
        n1, n2 = [], []
        for z in own:
            if skip >> z & 1:
                continue
            if near_other >> z & 1:
                n1.append(z)
            elif masks[z] & near_other:
                n2.append(z)
        return tuple(n1), tuple(n2)

    mx, my = masks[x], masks[y]
    return NeighborPartition(
        x, y, tuple(z for z in ax if my >> z & 1),
        *split(ax, my | 1 << y, near_y), *split(ay, mx | 1 << x, near_x),
        # x is in N(y) and y in N(x), so ~(mx | my) drops both endpoints too
        _bits(near_x & near_y & ~(mx | my)),
    )


def _set_partition(g: Graph, x: int, y: int) -> NeighborPartition:
    nb = g.neighbors
    nx, ny = set(nb(x)), set(nb(y))
    near_x = set().union(*(nb(z) for z in nx if z != y))
    near_y = set().union(*(nb(z) for z in ny if z != x))

    def split(own, skip, near_other):
        n1, n2 = [], []
        for z in nb(own):
            if z in skip:
                continue
            if z in near_other:
                n1.append(z)
            elif not near_other.isdisjoint(nb(z)):
                n2.append(z)
        return tuple(n1), tuple(n2)

    return NeighborPartition(
        x, y, tuple(z for z in nb(x) if z in ny),
        *split(x, ny | {y}, near_y), *split(y, nx | {x}, near_x),
        tuple(sorted((near_x & near_y) - nx - ny - {x, y})),
    )


class CoreNeighborhood:
    """Induced subgraph on N(x) | N(y) | P(x, y) | {x, y} with phi edges removed.

    Phi edges run between delta and P(x, y); removing them does not change the
    transport problem but shrinks the support the dual oracle has to search.
    Core distances are kept as bitset balls of radius 1, 2 and 3 (see
    local_distance), with no matrix: `pairs` reads one ball bit per pair for
    both matching bounds and the girth-5 cut, and the dual oracle expands
    the balls into the distance matrix truncated at 4, where pairs farther
    apart or disconnected in the core read 4.  That keeps a metric and
    leaves every transport distance as it is.
    """

    __slots__ = (
        "graph", "partition", "x", "y", "vertices", "index", "_balls", "_costs", "_n1_arcs",
    )

    def __init__(self, graph: Graph, partition: NeighborPartition):
        self.graph = graph
        self.partition = partition
        self.x = partition.x
        self.y = partition.y
        verts = sorted(
            {self.x, self.y}
            | set(graph.neighbors(self.x))
            | set(graph.neighbors(self.y))
            | set(partition.p_xy)
        )
        self.vertices = tuple(verts)
        self.index = {v: i for i, v in enumerate(verts)}
        self._balls = None
        self._costs = None
        self._n1_arcs = None

    @property
    def rows(self) -> tuple[int, ...]:
        """Sorted N(x), the support of the measure at x."""
        return self.graph.neighbors(self.x)

    @property
    def cols(self) -> tuple[int, ...]:
        """Sorted N(y), the support of the measure at y."""
        return self.graph.neighbors(self.y)

    @property
    def d_x(self) -> int:
        return self.graph.degree(self.x)

    @property
    def d_y(self) -> int:
        return self.graph.degree(self.y)

    def local_distance(self) -> tuple[list[int], list[int], list[int]]:
        """Core distance balls (ball_1, ball_2, ball_3), each in core-index order; cached.

        Bit j of ball_d[i] is set exactly when the core distance from index i
        to index j is at most d.  Each sweep ORs into ball_(d-1)[i], starting
        from the bit of i alone, the balls of i's core neighbours.  A pair
        with no bit in ball_3 is farther apart or disconnected in the core.
        """
        if self._balls is None:
            idx, adj = self.index, self.graph._neighbor_tuples()
            dset, pset = set(self.partition.delta), set(self.partition.p_xy)
            nbrs = []
            for v in self.vertices:
                # the induced core without phi edges (delta to P)
                skip = pset if v in dset else dset if v in pset else ()
                nbrs.append([idx[w] for w in adj[v] if w in idx and w not in skip])
            ball = [1 << i for i in range(len(nbrs))]
            balls = []
            for _ in range(3):
                grown = []
                for new, nb in zip(ball, nbrs):
                    for j in nb:
                        new |= ball[j]
                    grown.append(new)
                ball = grown
                balls.append(ball)
            self._balls = tuple(balls)
        return self._balls

    def pairs(self, left, right, radius: int) -> dict[int, list[int]]:
        """Each left vertex's right vertices within core distance `radius` (1 to 3).

        They are the set bits of the left vertex's ball masked to the right
        side, so the work grows with the pairs; core indices ascend with
        vertex ids, so each list comes out ascending.
        """
        ball, idx, verts = self.local_distance()[radius - 1], self.index, self.vertices
        mask = 0
        for b in right:
            mask |= 1 << idx[b]
        out = {}
        for a in left:
            hits = ball[idx[a]] & mask
            near = out[a] = []
            while hits:
                low = hits & -hits
                near.append(verts[low.bit_length() - 1])
                hits ^= low
        return out

    def n1_arcs(self) -> dict[int, list[int]]:
        """Each N1(y) vertex's neighbours in N1(x), ascending; cached.

        The bipartite closed form cuts over these arcs.  On a bipartite host
        N(x) and N(y) are independent sets, so they are every edge of the
        subgraph induced on N1(x) | N1(y).
        """
        if self._n1_arcs is None:
            side_x, nb = set(self.partition.n1_x), self.graph.neighbors
            self._n1_arcs = {v: [w for w in nb(v) if w in side_x] for v in self.partition.n1_y}
        return self._n1_arcs

    def transport_costs(self) -> list[list[int]] | np.ndarray:
        """Distance matrix d_G(z1, z2) over rows x cols; every entry is in 0..3.

        For z1 in N(x) and z2 in N(y) the path z1-x-y-z2 bounds the distance by
        3, so the entry is 0 (same vertex), 1 (adjacent), 2 (common neighbor)
        or 3.  A core of at least _DENSE_CELLS cells on a graph of at most
        _DENSE_LIMIT vertices gets an int64 ndarray, built from the dense
        adjacency; any other core gets nested lists.
        """
        if self._costs is not None:
            return self._costs
        g = self.graph
        rows, cols = self.rows, self.cols
        if len(rows) * len(cols) >= _DENSE_CELLS and g.vertex_count <= _DENSE_LIMIT:
            a = g.adjacency_matrix()
            r = np.fromiter(rows, dtype=np.int64)
            c = np.fromiter(cols, dtype=np.int64)
            sub = a[np.ix_(r, c)]
            # A boolean product: True where a common neighbour exists.  An
            # integer count in a narrow dtype would wrap (uint8 reads 256 as 0).
            common = a[r] @ a[:, c]
            eq = r[:, None] == c[None, :]
            self._costs = np.where(eq, 0, np.where(sub, 1, np.where(common, 2, 3)))
            return self._costs
        col_sets = [frozenset(g.neighbors(z2)) for z2 in cols]
        mat = []
        for z1 in rows:
            n1 = frozenset(g.neighbors(z1))
            row = []
            for z2, n2 in zip(cols, col_sets):
                if z1 == z2:
                    row.append(0)
                elif z2 in n1:
                    row.append(1)
                elif n1 & n2:
                    row.append(2)
                else:
                    row.append(3)
            mat.append(row)
        self._costs = mat
        return self._costs


def core_neighborhood(g: Graph, x: int, y: int) -> CoreNeighborhood:
    """Core neighborhood of the edge (x, y); raises NotAnEdgeError otherwise."""
    return CoreNeighborhood(g, neighbor_partition(g, x, y))


def _family_path(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("path needs n >= 1 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _family_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs n >= 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _family_star(n: int) -> Graph:
    # Center is vertex 0, leaves are 1..n.
    if n < 1:
        raise GraphInputError("star needs n >= 1 leaves")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def _family_hypercube(d: int) -> Graph:
    # Vertices are bitmasks 0..2^d - 1, edges join masks at Hamming distance 1.
    if d < 1:
        raise GraphInputError("hypercube needs dimension >= 1")
    if d > 20:
        raise GraphInputError("hypercube dimension too large")
    edges = []
    for v in range(1 << d):
        for b in range(d):
            w = v ^ (1 << b)
            if w > v:
                edges.append((v, w))
    return Graph(1 << d, edges)


def _family_complete_bipartite(p: int, q: int) -> Graph:
    # Left side 0..p-1, right side p..p+q-1.
    if p < 1 or q < 1:
        raise GraphInputError("complete_bipartite needs both sides >= 1")
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def _family_complete(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("complete needs n >= 1 vertices")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _family_petersen() -> Graph:
    # Outer 5-cycle 0..4, spokes to 5..9, inner vertices joined at step 2.
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, 5 + i))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph(10, edges)


# name -> (parameter count, builder, (vertices, edges) read off the
# parameters).  Hypercube is bounded by its own dimension check and Petersen
# is fixed, so neither has a size.
_FAMILIES = {
    "path": (1, _family_path, lambda n: (n, n - 1)),
    "cycle": (1, _family_cycle, lambda n: (n, n)),
    "star": (1, _family_star, lambda n: (n + 1, n)),
    "hypercube": (1, _family_hypercube, None),
    "complete_bipartite": (2, _family_complete_bipartite, lambda p, q: (p + q, p * q)),
    "complete": (1, _family_complete, lambda n: (n, n * (n - 1) // 2)),
    "petersen": (0, _family_petersen, None),
}


def generate_family(name: str, params: Iterable[int] = ()) -> Graph:
    """Build a named graph family member.

    Families and parameters: path n, cycle n, star n (n leaves), hypercube d,
    complete_bipartite p q, complete n, petersen.  Vertex numbering is the
    canonical one documented on each builder.  A member with more than
    MAX_VERTEX_ID + 1 vertices or more than MAX_EDGES edges is refused before
    its edge list is built.
    """
    if name not in _FAMILIES:
        raise GraphInputError(f"unknown family {name!r}")
    arity, builder, size = _FAMILIES[name]
    args = [int(p) for p in params]
    if len(args) != arity:
        raise GraphInputError(f"family {name!r} expects {arity} parameter(s), got {len(args)}")
    # a non-positive parameter is left to the builder's own error
    if size is not None and min(args) > 0:
        vertices, edges = size(*args)
        if vertices > MAX_VERTEX_ID + 1:
            raise GraphInputError(
                f"{name} with {vertices} vertices exceeds the limit of {MAX_VERTEX_ID + 1}"
            )
        if edges > MAX_EDGES:
            raise GraphInputError(f"{name} with {edges} edges exceeds the limit of {MAX_EDGES}")
    return builder(*args)
