"""Bipartite matchings between the non-common neighborhoods of an edge.

Curvature lower bounds come from matchings in the core: adjacent pairs
(1-matchings) between Q(x) = N(x)\\Delta and Q(y) = N(y)\\Delta, and
distance-<=2 pairs (2-matchings) between the endpoint-free sets R(x), R(y).
Q keeps the opposite endpoint (y in Q(x), x in Q(y)); R drops both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphInputError, NotApplicableError
from .graph import CoreNeighborhood, Graph, core_neighborhood, neighbor_partition

@dataclass(frozen=True)
class BoundPair:
    lower: Fraction
    upper: Fraction
    source: str
    note: str | None = None


@dataclass(frozen=True)
class MatchingInstance:
    left: tuple[int, ...]
    right: tuple[int, ...]
    adjacency: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lset, rset = set(self.left), set(self.right)
        if len(lset) < len(self.left) or len(rset) < len(self.right):
            raise GraphInputError("a vertex id repeats within one side")
        if lset & rset:
            raise GraphInputError("left and right sides overlap")
        for a, b in self.adjacency:
            if a not in lset or b not in rset:
                raise GraphInputError(f"pair ({a}, {b}) is not in left x right")


@dataclass(frozen=True)
class MatchingResult:
    pairs: tuple[tuple[int, int], ...]
    size: int


def _augment(a0: int, adj: dict[int, list[int]], match_r: dict[int, int], seen: set) -> bool:
    # Iterative alternating DFS.  A free right is claimed before any reroute
    # is tried, and both scans run ascending, so each left prefers the least
    # right that is still free when its turn comes.

    def free_right(a: int) -> int | None:
        for b in adj[a]:
            if b not in seen and b not in match_r:
                seen.add(b)
                return b
        return None

    b0 = free_right(a0)
    if b0 is not None:
        match_r[b0] = a0
        return True
    stack = [(a0, iter(adj[a0]))]
    arcs: list[tuple[int, int]] = []
    while stack:
        a, it = stack[-1]
        b = next(it, None)
        if b is None:
            stack.pop()
            if arcs:
                arcs.pop()
            continue
        if b in seen or b not in match_r:
            # frees were swept when this frame opened; none appear mid-search
            continue
        seen.add(b)
        rerouted = match_r[b]
        arcs.append((a, b))
        nb = free_right(rerouted)
        if nb is not None:
            arcs.append((rerouted, nb))
            for aa, bb in arcs:
                match_r[bb] = aa
            return True
        stack.append((rerouted, iter(adj[rerouted])))
    return False


def max_matching(inst: MatchingInstance) -> MatchingResult:
    """Maximum-cardinality matching; deterministic under the instance ordering.

    Left vertices are processed in ascending id.
    """
    adj: dict[int, list[int]] = {a: [] for a in inst.left}
    for a, b in inst.adjacency:
        adj[a].append(b)
    for a in adj:
        adj[a] = sorted(set(adj[a]))
    match_r: dict[int, int] = {}
    size = 0
    for a in sorted(inst.left):
        if _augment(a, adj, match_r, set()):
            size += 1
    pairs = tuple(sorted((a, b) for b, a in match_r.items()))
    return MatchingResult(pairs=pairs, size=size)


def _q_instance(g: Graph, x: int, y: int, delta: frozenset) -> MatchingInstance:
    # Q(x) against Q(y), paired when adjacent
    qx = tuple(v for v in g.neighbors(x) if v not in delta)
    qy = tuple(v for v in g.neighbors(y) if v not in delta)
    qy_set = set(qy)
    pairs = tuple((a, b) for a in qx for b in g.neighbors(a) if b in qy_set)
    return MatchingInstance(left=qx, right=qy, adjacency=pairs)


def matching_lower_bound(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Lower bound |Delta|/(dmax) - 2(1 - (|M| + |Delta|)/dmax) from a maximum
    matching M of adjacent pairs between Q(x) and Q(y); Eq-style upper |Delta|/dmax."""
    core = core or core_neighborhood(g, x, y)
    delta = frozenset(core.partition.delta)
    t = len(delta)
    dx, dy = g.degree(x), g.degree(y)
    dmax = max(dx, dy)
    inst = _q_instance(g, x, y, delta)
    m = max_matching(inst).size
    lower = Fraction(t, dmax) - 2 * (1 - Fraction(m + t, dmax))
    saturated = m == min(len(inst.left), len(inst.right))
    return BoundPair(
        lower=lower,
        upper=Fraction(t, dmax),
        source="matching",
        note="saturated" if saturated else None,
    )


def two_matching_lower_bound(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Lower bound -2 + (3|Delta| + k + 2)/dmax from a maximum 2-matching.

    The 2-matching pairs R(x) against R(y) at core distance <= 2, one bit of
    the core's ball_2 per pair, and reduces to an ordinary matching on that
    auxiliary instance.
    """
    core = core or core_neighborhood(g, x, y)
    delta = frozenset(core.partition.delta)
    t = len(delta)
    dx, dy = g.degree(x), g.degree(y)
    dmax = max(dx, dy)
    rx = tuple(v for v in g.neighbors(x) if v != y and v not in delta)
    ry = tuple(v for v in g.neighbors(y) if v != x and v not in delta)
    ball_2 = core.local_distance()[1]
    idx = core.index
    pairs = tuple(
        (a, b) for a in rx for b in ry if ball_2[idx[a]] >> idx[b] & 1
    )
    inst = MatchingInstance(left=rx, right=ry, adjacency=pairs)
    k = max_matching(inst).size
    lower = Fraction(-2) + Fraction(3 * t + k + 2, dmax)
    saturated = k == min(len(rx), len(ry))
    return BoundPair(
        lower=lower,
        upper=Fraction(t, dmax),
        source="two_matching",
        note="saturated" if saturated else None,
    )


def has_perfect_matching_between_neighborhoods(
    g: Graph, x: int, y: int
) -> tuple[bool, MatchingResult]:
    """Whether Q(x) and Q(y) admit a perfect matching of adjacent pairs.

    Only defined for d_x = d_y (the regular-edge characterization: the answer
    is equivalent to kappa attaining its upper bound |Delta|/d).
    """
    part = neighbor_partition(g, x, y)
    dx, dy = g.degree(x), g.degree(y)
    if dx != dy:
        raise NotApplicableError(
            f"characterization needs d_x = d_y, got {dx} and {dy}"
        )
    delta = frozenset(part.delta)
    inst = _q_instance(g, x, y, delta)
    result = max_matching(inst)
    return result.size == dx - len(delta), result
