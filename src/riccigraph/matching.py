"""Bipartite matchings between the non-common neighborhoods of an edge.

Curvature lower bounds come from matchings in the core: adjacent pairs
(1-matchings) between Q(x) = N(x)\\Delta and Q(y) = N(y)\\Delta, and
distance-<=2 pairs (2-matchings) between the endpoint-free sets R(x), R(y).
Q keeps the opposite endpoint (y in Q(x), x in Q(y)); R drops both.  Each
instance covers only the partition classes that can pair: N1(y) x N1(x)
over `core.n1_arcs()`, with y and x added in closed form, and N1 | N2 on
both sides through `CoreNeighborhood.pairs`.  One bitmask augmenting-path
matcher, `max_matching`, solves it; an empty side runs none.  The two bounds
share one body, which differs only in the radius, the numerator term (2|M|
against k + 2) and the source name; each bound value is one Fraction over
integer numerators, and the `saturated` note compares |M| with the full sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphInputError, NotApplicableError
from .graph import CoreNeighborhood, Graph, core_neighborhood

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


def max_matching(inst: MatchingInstance) -> MatchingResult:
    """Maximum-cardinality matching; deterministic under the instance ordering.

    Left vertices are processed in ascending id, each by one iterative
    augmenting-path search over bitmasks: bit j stands for the j-th smallest
    right id.  A free right is claimed before any reroute is tried, and both
    scans take the lowest bit first, so each left prefers the least right
    that is still free when its turn comes.
    """
    right = sorted(inst.right)
    bit = {b: 1 << j for j, b in enumerate(right)}
    nbr = dict.fromkeys(inst.left, 0)
    for a, b in inst.adjacency:
        nbr[a] |= bit[b]
    owner: dict[int, int] = {}  # right bit -> its matched left
    free = (1 << len(right)) - 1
    for a0 in sorted(nbr):
        hit = nbr[a0] & free
        if hit:
            hit &= -hit
            owner[hit] = a0
            free ^= hit
            continue
        # alternating DFS; `unseen` holds the matched rights not yet tried
        unseen = ~free
        path = [(a0, 0)]  # (left, right bit taken from it)
        while path:
            a = path[-1][0]
            step = nbr[a] & unseen
            if not step:
                path.pop()
                continue
            step &= -step
            unseen ^= step
            path[-1] = (a, step)
            rerouted = owner[step]
            hit = nbr[rerouted] & free
            if hit:
                hit &= -hit
                path.append((rerouted, hit))
                for aa, bb in path:
                    owner[bb] = aa
                free ^= hit
                break
            path.append((rerouted, 0))
    pairs = tuple(sorted((a, right[b.bit_length() - 1]) for b, a in owner.items()))
    return MatchingResult(pairs=pairs, size=len(pairs))


def _instance(left, right, near) -> MatchingInstance:
    """The instance on left x right whose pairs are near[a] for each left a."""
    return MatchingInstance(left, right, tuple([(a, b) for a in left for b in near[a]]))


def _ball_bound(
    g: Graph, x: int, y: int, core: CoreNeighborhood | None, radius: int, source: str
) -> BoundPair:
    """The bound from a maximum matching of Q(x) x Q(y) (radius 1) or of
    R(x) x R(y) (radius 2), built over the classes that can pair."""
    core = core or core_neighborhood(g, x, y)
    part = core.partition
    t = len(part.delta)
    dmin, dmax = sorted((g.degree(x), g.degree(y)))
    if radius == 1:
        left, right = part.n1_y, part.n1_x
    else:
        left, right = part.n1_x + part.n2_x, part.n1_y + part.n2_y
    m = 0
    if left and right:
        near = core.n1_arcs() if radius == 1 else core.pairs(left, right, 2)
        m = max_matching(_instance(left, right, near)).size
    full = dmin - t - (radius - 1)  # the smaller side: |Q| = d - t, |R| = d - t - 1
    if radius == 1:
        m = min(full, m + 2)
    gain = 2 * m if radius == 1 else m + 2
    return BoundPair(
        lower=Fraction(3 * t + gain - 2 * dmax, dmax),
        upper=Fraction(t, dmax),
        source=source,
        note="saturated" if m == full else None,
    )


def matching_lower_bound(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Lower bound |Delta|/(dmax) - 2(1 - (|M| + |Delta|)/dmax) from a maximum
    matching M of adjacent pairs between Q(x) and Q(y); Eq-style upper |Delta|/dmax.

    Past y and x every pair lies in N1(x) x N1(y), so a maximum matching M'
    over the n1_arcs gives |M| = min(|Q(x)|, |Q(y)|, |M'| + 2), since y is
    adjacent to all of Q(y) and x to all of Q(x).  At most: M holds at most
    one pair at y and one at x, the rest form a matching over the arcs.
    Reached: M' extends by pairing y and x with unmatched vertices, or with
    each other when one side has none left.
    """
    return _ball_bound(g, x, y, core, 1, "matching")


def two_matching_lower_bound(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Lower bound -2 + (3|Delta| + k + 2)/dmax from a maximum 2-matching.

    The 2-matching pairs R(x) against R(y) at core distance <= 2, one bit of
    the core's ball_2 per pair, and reduces to an ordinary matching on that
    auxiliary instance.  Only N1 | N2 of each side can pair: the middle of a
    distance-2 pair is neither x nor y (one end would be in Delta), so the
    pair closes a 4- or 5-cycle through the edge.  The other R vertices stay
    unmatched, and an empty side builds no balls.
    """
    return _ball_bound(g, x, y, core, 2, "two_matching")


def has_perfect_matching_between_neighborhoods(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> tuple[bool, MatchingResult]:
    """Whether Q(x) and Q(y) admit a perfect matching of adjacent pairs.

    Only defined for d_x = d_y (the regular-edge characterization: the answer
    is equivalent to kappa attaining its upper bound |Delta|/d).
    """
    core = core or core_neighborhood(g, x, y)
    dx, dy = g.degree(x), g.degree(y)
    if dx != dy:
        raise NotApplicableError(
            f"characterization needs d_x = d_y, got {dx} and {dy}"
        )
    skip = set(core.partition.delta)
    left = tuple([v for v in core.rows if v not in skip])
    right = tuple([v for v in core.cols if v not in skip])
    result = max_matching(_instance(left, right, core.pairs(left, right, 1)))
    return result.size == dx - len(core.partition.delta), result
