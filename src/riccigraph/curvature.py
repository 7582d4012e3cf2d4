"""Edge curvature kappa(x,y) = 1 - W1(m_x, m_y).

Four routes to the same number: the transport LP, and closed forms for three
structural regimes (no short cycles through the edge, bipartite host, global
girth at least five).  ricci_auto dispatches cheapest-first and can be asked
to re-check every formula answer against the LP, at any core size.  Per-edge
functions build the edge's CoreNeighborhood unless the caller passes the one
it holds as `core=`; the three closed forms take only the core, and the
girth-5 cut reads its pentagon pairs through `core.pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotApplicableError, VerificationError
from .graph import CoreNeighborhood, Graph, NeighborPartition, core_neighborhood, two_coloring
from .matching import BoundPair, matching_lower_bound, two_matching_lower_bound
from .rationals import format_rational
from .transport import DEFAULT_ORACLE_CAP, _Flow, w1_dual_oracle, w1_primal


@dataclass(frozen=True)
class Girth5Breakdown:
    """The two candidate values whose minimum is kappa on a girth >= 5 edge."""

    kappa0: Fraction
    kappa1: Fraction


@dataclass(frozen=True)
class CurvatureResult:
    edge: tuple[int, int]
    kappa: Fraction
    method: str
    detail: Girth5Breakdown | None = None


def ricci_lp(
    g: Graph,
    x: int,
    y: int,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
    core: CoreNeighborhood | None = None,
) -> CurvatureResult:
    """Exact curvature via the transport LP on the core neighborhood.

    The solver certifies its optimum with integer potentials.  When the core
    fits under the dual-oracle cap the independent Lipschitz enumeration is
    run as well and must agree bit for bit.
    """
    core = core or core_neighborhood(g, x, y)
    value = w1_primal(core)
    if len(core.vertices) <= cap:
        dual_value, _ = w1_dual_oracle(core, cap)
        if dual_value != value:
            raise VerificationError((x, y), 1 - dual_value, 1 - value, "lp")
    return CurvatureResult(edge=(x, y), kappa=1 - value, method="lp")


def _partition_witness(part: NeighborPartition):
    for label in ("delta", "n1_x", "n1_y", "n2_x", "n2_y", "p_xy"):
        members = getattr(part, label)
        if members:
            return (label, members[0])
    return None


def ricci_girth6_formula(g: Graph, x: int, y: int) -> CurvatureResult:
    """Closed form for edges supporting no 3-, 4-, or 5-cycle: -2(1 - 1/d_x - 1/d_y)_+.

    Covers every tree edge and every edge of a girth >= 6 graph.
    """
    core = core_neighborhood(g, x, y)
    if not core.partition.all_empty():
        raise NotApplicableError(
            "a 3-, 4-, or 5-cycle is supported on the edge",
            witness=_partition_witness(core.partition),
        )
    return _girth6_from_partition(core)


def girth6_kappa(dx: int, dy: int) -> Fraction:
    """-2(1 - 1/d_x - 1/d_y)_+, as one integer numerator over d_x d_y."""
    return Fraction(-2 * max(dx * dy - dx - dy, 0), dx * dy)


def _girth6_from_partition(core: CoreNeighborhood) -> CurvatureResult:
    kappa = girth6_kappa(core.d_x, core.d_y)
    return CurvatureResult(edge=(core.x, core.y), kappa=kappa, method="tree_girth6")


def ricci_bipartite_formula(g: Graph, x: int, y: int) -> CurvatureResult:
    """Closed form for edges of a bipartite graph.

    The paper's kappa = -2(1 - 1/d_x - 1/d_y - |N1(y)|/d_y + sum_a M_a)_+
    sums over connected components R_a of the subgraph induced on
    N1(x) u N1(y), where M_a = max over subsets T of the component's
    N1(y) side of |T|/d_y - |N(T)|/d_x.  No arc of the cut network joins
    two components, so the sum is |N1(y)|/d_y - cut/(d_x d_y) for one
    minimum cut over N1(x) u N1(y), and the |N1(y)|/d_y terms cancel:

        kappa = -2(b - cut)_+ / (d_x d_y),  b = d_x d_y - d_x - d_y,

    where b and the cut are the same with x and y swapped.  Restricting T
    to the empty or full side gives the weaker indicator form, which is not
    always tight: a proper subset wins whenever part of one side sees few
    partners across the component.
    """
    if not g.is_bipartite():
        raise NotApplicableError("graph is not bipartite", witness=two_coloring(g)[1])
    return _bipartite_from_partition(core_neighborhood(g, x, y))


def _max_flow(lows, ups, adj, dx: int, dy: int) -> int:
    """Max flow from lows (supply d_x each) to ups (demand d_y each) over adj.

    Runs on the transport solver's blocking-flow walk: adj[v] lists the ups
    low v reaches, and those arcs are uncapacitated.  Bit j stands for ups[j].
    The value is the minimum cut: the least d_x |lows - T| + d_y |N(T)|.
    """
    bit = {w: 1 << j for j, w in enumerate(ups)}
    st = _Flow([dx] * len(lows), [dy] * len(ups))
    st.push_blocking_flows([sum({bit[w] for w in adj[v]}) for v in lows])
    return dx * len(lows) - st.remaining


def _bipartite_from_partition(core: CoreNeighborhood) -> CurvatureResult:
    part = core.partition
    # no triangles in a bipartite graph, so the common neighborhood is empty
    assert not part.delta
    dx, dy = core.d_x, core.d_y
    cut = _max_flow(part.n1_y, part.n1_x, core.n1_arcs(), dx, dy)
    kappa = Fraction(-2 * max(dx * dy - dx - dy - cut, 0), dx * dy)
    return CurvatureResult(edge=(core.x, core.y), kappa=kappa, method="bipartite")


def ricci_girth5_formula(g: Graph, x: int, y: int) -> CurvatureResult:
    """Closed form for edges of a graph with girth at least five.

    The paper's kappa = min(kappa0, kappa1) has kappa0 = -(1 - 1/d_x - 1/d_y)_+
    and kappa1 = -(2 - 2/d_x - 2/d_y - sum_a (|A_a|/d_y - M_a))_+ over connected
    components of the subgraph induced on N2(x) u N2(y) u P.  A_a is the
    component's N2(y) share, and M_a = max over subsets T of A_a of
    |T|/d_y - |N(T)|/d_x, where N pairs vertices of N2(y) and N2(x) that
    share a middle vertex in P.  As in the bipartite form, the sum of M_a is
    |N2(y)|/d_y - cut/(d_x d_y) for one minimum cut over N2(x) u N2(y), so
    with b = d_x d_y - d_x - d_y each is one numerator over d_x d_y:

        kappa0 = -(b)_+ / (d_x d_y),  kappa1 = -(2b - cut)_+ / (d_x d_y),

    and neither changes when x and y swap.
    """
    if not g.has_girth_5():
        raise NotApplicableError("graph has girth below five")
    return _girth5_from_partition(core_neighborhood(g, x, y))


def _girth5_from_partition(core: CoreNeighborhood) -> CurvatureResult:
    part = core.partition
    dx, dy = core.d_x, core.d_y
    b = dx * dy - dx - dy
    # Girth five leaves delta empty, so the core has no phi edge.  An
    # (N2(y), N2(x)) pair is never adjacent, and a common neighbour is never
    # x, y or in N(x) | N(y), so core distance <= 2 is exactly a shared
    # middle in P: a pentagon through the edge.
    adj = core.pairs(part.n2_y, part.n2_x, 2)
    cut = _max_flow(part.n2_y, part.n2_x, adj, dx, dy)
    kappa0 = Fraction(-max(b, 0), dx * dy)
    kappa1 = Fraction(-max(2 * b - cut, 0), dx * dy)
    return CurvatureResult(
        edge=(core.x, core.y),
        kappa=min(kappa0, kappa1),
        method="girth5",
        detail=Girth5Breakdown(kappa0=kappa0, kappa1=kappa1),
    )


def jost_liu_bounds(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Triangle-count sandwich valid on every edge of every graph."""
    core = core or core_neighborhood(g, x, y)
    dx, dy = g.degree(x), g.degree(y)
    dmax, dmin = max(dx, dy), min(dx, dy)
    tri = len(core.partition.delta)
    # over the common denominator d_x d_y: 1 - 1/d_x - 1/d_y is b, and
    # tri/dmax, tri/dmin are tri*dmin, tri*dmax
    b = dx * dy - dx - dy
    lower = Fraction(
        tri * dmin - max(b - tri * dmax, 0) - max(b - tri * dmin, 0), dx * dy
    )
    upper = Fraction(tri, dmax)
    return BoundPair(lower=lower, upper=upper, source="jost_liu")


def bipartite_upper_bound(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> BoundPair:
    """Upper bound for bipartite hosts; equality candidate when R(x,y) is connected.

    R(x,y) is the subgraph induced on N1(x) | N1(y).  Its edges are the
    core's n1_arcs, the bipartite closed form's cut arcs, and every vertex
    has one (delta is empty), so it is connected when one search over the
    arcs from the first N1(y) vertex reaches all of N1(y).
    """
    if not g.is_bipartite():
        raise NotApplicableError("graph is not bipartite", witness=two_coloring(g)[1])
    core = core or core_neighborhood(g, x, y)
    part = core.partition
    dx, dy = g.degree(x), g.degree(y)
    # over d_x d_y: -2(1 - 1/d_x - 1/d_y - min(|N1(x)|/d_x, |N1(y)|/d_y))_+
    share = min(len(part.n1_x) * dy, len(part.n1_y) * dx)
    upper = Fraction(-2 * max(dx * dy - dx - dy - share, 0), dx * dy)
    arcs = core.n1_arcs()
    back = {}  # N1(x) vertex -> its N1(y) neighbours
    for v, ws in arcs.items():
        for w in ws:
            back.setdefault(w, []).append(v)
    reached = set(part.n1_y[:1])
    stack = list(reached)
    while stack:
        for w in arcs[stack.pop()]:
            for v in back.pop(w, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
    note = "r_connected" if len(reached) == len(arcs) else None
    return BoundPair(lower=Fraction(-2), upper=upper, source="bipartite_upper", note=note)


def curvature_bounds(
    g: Graph, x: int, y: int, *, core: CoreNeighborhood | None = None
) -> list[BoundPair]:
    """Every bound pair whose hypotheses hold on this edge, in a fixed order."""
    core = core or core_neighborhood(g, x, y)
    dx, dy = g.degree(x), g.degree(y)
    bounds = [jost_liu_bounds(g, x, y, core=core)]
    if not core.partition.delta:
        bounds.append(
            BoundPair(lower=girth6_kappa(dx, dy), upper=Fraction(0), source="triangle_free")
        )
    bounds.append(matching_lower_bound(g, x, y, core=core))
    bounds.append(two_matching_lower_bound(g, x, y, core=core))
    if g.is_bipartite():
        bounds.append(bipartite_upper_bound(g, x, y, core=core))
    if g.has_girth_5():
        delta_min = g.min_degree()
        if delta_min >= 1:
            bounds.append(
                BoundPair(
                    lower=Fraction(-2),
                    upper=Fraction(2 - delta_min, delta_min),
                    source="cho_paeng_girth5",
                )
            )
    return bounds


def _dispatch(core: CoreNeighborhood, verify: bool, cap: int | None) -> CurvatureResult:
    """Cheapest applicable route: girth6 formula, bipartite formula, girth5 formula, LP.

    A common neighbor on the edge rules out both bipartiteness and girth 5, and
    a 4-cycle through the edge rules out girth 5, so the global facts are only
    consulted when the local partition leaves the regime possible.  cap is the
    LP's oracle cap, and None allows no LP.  Under verify every formula answer
    is re-checked through the LP, whatever the core size: the LP is
    polynomial, and only the oracle needs a cap.
    """
    g, part, x, y = core.graph, core.partition, core.x, core.y
    if part.all_empty():
        result = _girth6_from_partition(core)
    elif not part.delta and g.is_bipartite():
        result = _bipartite_from_partition(core)
    elif not (part.delta or part.n1_x or part.n1_y) and g.has_girth_5():
        result = _girth5_from_partition(core)
    elif cap is not None:
        return ricci_lp(g, x, y, cap=cap, core=core)
    else:
        witness = _partition_witness(part)
        raise NotApplicableError(
            f"edge ({x}, {y}): no closed-form regime applies ({witness[0]} vertex {witness[1]})",
            witness=witness,
        )
    if verify:
        lp_kappa = 1 - w1_primal(core)
        if lp_kappa != result.kappa:
            raise VerificationError((x, y), result.kappa, lp_kappa, result.method)
    return result


def ricci_auto(
    g: Graph,
    x: int,
    y: int,
    *,
    verify: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
    core: CoreNeighborhood | None = None,
) -> CurvatureResult:
    """Cheapest applicable route: girth6 formula, bipartite formula, girth5 formula, LP.

    With verify=True any formula answer is recomputed through the LP at any
    core size, and a mismatch raises rather than returns.  An LP answer is
    always certified by the solver's integer potentials; cap bounds only the
    dual oracle's cross-check.
    """
    return _dispatch(core or core_neighborhood(g, x, y), verify, cap)


def ricci_formula(
    g: Graph, x: int, y: int, *, verify: bool = False, core: CoreNeighborhood | None = None
) -> CurvatureResult:
    """The applicable closed form, or NotApplicableError when no formula regime holds.

    With verify=True the answer is recomputed through the LP at any core size.
    """
    return _dispatch(core or core_neighborhood(g, x, y), verify, None)


def curvature_of_core(
    core: CoreNeighborhood, *, method: str, verify: bool, cap: int
) -> CurvatureResult:
    """Curvature of the core's edge by `method` (auto, lp or formula)."""
    g, x, y = core.graph, core.x, core.y
    if method == "lp":
        return ricci_lp(g, x, y, cap=cap, core=core)
    if method == "formula":
        return ricci_formula(g, x, y, verify=verify, core=core)
    return ricci_auto(g, x, y, verify=verify, cap=cap, core=core)


def curvature_all(
    g: Graph,
    *,
    method: str = "auto",
    verify: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
) -> list[CurvatureResult]:
    """One result per edge in lexicographic (u, v) order."""
    if method not in ("auto", "lp", "formula"):
        raise ValueError(f"unknown method {method!r}")
    return [
        curvature_of_core(
            core_neighborhood(g, u, v), method=method, verify=verify, cap=cap
        )
        for u, v in g.edges()
    ]


def bounds_to_dict(bounds: list[BoundPair]) -> dict:
    out = {}
    for bp in bounds:
        entry = {
            "lower": format_rational(bp.lower),
            "upper": format_rational(bp.upper),
            "lower_float": round(float(bp.lower), 6),
            "upper_float": round(float(bp.upper), 6),
        }
        if bp.note is not None:
            entry["note"] = bp.note
        out[bp.source] = entry
    return out


def result_to_dict(
    result: CurvatureResult, bounds: list[BoundPair] | None = None
) -> dict:
    """JSON-ready form: exact "p/q" string plus a display-only float."""
    payload = {
        "edge": [result.edge[0], result.edge[1]],
        "kappa": format_rational(result.kappa),
        "kappa_float": round(float(result.kappa), 6),
        "method": result.method,
    }
    if result.detail is not None:
        payload["detail"] = {
            "kappa0": format_rational(result.detail.kappa0),
            "kappa1": format_rational(result.detail.kappa1),
        }
    if bounds is not None:
        payload["bounds"] = bounds_to_dict(bounds)
    return payload
