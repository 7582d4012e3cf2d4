"""Exact W1 transport between the two neighborhood measures of an edge.

Two independent routes compute the same number.  The primal route scales both
uniform measures by L = lcm(d_x, d_y) and solves an integral min-cost
transportation problem (total unimodularity makes the integer optimum the LP
optimum).  The dual route exhaustively maximizes sum f d(m_x - m_y) over
integer-valued 1-Lipschitz functions anchored at f(x) = 0; it is the
exponential reference that ricci_lp checks the primal value against on small
cores.  The primal value needs no separate plan as its certificate: the
solver checks its integer flow against integer potentials (complementary
slackness and equal dual objective) before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import OracleCapExceededError
from .graph import CoreNeighborhood

DEFAULT_ORACLE_CAP = 18


@dataclass(frozen=True)
class LipschitzWitness:
    """Integer-valued 1-Lipschitz function on the core attaining the dual optimum."""

    values: dict[int, int]
    objective: Fraction


def solve_transportation(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[int, list[list[int]]]:
    """Exact integral min-cost transportation.

    cost is an R x C matrix of nonnegative integers, supply and demand are
    integer vectors with equal totals.  Successive shortest paths with node
    potentials.  Reduced costs are nonnegative integers, so each Dijkstra pass
    runs over Dial's bucket queue: nodes are settled one integer distance
    level at a time, and each settled row relaxes every unsettled column
    once.  After each pass blocking flows are pushed through the
    zero-reduced-cost subnetwork, whose arcs are listed once per pass because
    the potentials only change between passes; the number of passes is
    bounded by the largest path cost rather than the flow value.  The final
    potentials are an integer dual certificate and are checked against the
    primal cost before returning.
    """
    nr, nc = len(supply), len(demand)
    if len(cost) != nr or any(len(row) != nc for row in cost):
        raise ValueError("cost matrix shape does not match supply and demand")
    if sum(supply) != sum(demand):
        raise ValueError("supply and demand totals differ")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("negative supply or demand")
    pot = [0] * (nr + nc)
    flow = [[0] * nc for _ in range(nr)]
    rem_s = list(supply)
    rem_d = list(demand)
    # insertion-ordered set of rows with positive flow into each column
    back: list[dict[int, None]] = [dict() for _ in range(nc)]
    remaining = sum(supply)
    unreached = float("inf")

    while remaining > 0:
        # Dijkstra from all rows with remaining supply over Dial's buckets:
        # buckets[d] lists the nodes reached at distance d, and a node is
        # settled the first time it is taken from a bucket.
        dist = [unreached] * (nr + nc)
        settled = [False] * (nr + nc)
        buckets: dict[int, list[int]] = {0: []}
        for i in range(nr):
            if rem_s[i] > 0:
                dist[i] = 0
                buckets[0].append(i)
        col_pot = pot[nr:]
        target = -1
        dstar = 0
        while buckets and target < 0:
            d = min(buckets)
            for node in buckets[d]:  # zero reduced-cost arcs append to this level
                if settled[node]:
                    continue
                settled[node] = True
                if node >= nr:
                    j = node - nr
                    if rem_d[j] > 0:
                        target, dstar = j, d
                        break
                    pj = pot[node]
                    for i in back[j]:
                        nd = d + pj - cost[i][j] - pot[i]
                        if nd < dist[i]:
                            dist[i] = nd
                            buckets.setdefault(nd, []).append(i)
                else:
                    # a settled column has distance <= d, so it never improves
                    base = d + pot[node]
                    for nj, c, p in zip(range(nr, nr + nc), cost[node], col_pot):
                        nd = base + c - p
                        if nd < dist[nj]:
                            dist[nj] = nd
                            buckets.setdefault(nd, []).append(nj)
            del buckets[d]
        if target < 0:
            raise RuntimeError("transportation problem infeasible")
        for node in range(nr + nc):
            dn = dist[node]
            pot[node] += dn if dn <= dstar else dstar

        # Push a blocking flow through the admissible (zero reduced cost)
        # arcs; the potentials stay fixed until the next pass.
        col_pot = pot[nr:]
        adm = [
            [j for j, c, p in zip(range(nc), ci, col_pot) if c + pi == p]
            for ci, pi in zip(cost, pot)
        ]
        while remaining > 0:
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
                    j = node - nr
                    for i in list(back[j]):
                        if (
                            level[i] < 0
                            and flow[i][j] > 0
                            and cost[i][j] + pot[i] - pot[nr + j] == 0
                        ):
                            level[i] = level[node] + 1
                            queue.append(i)
            if not sink_seen:
                break
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
                                got = min(got, flow[path[t]][path[t - 1] - nr])
                            rem_d[j] -= got
                            rem_s[i] -= got
                            remaining -= got
                            for t in range(1, len(path), 2):  # row -> column
                                r, c = path[t - 1], path[t] - nr
                                flow[r][c] += got
                                back[c][r] = None
                            for t in range(2, len(path), 2):  # column -> row
                                r, c = path[t], path[t - 1] - nr
                                flow[r][c] -= got
                                if flow[r][c] == 0:
                                    del back[c][r]
                            path = [i]
                            continue
                        snap = back_snapshot[j]
                        k = ptr_col[j]
                        while k < len(snap):
                            r = snap[k]
                            if (
                                level[r] == level[node] + 1
                                and flow[r][j] > 0
                                and cost[r][j] + pot[r] - pot[node] == 0
                            ):
                                break
                            k += 1
                        ptr_col[j] = k
                        if k < len(snap):
                            path.append(snap[k])
                            continue
                    # dead end: retreat and skip the arc that led here
                    path.pop()
                    if path:
                        if path[-1] < nr:
                            ptr_row[path[-1]] += 1
                        else:
                            ptr_col[path[-1] - nr] += 1

    # Certify optimality: potentials form a feasible dual with matching objective.
    total = 0
    col_pot = pot[nr:]
    for ci, fi, pi in zip(cost, flow, pot):
        for c, f, p in zip(ci, fi, col_pot):
            rc = c + pi - p
            if rc < 0 or (f > 0 and rc != 0):
                raise RuntimeError("transport solver lost complementary slackness")
            total += f * c
    dual = sum(demand[j] * pot[nr + j] for j in range(nc)) - sum(
        supply[i] * pot[i] for i in range(nr)
    )
    if dual != total:
        raise RuntimeError("transport dual certificate does not match primal cost")
    return total, flow


def w1_primal(core: CoreNeighborhood) -> Fraction:
    """Exact W1 between m_x and m_y, the certified optimum of the scaled LP."""
    dx, dy = core.d_x, core.d_y
    scale = lcm(dx, dy)
    total, _ = solve_transportation(
        core.transport_costs(), [scale // dx] * dx, [scale // dy] * dy
    )
    return Fraction(total, scale)


def w1_dual_oracle(
    core: CoreNeighborhood, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[Fraction, LipschitzWitness]:
    """Exhaustive dual search over integer 1-Lipschitz functions on the core.

    Vertices are enumerated in ascending id; every vertex's feasible values
    form an interval (an intersection of distance constraints against the
    already assigned prefix), tried best-contribution first under a
    branch-and-bound cutoff.  The first optimum found under that order is the
    returned witness.  Maximizes E_x(f) - E_y(f); the reverse orientation
    gives the same value via f -> -f.
    """
    verts = core.vertices
    n = len(verts)
    if n > cap:
        raise OracleCapExceededError(n, cap)
    dmat = core.local_distance()
    xi = core.index[core.x]
    dx, dy = core.d_x, core.d_y
    scale = lcm(dx, dy)
    in_x = set(core.graph.neighbors(core.x))
    in_y = set(core.graph.neighbors(core.y))
    coef = [
        (scale // dx if v in in_x else 0) - (scale // dy if v in in_y else 0)
        for v in verts
    ]
    lo = [-dmat[xi][i] for i in range(n)]
    hi = [dmat[xi][i] for i in range(n)]
    vals = [0] * n
    best: int | None = None
    best_vals: list[int] | None = None

    def extend(i: int, acc: int) -> None:
        nonlocal best, best_vals
        if i == n:
            if best is None or acc > best:
                best = acc
                best_vals = vals.copy()
            return
        if best is not None:
            bound = acc
            for k in range(i, n):
                ck = coef[k]
                bound += ck * (hi[k] if ck > 0 else lo[k])
            if bound <= best:
                return
        ci = coef[i]
        if lo[i] > hi[i]:
            return
        if ci > 0:
            candidates = range(hi[i], lo[i] - 1, -1)
        else:
            candidates = range(lo[i], hi[i] + 1)
        di = dmat[i]
        for t in candidates:
            vals[i] = t
            undo = []
            feasible = True
            for k in range(i + 1, n):
                d = di[k]
                nlo, nhi = t - d, t + d
                olo, ohi = lo[k], hi[k]
                if nlo > olo or nhi < ohi:
                    undo.append((k, olo, ohi))
                    if nlo > olo:
                        lo[k] = nlo
                    if nhi < ohi:
                        hi[k] = nhi
                    if lo[k] > hi[k]:
                        feasible = False
                        break
            if feasible:
                extend(i + 1, acc + ci * t)
            for k, olo, ohi in undo:
                lo[k] = olo
                hi[k] = ohi

    extend(0, 0)
    assert best is not None and best_vals is not None
    value = Fraction(best, scale)
    witness = LipschitzWitness(
        values={v: best_vals[i] for i, v in enumerate(verts)}, objective=value
    )
    return value, witness
