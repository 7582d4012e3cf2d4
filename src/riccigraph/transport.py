"""Exact W1 transport between the two neighborhood measures of an edge.

Two independent routes compute the same number.  The primal route scales both
uniform measures by L = lcm(d_x, d_y) and solves an integral min-cost
transportation problem (total unimodularity makes the integer optimum the LP
optimum), reduced to the mass that has to move, by shortest paths from a
column-reduced dual.  Small instances take the path pass, one shortest
augmenting path per Dijkstra pass; the others take the array pass, blocking
flows over bitmasks (the walk that curvature._max_flow shares) with numpy
building the row masks and the certificate.  One Dijkstra over nested lists
serves both passes.  The dual route
exhaustively maximizes sum f d(m_x - m_y) over integer-valued 1-Lipschitz
functions anchored at f(x) = 0; it is the exponential reference that ricci_lp
checks the primal value against on small cores.  The primal value needs no separate
plan as its certificate: the solver checks its integer flow against integer
potentials (complementary slackness and equal dual objective) before
returning.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .errors import OracleCapExceededError
from .graph import CoreNeighborhood

DEFAULT_ORACLE_CAP = 18

# The array pass works in int64; solve_transportation keeps every potential
# and every flow-times-cost product below this.
_INT64_SAFE = 2**60

# Instances of fewer cells take the path pass: below it the array pass's numpy
# calls and blocking-flow phases cost more than they save (BENCH_23.json).
_PATH_CELLS = 144


@dataclass(frozen=True)
class LipschitzWitness:
    """Integer-valued 1-Lipschitz function on the core attaining the dual optimum."""

    values: dict[int, int]
    objective: Fraction


def solve_transportation(
    cost: list[list[int]] | np.ndarray, supply: list[int], demand: list[int]
) -> tuple[int, list[list[int]]]:
    """Exact integral min-cost transportation.

    cost is an R x C matrix of integers of any sign (nested lists or an
    ndarray), supply and demand are integer vectors with equal totals.
    Successive shortest paths with node potentials, started from column
    reduction (Jonker & Volgenant 1987): rows at 0 and each column at its
    cheapest cost are a feasible dual, so reduced costs are nonnegative
    integers from the start.  Each Dijkstra pass runs over Dial's bucket
    queue, which settles nodes one integer distance level at a time.  The
    final potentials are an integer dual certificate and are checked
    against the primal cost before returning.

    Two passes share the column-reduced start and the one Dijkstra over
    nested lists, check the same certificate, and agree on every total but
    not necessarily on the flow.  Fewer than _PATH_CELLS cells, or costs
    that could overflow int64, take the path pass, one shortest augmenting
    path per Dijkstra pass: a small instance never amortises a blocking-flow
    phase.  Any other instance takes the array pass: blocking flows through
    the zero-reduced-cost cells after the start and after each Dijkstra
    pass, so the passes are bounded by the largest path cost rather than the
    flow value; numpy builds its masks and checks its certificate.
    """
    nr, nc = len(supply), len(demand)
    if isinstance(cost, np.ndarray):
        bad_shape = cost.shape != (nr, nc)
    else:
        bad_shape = len(cost) != nr or any(len(row) != nc for row in cost)
    if bad_shape:
        raise ValueError("cost matrix shape does not match supply and demand")
    total = sum(supply)
    if total != sum(demand):
        raise ValueError("supply and demand totals differ")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("negative supply or demand")
    if nr * nc >= _PATH_CELLS:
        mat = np.asarray(cost)
        if mat.dtype.kind in "iu":
            # Potentials stay below top * (R + C) and a cell's flow times its
            # cost below top * total; both must leave int64 headroom.
            top = max(int(mat.max()), -int(mat.min()), 1)
            if top * (nr + nc) < _INT64_SAFE and top * total < _INT64_SAFE:
                return _array_pass(mat.astype(np.int64, copy=False), supply, demand)
    if isinstance(cost, np.ndarray):
        cost = cost.tolist()
    return _path_pass(cost, supply, demand)


class _Flow:
    """An integral flow with its residual supplies and demands.

    back[j] maps each row with positive flow into column j to that flow, in
    insertion order; its keys are the reverse arcs of the residual network.
    Only positive entries are stored, so a sparse instance (the closed forms'
    cut) holds memory in its arcs, not in rows x columns.
    """

    def __init__(self, supply: list[int], demand: list[int]) -> None:
        self.nr, self.nc = len(supply), len(demand)
        self.rem_s = list(supply)
        self.rem_d = list(demand)
        self.back: list[dict[int, int]] = [dict() for _ in range(self.nc)]
        self.remaining = sum(supply)

    def matrix(self) -> list[list[int]]:
        """The flow as a rows x columns matrix."""
        flow = [[0] * self.nc for _ in range(self.nr)]
        for j, rows in enumerate(self.back):
            for i, f in rows.items():
                flow[i][j] = f
        return flow

    def push_blocking_flows(self, adm: list[int]) -> None:
        """Augment along admissible paths until none reaches a column with demand.

        adm[i] is the mask of the columns that row i may send to (bit j
        stands for column j), without capacity: in the array pass those with
        zero reduced cost, and in the closed forms' minimum cut
        (curvature._max_flow) every low -> up pair.  A reverse arc j -> i
        carries positive flow.  In the array pass an arc with flow has zero
        reduced cost (it and its reverse are both nonnegative), so every
        reverse arc is admissible; the certificate checks this.

        Each phase levels the residual network breadth first, then walks
        augmenting paths depth first.  cols[L] masks the live columns at
        level L, and a node's level is its position on the path, so a row
        takes the lowest bit of its mask and the next level's columns; a
        dead-end column leaves that level's mask.
        """
        nr, nc = self.nr, self.nc
        rem_s, rem_d, back = self.rem_s, self.rem_d, self.back
        while self.remaining > 0:
            level = [0 if s > 0 else -1 for s in rem_s]
            rows = [i for i, s in enumerate(rem_s) if s > 0]
            cols = [0]
            reached = 0
            sink_seen = False
            while rows:
                fresh = 0
                for i in rows:
                    fresh |= adm[i]
                fresh &= ~reached
                reached |= fresh
                cols += (fresh, 0)
                rows = []
                while fresh:  # decode only the columns reached at this level
                    low = fresh & -fresh
                    fresh ^= low
                    j = low.bit_length() - 1
                    if rem_d[j] > 0:
                        sink_seen = True
                    for i in back[j]:
                        if level[i] < 0:
                            level[i] = len(cols) - 1
                            rows.append(i)
            if not sink_seen:
                return
            ptr_col = [0] * nc
            back_snapshot = [list(back[j]) for j in range(nc)]
            for i in range(nr):
                # Walk augmenting paths from row i with an explicit node list
                # (row, column, row, ..., column), never by recursion.
                path = [i]
                while path and rem_s[i] > 0:
                    node = path[-1]
                    depth = len(path)  # the level one past node
                    if node < nr:
                        hit = adm[node] & cols[depth]
                        if hit:
                            path.append(nr + (hit & -hit).bit_length() - 1)
                            continue
                    else:
                        j = node - nr
                        if rem_d[j] > 0:
                            got = min(rem_s[i], rem_d[j])
                            for t in range(2, len(path), 2):
                                got = min(got, back[path[t - 1] - nr][path[t]])
                            rem_d[j] -= got
                            rem_s[i] -= got
                            self.remaining -= got
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
                            if level[r] == depth and r in back[j]:
                                break
                            k += 1
                        ptr_col[j] = k
                        if k < len(snap):
                            path.append(snap[k])
                            continue
                    # Dead end: retreat and drop the node from the level
                    # graph; a column's pointer skips the row it led to.
                    node = path.pop()
                    if node >= nr:
                        cols[depth - 1] ^= 1 << (node - nr)
                        continue
                    level[node] = -1
                    if path:
                        ptr_col[path[-1] - nr] += 1


def _path_pass(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[int, list[list[int]]]:
    """solve_transportation over nested lists, one shortest augmenting path per Dijkstra.

    Each round first fills, greedily, the zero-reduced-cost cells between
    rows with supply and columns with demand; each such push exhausts a row
    or a column, so there are at most R + C of them in all.  If mass is left,
    one Dijkstra pass raises the potentials and the bottleneck is pushed
    along the one shortest path it found, from a row with supply to the
    nearest column with demand.  Ties at one distance settle first in, first
    out, so while the potentials stay put the paths are shortest in arcs
    too, and the number of rounds does not grow with the supplies.
    """
    nr, nc = len(supply), len(demand)
    st = _Flow(supply, demand)
    rem_s, rem_d, back = st.rem_s, st.rem_d, st.back
    # Column reduction: zero row potentials and each column at its cheapest
    # cost are a feasible dual whatever the costs' signs.
    pot = [0] * nr + (list(map(min, zip(*cost))) or [0] * nc)
    while True:
        col_pot = pot[nr:]
        for i, ci, pi in zip(range(nr), cost, pot):
            if not rem_s[i]:
                continue
            for j, c, p in zip(range(nc), ci, col_pot):
                if c + pi == p and rem_d[j]:
                    got = min(rem_s[i], rem_d[j])
                    rem_s[i] -= got
                    rem_d[j] -= got
                    st.remaining -= got
                    back[j][i] = back[j].get(i, 0) + got
                    if not rem_s[i]:
                        break
        if not st.remaining:
            break
        target, parent = _raise_potentials(cost, pot, st)
        # The path's row -> column arcs from the target back to the source
        # row; a row's parent is the column whose reverse arc reached it.
        arcs = []
        j = target
        while j >= 0:
            i = parent[nr + j]
            arcs.append((i, j))
            j = parent[i] - nr
        reverse = [(i, j) for (i, _), (_, j) in zip(arcs, arcs[1:])]
        got = min(rem_s[i], rem_d[target], *(back[j][i] for i, j in reverse))
        rem_s[i] -= got
        rem_d[target] -= got
        st.remaining -= got
        for i, j in arcs:
            back[j][i] = back[j].get(i, 0) + got
        for i, j in reverse:
            if back[j][i] == got:
                del back[j][i]
            else:
                back[j][i] -= got

    # Certify optimality: potentials form a feasible dual with matching objective.
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


def _array_pass(
    cost: np.ndarray, supply: list[int], demand: list[int]
) -> tuple[int, list[list[int]]]:
    """solve_transportation over an int64 matrix: numpy builds the masks and the certificate."""
    nr, nc = cost.shape
    st = _Flow(supply, demand)
    pot = [0] * nr + cost.min(axis=0).tolist()  # the column reduction, as in the path pass
    nested = None
    while True:
        pot_r = np.array(pot[:nr], dtype=np.int64)
        pot_c = np.array(pot[nr:], dtype=np.int64)
        # Bit j of a row's mask is column j: pack each row little-endian.
        packed = np.packbits(cost + pot_r[:, None] == pot_c, axis=1, bitorder="little")
        raw, width = packed.tobytes(), packed.shape[1]
        st.push_blocking_flows(
            [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]
        )
        if not st.remaining:
            break
        if nested is None:  # the Dijkstra reads single cells, faster from lists
            nested = cost.tolist()
        _raise_potentials(nested, pot, st)

    # Certify optimality: potentials form a feasible dual with matching objective.
    arr = np.zeros((nr, nc), dtype=np.int64)
    arr[
        [i for rows in st.back for i in rows],
        [j for j, rows in enumerate(st.back) for _ in rows],
    ] = [f for rows in st.back for f in rows.values()]
    flow = arr.tolist()
    rc = cost + pot_r[:, None] - pot_c
    used = arr > 0
    if (rc < 0).any() or rc[used].any():
        raise RuntimeError("transport solver lost complementary slackness")
    total = sum((arr[used] * cost[used]).tolist())
    _check_dual(total, supply, demand, pot[:nr], pot[nr:])
    return total, flow


def _raise_potentials(
    cost: list[list[int]], pot: list[int], st: _Flow
) -> tuple[int, list[int]]:
    """One Dijkstra pass over reduced costs; raises pot (rows, then columns) in place.

    The pass starts from every row with remaining supply and runs over
    Dial's buckets: buckets[d] lists the nodes reached at distance d, and a
    node is settled the first time it is taken from a bucket.  It stops at
    d*, the distance of the nearest column with remaining demand.  A settled
    row relaxes every column, a settled column only its reverse arcs.
    Returns that column and each node's parent on its shortest path (-1 for
    a source or an unreached node), so the path to the column reads back
    from it.
    """
    nr, nc = st.nr, st.nc
    rem_d, back = st.rem_d, st.back
    col_pot = pot[nr:]
    dist = [float("inf")] * (nr + nc)
    parent = [-1] * (nr + nc)
    buckets: dict[int, list[int]] = {0: []}
    for i, s in enumerate(st.rem_s):
        if s > 0:
            dist[i] = 0
            buckets[0].append(i)
    target = -1
    dstar = 0
    while buckets and target < 0:
        d = min(buckets)
        for node in buckets[d]:  # zero reduced-cost arcs append to this level
            if dist[node] < d:  # settled at a lower level
                continue
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
                        parent[i] = node
                        buckets.setdefault(nd, []).append(i)
            else:
                # a settled column has distance <= d, so it never improves
                base = d + pot[node]
                for nj, c, p in zip(range(nr, nr + nc), cost[node], col_pot):
                    nd = base + c - p
                    if nd < dist[nj]:
                        dist[nj] = nd
                        parent[nj] = node
                        buckets.setdefault(nd, []).append(nj)
        del buckets[d]
    if target < 0:
        raise RuntimeError("transportation problem infeasible")
    # A node not settled below dstar has true distance >= dstar, so the
    # raise is min(true distance, dstar) whatever order ties settled in.
    pot[:] = [p + (dn if dn <= dstar else dstar) for p, dn in zip(pot, dist)]
    return target, parent


def _check_dual(
    total: int, supply: list[int], demand: list[int], pot_r: list[int], pot_c: list[int]
) -> None:
    dual = sum(map(mul, demand, pot_c)) - sum(map(mul, supply, pot_r))
    if dual != total:
        raise RuntimeError("transport dual certificate does not match primal cost")


def _reduced_instance(
    core: CoreNeighborhood,
) -> tuple[list[list[int]] | np.ndarray, list[int], list[int]]:
    """The costs, supplies and demands that w1_primal solves (see there)."""
    dx, dy = core.d_x, core.d_y
    scale = lcm(dx, dy)
    a, b = scale // dx, scale // dy
    supply, demand = [a] * dx, [b] * dy
    rows, cols = core.rows, core.cols
    for z in core.partition.delta:
        supply[bisect_left(rows, z)] -= min(a, b)
        demand[bisect_left(cols, z)] -= min(a, b)
    keep_r = [i for i, s in enumerate(supply) if s]
    keep_c = [j for j, t in enumerate(demand) if t]
    supply = [supply[i] for i in keep_r]
    demand = [demand[j] for j in keep_c]
    cost = core.transport_costs()
    if isinstance(cost, np.ndarray):
        if len(keep_r) < dx or len(keep_c) < dy:
            cost = cost[np.ix_(keep_r, keep_c)]
        return cost, supply, demand
    kept_rows = [cost[i] for i in keep_r]
    if len(keep_c) < dy:
        kept_rows = [[row[j] for j in keep_c] for row in kept_rows]
    by_row: dict[tuple[int, ...], int] = {}
    for row, s in zip(map(tuple, kept_rows), supply):
        by_row[row] = by_row.get(row, 0) + s
    by_col: dict[tuple[int, ...], int] = {}
    for key, t in zip(zip(*by_row), demand):
        by_col[key] = by_col.get(key, 0) + t
    return [list(r) for r in zip(*by_col)], list(by_row.values()), list(by_col.values())


def w1_primal(core: CoreNeighborhood) -> Fraction:
    """Exact W1 between m_x and m_y, the certified optimum of a reduced instance.

    The full instance ships L/d_x from each row of N(x) to L/d_y at each
    column of N(y), L = lcm(d_x, d_y).  W1 reads only m_x - m_y
    (Kantorovich-Rubinstein duality), so it shrinks without changing its
    optimum.  Each vertex of delta keeps min(L/d_x, L/d_y) in place, and
    rows and columns left without mass are dropped, so no cost-0 cell
    remains.  On nested-list costs, rows with equal cost vectors then merge
    into one with their supplies summed, and columns likewise with their
    demands; splitting a merged row or column back is exact.  An ndarray (a
    dense core) is only sliced, since hashing its rows costs more than the
    smaller solve saves.
    """
    total, _ = solve_transportation(*_reduced_instance(core))
    return Fraction(total, lcm(core.d_x, core.d_y))


def _distance_matrix(balls: tuple[list[int], ...]) -> list[list[int]]:
    """Core distances truncated at 4, expanded from CoreNeighborhood.local_distance.

    Entry (i, j) is the least d with bit j in ball_d[i], 0 on the diagonal
    and 4 where no ball holds j.
    """
    mat = []
    for i in range(len(balls[0])):
        row = [4] * len(balls[0])
        row[i] = 0
        inner = 1 << i
        for d, ball in enumerate(balls, start=1):
            fresh = ball[i] ^ inner
            while fresh:
                low = fresh & -fresh
                row[low.bit_length() - 1] = d
                fresh ^= low
            inner = ball[i]
        mat.append(row)
    return mat


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
    dmat = _distance_matrix(core.local_distance())
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
