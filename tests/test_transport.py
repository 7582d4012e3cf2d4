import itertools
import json
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccigraph
from riccigraph import (
    Graph,
    core_neighborhood,
    solve_transportation,
    transport,
    w1_dual_oracle,
    w1_primal,
)
from riccigraph.graph import _DENSE_CELLS
from riccigraph.randgraph import canonical_regime_params, replicate_seed, sample_gnp
from riccigraph.errors import OracleCapExceededError
from conftest import (
    check_certificates,
    list_pass_reference,
    push_blocking_flows_reference,
    random_girth5_graphs,
)


def brute_min_cost(cost, supply, demand):
    """Reference solver: recursion over cells, feasible integral flows only.

    The search prunes a branch once its partial sum reaches the best total,
    which holds only for costs >= 0.  So it runs on the costs less their least
    one: every feasible flow ships sum(supply) units, which moves every total
    by the same least * sum(supply).
    """
    least = min((c for row in cost for c in row), default=0)
    cost = [[c - least for c in row] for row in cost]
    nr, nc = len(supply), len(demand)
    best = [None]

    def go(i, rem_s, rem_d, acc):
        if best[0] is not None and acc >= best[0]:
            return
        if i == nr:
            if all(d == 0 for d in rem_d):
                best[0] = acc
            return
        # enumerate splits of row i over the columns
        def split(j, left, add):
            if best[0] is not None and acc + add >= best[0]:
                return
            if j == nc:
                if left == 0:
                    go(i + 1, rem_s, rem_d, acc + add)
                return
            top = min(left, rem_d[j])
            for f in range(top + 1):
                rem_d[j] -= f
                split(j + 1, left - f, add + f * cost[i][j])
                rem_d[j] += f

        split(0, rem_s[i], 0)

    go(0, list(supply), list(demand), 0)
    return None if best[0] is None else best[0] + least * sum(supply)


def test_transportation_small_known():
    total, flow = solve_transportation([[0, 2], [1, 0]], [3, 4], [3, 4])
    assert total == 0
    assert flow == [[3, 0], [0, 4]]
    total, flow = solve_transportation([[2]], [5], [5])
    assert total == 10
    assert flow == [[5]]


def test_transportation_forced_detour():
    # the greedy diagonal would pay 101; the optimum crosses over
    cost = [[1, 3], [2, 100]]
    total, flow = solve_transportation(cost, [1, 1], [1, 1])
    assert total == 5
    assert flow == [[0, 1], [1, 0]]


def test_transportation_matches_bruteforce():
    rng = random.Random(99)
    for _ in range(120):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        cost = [[rng.randint(0, 6) for _ in range(nc)] for _ in range(nr)]
        supply = [rng.randint(0, 4) for _ in range(nr)]
        total = sum(supply)
        cuts = sorted(rng.randint(0, total) for _ in range(nc - 1))
        demand = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        got, flow = solve_transportation(cost, supply, demand)
        assert got == brute_min_cost(cost, supply, demand)
        for i in range(nr):
            assert sum(flow[i]) == supply[i]
            assert all(f >= 0 for f in flow[i])
        for j in range(nc):
            assert sum(flow[i][j] for i in range(nr)) == demand[j]


def test_transportation_scaling():
    rng = random.Random(7)
    for _ in range(30):
        cost = [[rng.randint(0, 5) for _ in range(3)] for _ in range(2)]
        supply = [rng.randint(1, 5), rng.randint(1, 5)]
        total = sum(supply)
        demand = [total - 2, 1, 1] if total > 2 else [total, 0, 0]
        base, _ = solve_transportation(cost, supply, demand)
        for c in (2, 7):
            scaled, _ = solve_transportation(
                cost, [c * s for s in supply], [c * d for d in demand]
            )
            assert scaled == c * base


def test_transportation_permutation_invariance():
    rng = random.Random(21)
    cost = [[rng.randint(0, 9) for _ in range(4)] for _ in range(4)]
    supply = [2, 3, 1, 4]
    demand = [4, 2, 3, 1]
    base, _ = solve_transportation(cost, supply, demand)
    for perm in itertools.permutations(range(4)):
        pc = [[cost[i][perm[j]] for j in range(4)] for i in range(4)]
        pd = [demand[perm[j]] for j in range(4)]
        got, _ = solve_transportation(pc, supply, pd)
        assert got == base


def test_transportation_input_errors():
    with pytest.raises(ValueError):
        solve_transportation([[1]], [2], [3])
    with pytest.raises(ValueError):
        solve_transportation([[1]], [-1], [-1])
    with pytest.raises(ValueError):
        solve_transportation([[1, 2]], [1], [1])
    with pytest.raises(ValueError):
        solve_transportation([[1], [2]], [1], [1])


def test_transportation_matches_highs():
    # An independent float LP (scipy's HiGHS) on uniform supplies lcm/d; the
    # transportation polytope is integral, so its optimum is an integer.
    linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    rng = random.Random(2024)
    for k in range(60):
        nr, nc = rng.randint(1, 40), rng.randint(1, 40)
        if k % 10 == 3:  # above _DENSE_CELLS, so the array pass answers
            nr, nc = rng.randint(50, 60), rng.randint(50, 60)
        top = 100 if k % 6 == 0 else 3
        cost = [[rng.randint(0, top) for _ in range(nc)] for _ in range(nr)]
        scale = lcm(nr, nc)
        supply, demand = [scale // nr] * nr, [scale // nc] * nc
        total, _ = solve_transportation(cost, supply, demand)
        rows_eq = np.kron(np.eye(nr), np.ones((1, nc)))
        cols_eq = np.kron(np.ones((1, nr)), np.eye(nc))
        res = linprog(
            np.array(cost, dtype=float).ravel(),
            A_eq=np.vstack([rows_eq, cols_eq]),
            b_eq=supply + demand,
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0, res.message
        assert abs(res.fun - round(res.fun)) < 1e-6
        assert round(res.fun) == total


def _pass_corpus():
    """Seeded instances of 50..200 per side, then G(n, p) marked edges.

    Regime e's marked edges mostly need a Dijkstra round after the first
    blocking flow, so they reach the shared Dijkstra from the array pass.
    """
    rng = random.Random(808)
    for k in range(40):
        nr, nc = rng.randint(50, 200), rng.randint(50, 200)
        top = 100 if k % 10 == 0 else 3
        cost = [[rng.randint(0, top) for _ in range(nc)] for _ in range(nr)]
        if k % 2:
            scale = lcm(nr, nc)
            supply, demand = [scale // nr] * nr, [scale // nc] * nc
        else:
            supply = [rng.randint(0, 9) for _ in range(nr)]
            total = sum(supply)
            cuts = sorted(rng.randint(0, total) for _ in range(nc - 1))
            demand = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        yield cost, supply, demand
    marked = [("e", 7)] + [("e", replicate_seed(7, r)) for r in range(4)] + [("f", 7)]
    for regime, seed in marked:
        n, p = canonical_regime_params("gnp", regime)
        core = core_neighborhood(sample_gnp(n, p, seed, (0, 1)), 0, 1)
        scale = lcm(core.d_x, core.d_y)
        yield (
            core.transport_costs().tolist(),
            [scale // core.d_x] * core.d_x,
            [scale // core.d_y] * core.d_y,
        )
    yield from _warm_start_corpus()


def _warm_start_corpus():
    """Dense instances whose columns' cheapest costs differ: 0, 2, 3 and -2.

    The column-reduced start then admits each column's own cheapest cells,
    where a first Dijkstra from zero potentials would admit only the cells
    at the smallest of those minima.
    """
    rng = random.Random(1515)
    for k in range(6):
        nr, nc = rng.randint(50, 70), rng.randint(50, 70)
        floors = [(0, 2, 3, -2)[j % 4] for j in range(nc)]
        cost = [[f + rng.randint(1, 4) for f in floors] for _ in range(nr)]
        for j, f in enumerate(floors):
            for _ in range(rng.randint(1, 3)):
                cost[rng.randrange(nr)][j] = f
        if k % 2:
            scale = lcm(nr, nc)
            supply, demand = [scale // nr] * nr, [scale // nc] * nc
        else:
            supply = [rng.randint(0, 9) for _ in range(nr)]
            total = sum(supply)
            cuts = sorted(rng.randint(0, total) for _ in range(nc - 1))
            demand = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        yield cost, supply, demand


def test_list_and_array_passes_agree(monkeypatch):
    # The array pass must return the same (total, flow) as the list reference,
    # not only the same total: both push the same blocking flows.
    rounds = []
    dijkstra = transport._raise_potentials

    def counted(*args):
        rounds.append(1)
        return dijkstra(*args)

    monkeypatch.setattr(transport, "_raise_potentials", counted)
    array_dijkstra = 0
    for cost, supply, demand in _pass_corpus():
        assert len(cost) * len(cost[0]) >= _DENSE_CELLS
        before = len(rounds)
        got = transport._array_pass(np.array(cost, dtype=np.int64), supply, demand)
        array_dijkstra += len(rounds) > before
        assert got == list_pass_reference(cost, supply, demand)
        assert solve_transportation(cost, supply, demand) == got
    # the array pass must reach the shared Dijkstra, not only its first flow
    assert array_dijkstra


def test_warm_start_instances_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for cost, supply, demand in _warm_start_corpus():
        nr, nc = len(supply), len(demand)
        assert nr * nc >= _DENSE_CELLS
        assert {min(col) for col in zip(*cost)} == {0, 2, 3, -2}
        total, _ = solve_transportation(cost, supply, demand)
        res = linprog(
            np.array(cost, dtype=float).ravel(),
            A_eq=np.vstack([np.kron(np.eye(nr), np.ones((1, nc))),
                            np.kron(np.ones((1, nr)), np.eye(nc))]),
            b_eq=supply + demand,
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0, res.message
        assert abs(res.fun - total) < 1e-6


# Each case is solved in a child process under a timeout, so that a solver
# that stops terminating fails the test instead of hanging the suite.
_SOLVE_IN_CHILD = """
import json, sys
from riccigraph import solve_transportation
print(json.dumps([solve_transportation(*case) for case in json.load(sys.stdin)]))
"""


def _random_demand(rng, total, nc):
    cuts = sorted(rng.randint(0, total) for _ in range(nc - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_transportation_negative_costs_terminate():
    rng = random.Random(1503)
    cases = [
        ([[-1]], [1], [1]),
        ([[-1, 2], [3, -2]], [1, 1], [1, 1]),
        # pruning on partial sums of these unshifted costs finds -1
        ([[0, 3, -1], [4, -1, 1], [5, -3, 0]], [2, 4, 1], [1, 2, 4]),
    ]
    for _ in range(60):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        cost = [[rng.randint(-3, 6) for _ in range(nc)] for _ in range(nr)]
        supply = [rng.randint(0, 4) for _ in range(nr)]
        cases.append((cost, supply, _random_demand(rng, sum(supply), nc)))
    assert any(c < 0 for cost, _, _ in cases[3:] for row in cost for c in row)
    # Supplies scaled by 10**12: a pass whose augmentations grew with the
    # supplies would run past the timeout instead of answering.
    big = 10**12
    scaled = [(cost, [big * s for s in supply], [big * d for d in demand])
              for cost, supply, demand in cases]
    wide = []
    for _ in range(20):
        nr, nc = rng.randint(5, 11), rng.randint(5, 13)
        cost = [[rng.randint(-3, 6) for _ in range(nc)] for _ in range(nr)]
        supply = [big * rng.randint(0, 9) + rng.randint(0, 9) for _ in range(nr)]
        wide.append((cost, supply, _random_demand(rng, sum(supply), nc)))
    assert all(len(cost) * len(cost[0]) < transport._PATH_CELLS for cost, _, _ in wide)
    env = dict(os.environ, PYTHONPATH=str(Path(riccigraph.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVE_IN_CHILD],
        input=json.dumps(cases + scaled + wide),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)
    assert [total for total, _ in answers[:3]] == [-1, -3, -2]
    want = [brute_min_cost(*case) for case in cases]
    want += [big * total for total in want]
    want += [list_pass_reference(*case)[0] for case in wide]
    for (cost, supply, demand), (total, flow), best in zip(cases + scaled + wide, answers, want):
        assert total == best
        assert [sum(row) for row in flow] == supply
        assert [sum(col) for col in zip(*flow)] == demand
        assert all(f >= 0 for row in flow for f in row)
        assert total == sum(f * c for fr, cr in zip(flow, cost) for f, c in zip(fr, cr))


@st.composite
def walk_instances(draw):
    """A flow's supplies and demands with two admissible sets, as column masks."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    supply = draw(st.lists(st.integers(0, 4), min_size=nr, max_size=nr))
    demand = draw(st.lists(st.integers(0, 4), min_size=nc, max_size=nc))
    masks = st.lists(st.integers(0, (1 << nc) - 1), min_size=nr, max_size=nr)
    return supply, demand, draw(masks), draw(masks)


@settings(max_examples=400, deadline=None)
@given(walk_instances())
def test_blocking_flow_walk_equals_reference(case):
    # The second call starts from the first call's flow, so its levels run
    # through reverse arcs as well.
    supply, demand, *adms = case
    got, want = transport._Flow(supply, demand), transport._Flow(supply, demand)
    for adm in adms:
        got.push_blocking_flows(adm)
        push_blocking_flows_reference(
            want, [[j for j in range(len(demand)) if m >> j & 1] for m in adm]
        )
        assert [list(b.items()) for b in got.back] == [list(b.items()) for b in want.back]
        assert (got.rem_s, got.rem_d, got.remaining) == (want.rem_s, want.rem_d, want.remaining)


def test_costs_near_int64_take_list_pass(monkeypatch):
    # Costs near 2**61 could overflow int64 potentials, so the dense instance
    # goes to the path pass; shifting every cost by K adds K per unit shipped.
    rng = random.Random(61)
    nr, nc = 60, 70
    cost = [[rng.randint(0, 3) for _ in range(nc)] for _ in range(nr)]
    scale = lcm(nr, nc)
    supply, demand = [scale // nr] * nr, [scale // nc] * nc
    base, _ = solve_transportation(cost, supply, demand)
    shift = 2**61
    big = [[c + shift for c in row] for row in cost]

    def refuse(*args):
        raise AssertionError("int64-unsafe instance took the array pass")

    monkeypatch.setattr(transport, "_array_pass", refuse)
    total, flow = solve_transportation(big, supply, demand)
    assert total == base + shift * scale
    assert [sum(row) for row in flow] == supply
    assert [sum(col) for col in zip(*flow)] == demand
    assert total == sum(f * c for fr, cr in zip(flow, big) for f, c in zip(fr, cr))


@st.composite
def path_instances(draw):
    """1..63 cells, or a side with no vertex; costs of any sign; four units at most.

    Each unit leaves a drawn row and enters a drawn column, so supplies and
    demands of zero are common and the brute force stays small.
    """
    nr = draw(st.integers(0, 9))
    nc = draw(st.integers(1, 9)) if nr == 0 else draw(st.integers(0, min(9, 63 // nr)))
    cost = draw(st.lists(
        st.lists(st.integers(-5, 9), min_size=nc, max_size=nc), min_size=nr, max_size=nr
    ))
    units = draw(st.integers(0, 4)) if nr and nc else 0
    supply, demand = [0] * nr, [0] * nc
    for _ in range(units):
        supply[draw(st.integers(0, nr - 1))] += 1
        demand[draw(st.integers(0, nc - 1))] += 1
    return cost, supply, demand


@settings(max_examples=300, deadline=None)
@given(path_instances())
def test_path_pass_matches_bruteforce(case):
    cost, supply, demand = case
    nr, nc = len(supply), len(demand)
    total, flow = transport._path_pass(cost, supply, demand)
    assert total == brute_min_cost(cost, supply, demand)
    assert [sum(row) for row in flow] == supply
    assert [sum(flow[i][j] for i in range(nr)) for j in range(nc)] == demand
    assert all(f >= 0 for row in flow for f in row)
    assert total == sum(f * c for fr, cr in zip(flow, cost) for f, c in zip(fr, cr))


def _highs_total(cost, supply, demand):
    """The optimum of scipy's HiGHS on the transportation LP, as a float."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    nr, nc = len(supply), len(demand)
    res = linprog(
        np.array(cost, dtype=float).ravel(),
        A_eq=np.vstack([np.kron(np.eye(nr), np.ones((1, nc))),
                        np.kron(np.ones((1, nr)), np.eye(nc))]),
        b_eq=supply + demand,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def test_path_pass_matches_highs_on_sparse_cores():
    # the reduced instances of seeded sparse graphs' edges below the switch
    solved = 0
    for seed, (n, p) in enumerate([(200, 0.03), (300, 0.02), (150, 0.05)]):
        g = sample_gnp(n, p, seed, (0, 1))
        for u, v in list(g.edges())[:60]:
            cost, supply, demand = transport._reduced_instance(core_neighborhood(g, u, v))
            if len(supply) * len(demand) >= transport._PATH_CELLS:
                continue
            total, _ = solve_transportation(cost, supply, demand)
            assert abs(_highs_total(cost, supply, demand) - total) < 1e-6
            solved += 1
    assert solved > 150


def test_pass_routing_by_cell_count(monkeypatch):
    # Fewer than _PATH_CELLS cells take the path pass; at or above it, costs
    # that keep int64 safe take the array pass, as lists or as an ndarray.
    rng = random.Random(144)
    k = transport._PATH_CELLS

    def instances(shapes):
        for nr, nc in shapes:
            cost = [[rng.randint(-2, 3) for _ in range(nc)] for _ in range(nr)]
            supply = [rng.randint(0, 5) if nc else 0 for _ in range(nr)]
            demand = _random_demand(rng, sum(supply), nc) if nc else []
            yield cost, supply, demand
            yield np.array(cost, dtype=np.int64).reshape(nr, nc), supply, demand

    def refuse(name):
        def call(*args):
            raise AssertionError(f"took {name}")
        return call

    below = [(1, k - 1), (k - 1, 1), (9, 9), (0, 4), (4, 0), (1, 1)]
    above = [(1, k), (k, 1), (12, 12), (20, 30)]
    assert all(nr * nc < k for nr, nc in below)
    assert all(nr * nc >= k for nr, nc in above)
    monkeypatch.setattr(transport, "_array_pass", refuse("the array pass"))
    for cost, supply, demand in instances(below):
        total, _ = solve_transportation(cost, supply, demand)
        assert total == list_pass_reference(np.asarray(cost).tolist(), supply, demand)[0]
    monkeypatch.undo()
    monkeypatch.setattr(transport, "_path_pass", refuse("the path pass"))
    for cost, supply, demand in instances(above):
        total, _ = solve_transportation(cost, supply, demand)
        assert total == list_pass_reference(np.asarray(cost).tolist(), supply, demand)[0]


def test_under_raised_potentials_fail_the_certificate(monkeypatch):
    # The forced detour needs one Dijkstra raise of 1.  Raised by one less,
    # the potentials leave the path's cells with positive reduced cost, and
    # the path pass must refuse to return a total.
    cost, supply, demand = [[1, 3], [2, 100]], [1, 1], [1, 1]
    assert solve_transportation(cost, supply, demand)[0] == 5
    dijkstra = transport._raise_potentials

    def under_raise(cost, pot, st):
        before = list(pot)
        found = dijkstra(cost, pot, st)
        pot[:] = [b + max(p - b - 1, 0) for b, p in zip(before, pot)]
        return found

    monkeypatch.setattr(transport, "_raise_potentials", under_raise)
    with pytest.raises(RuntimeError, match="complementary slackness|dual certificate"):
        solve_transportation(cost, supply, demand)


def test_transportation_long_alternating_path():
    # Rows 0..n-1 take columns 0..n-1; row n then reaches the free column n
    # only by an augmenting path through all n + 1 rows and columns, deeper
    # than the interpreter's recursion limit allows a recursive walk to go.
    n = 700
    cost = [[3] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        cost[i][i] = 0
        cost[i][i + 1] = 0
    cost[n][0] = 0
    total, flow = solve_transportation(cost, [1] * (n + 1), [1] * (n + 1))
    assert total == 0
    assert all(sum(row) == 1 for row in flow)
    assert all(sum(col) == 1 for col in zip(*flow))


def test_w1_single_edge():
    g = Graph(2, [(0, 1)])
    core = core_neighborhood(g, 0, 1)
    assert w1_primal(core) == 1
    assert core.rows == (1,) and core.cols == (0,)
    assert solve_transportation(core.transport_costs(), [1], [1]) == (1, [[1]])


def _reduction_cases():
    """Oriented edges of seeded G(n, p) graphs (nested-list costs), then the
    marked edges of regime-f replicates (ndarray costs)."""
    for seed, (n, p) in enumerate([(30, 0.3), (60, 0.15), (80, 0.1), (40, 0.5)]):
        g = sample_gnp(n, p, seed, (0, 1))
        for u, v in list(g.edges())[:60]:
            yield "list", core_neighborhood(g, u, v)
            yield "list", core_neighborhood(g, v, u)
    n, p = canonical_regime_params("gnp", "f")
    for index in range(3):
        g = sample_gnp(n, p, replicate_seed(7, index), (0, 1))
        yield "ndarray", core_neighborhood(g, 0, 1)


def test_reduced_instance_keeps_w1():
    # W1 reads only m_x - m_y: cancelling the common mass on delta and
    # merging equal cost vectors leaves the unreduced optimum in place.
    cells = {"list": [0, 0], "ndarray": [0, 0]}
    for form, core in _reduction_cases():
        dx, dy = core.d_x, core.d_y
        scale = lcm(dx, dy)
        full = core.transport_costs()
        assert isinstance(full, np.ndarray) == (form == "ndarray")
        unreduced, _ = solve_transportation(full, [scale // dx] * dx, [scale // dy] * dy)
        assert w1_primal(core) * scale == unreduced
        cost, supply, demand = transport._reduced_instance(core)
        assert isinstance(cost, np.ndarray) == (form == "ndarray")
        assert all(c > 0 for row in np.asarray(cost).tolist() for c in row)
        assert all(supply) and all(demand) and sum(supply) == sum(demand)
        cells[form][0] += dx * dy
        cells[form][1] += len(supply) * len(demand)
    # every form shrinks: the list form merges, and regime f has triangles
    assert all(after < before for before, after in cells.values()), cells


def test_w1_symmetry():
    for g in random_girth5_graphs(seed=31, count=15, nmax=12):
        for u, v in g.edges():
            a = w1_primal(core_neighborhood(g, u, v))
            b = w1_primal(core_neighborhood(g, v, u))
            assert a == b


def test_primal_dual_agreement_random():
    # duality on small random graphs, certificates validated independently
    rng = random.Random(271)
    for _ in range(60):
        n = rng.randint(4, 11)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        for u, v in g.edges():
            core = core_neighborhood(g, u, v)
            value = w1_primal(core)
            dual, witness = w1_dual_oracle(core)
            assert value == dual
            check_certificates(core, value, witness)


def test_dual_orientation_flip():
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])
    a, _ = w1_dual_oracle(core_neighborhood(g, 0, 1))
    b, _ = w1_dual_oracle(core_neighborhood(g, 1, 0))
    assert a == b


def test_oracle_cap_enforced():
    from riccigraph import generate_family

    g = generate_family("complete_bipartite", [5, 5])
    core = core_neighborhood(g, 0, 5)
    with pytest.raises(OracleCapExceededError):
        w1_dual_oracle(core, cap=3)


def test_witness_values_are_integers():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)])
    core = core_neighborhood(g, 0, 1)
    value, witness = w1_dual_oracle(core)
    assert all(isinstance(t, int) for t in witness.values.values())
    assert witness.objective == value
