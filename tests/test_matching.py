import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccigraph import (
    Graph,
    GraphInputError,
    MatchingInstance,
    NotApplicableError,
    core_neighborhood,
    generate_family,
    has_perfect_matching_between_neighborhoods,
    matching_lower_bound,
    max_matching,
    ricci_lp,
    sample_gnp,
    two_matching_lower_bound,
)
from conftest import (
    cycle_graph,
    hall_deficiency_bruteforce,
    max_matching_reference,
    path_graph,
    wagner_graph,
)


def random_instance(rng, amax=8, bmax=8):
    na = rng.randint(1, amax)
    nb = rng.randint(1, bmax)
    left = tuple(range(na))
    right = tuple(range(100, 100 + nb))
    adj = tuple(
        (a, b) for a in left for b in right if rng.random() < rng.choice((0.2, 0.5))
    )
    return MatchingInstance(left=left, right=right, adjacency=adj)


def test_instance_validation():
    with pytest.raises(GraphInputError):
        MatchingInstance(left=(0, 1), right=(1, 2), adjacency=())
    with pytest.raises(GraphInputError):
        MatchingInstance(left=(0,), right=(1,), adjacency=((0, 5),))
    # a repeated id would let one vertex take two partners
    with pytest.raises(GraphInputError):
        MatchingInstance(left=(0, 0), right=(5, 6), adjacency=((0, 5), (0, 6)))
    with pytest.raises(GraphInputError):
        MatchingInstance(left=(0, 1), right=(5, 5), adjacency=((0, 5), (1, 5)))


def test_instance_rejects_a_repeated_id():
    with pytest.raises(GraphInputError, match="^a vertex id repeats within one side$"):
        MatchingInstance(left=(3, 4, 3), right=(7,), adjacency=((3, 7),))


def test_instance_rejects_overlapping_sides():
    with pytest.raises(GraphInputError, match="^left and right sides overlap$"):
        MatchingInstance(left=(1, 2), right=(2, 9), adjacency=((1, 9),))


def test_instance_names_the_first_pair_outside_left_x_right():
    # (5, 8) has its left outside, (2, 1) its right; the message names the first
    with pytest.raises(GraphInputError, match=r"^pair \(5, 8\) is not in left x right$"):
        MatchingInstance(left=(1, 2), right=(8, 9), adjacency=((1, 9), (5, 8), (2, 1)))
    with pytest.raises(GraphInputError, match=r"^pair \(2, 1\) is not in left x right$"):
        MatchingInstance(left=(1, 2), right=(8, 9), adjacency=((1, 9), (2, 1), (5, 8)))


def test_max_matching_complete():
    inst = MatchingInstance(
        left=(0, 1, 2),
        right=(10, 11, 12, 13),
        adjacency=tuple((a, b) for a in (0, 1, 2) for b in (10, 11, 12, 13)),
    )
    res = max_matching(inst)
    assert res.size == 3
    # ascending scan pairs each left vertex with the least free right vertex
    assert res.pairs == ((0, 10), (1, 11), (2, 12))


def test_max_matching_forced_augmentation():
    # 0 grabs 10 first, then 1 forces it across to 11
    inst = MatchingInstance(
        left=(0, 1), right=(10, 11), adjacency=((0, 10), (0, 11), (1, 10))
    )
    res = max_matching(inst)
    assert res.size == 2
    assert res.pairs == ((0, 11), (1, 10))


def test_max_matching_empty_adjacency():
    inst = MatchingInstance(left=(0, 1), right=(2, 3), adjacency=())
    res = max_matching(inst)
    assert res.size == 0 and res.pairs == ()


def test_matching_deterministic():
    rng = random.Random(10)
    for _ in range(30):
        inst = random_instance(rng)
        a = max_matching(inst)
        b = max_matching(inst)
        assert a.pairs == b.pairs


def test_hall_deficiency_small_cases():
    # one right vertex shared by three lefts: deficiency 2
    inst = MatchingInstance(
        left=(0, 1, 2), right=(9,), adjacency=((0, 9), (1, 9), (2, 9))
    )
    assert hall_deficiency_bruteforce(inst) == 2
    assert max_matching(inst).size == 1


def test_hall_deficiency_cross_check():
    rng = random.Random(8080)
    for _ in range(200):
        inst = random_instance(rng, amax=10, bmax=10)
        deficiency = hall_deficiency_bruteforce(inst)
        assert max_matching(inst).size == len(inst.left) - deficiency


def test_deficiency_isolated_lefts():
    inst = MatchingInstance(left=(0, 1, 2), right=(7, 8), adjacency=((0, 7),))
    assert hall_deficiency_bruteforce(inst) == 2


def test_perfect_matching_c4_edge():
    g = cycle_graph(4)
    ok, result = has_perfect_matching_between_neighborhoods(g, 0, 1)
    assert ok
    assert result.size == 2


def test_perfect_matching_petersen_edge_fails():
    g = generate_family("petersen", [])
    ok, result = has_perfect_matching_between_neighborhoods(g, 0, 1)
    assert not ok
    assert result.size < 3


def test_perfect_matching_q3_saturated():
    g = generate_family("hypercube", [3])
    for u, v in g.edges():
        ok, _ = has_perfect_matching_between_neighborhoods(g, u, v)
        assert ok


def test_perfect_matching_needs_equal_degrees():
    g = path_graph(3)
    with pytest.raises(NotApplicableError):
        has_perfect_matching_between_neighborhoods(g, 0, 1)


def test_matching_bound_values():
    # P5 middle edge: the endpoint pairs saturate the matching bound at zero,
    # while the leaf-to-leaf 2-matching finds nothing within distance two
    g = path_graph(5)
    bp = matching_lower_bound(g, 1, 2)
    assert bp.lower == 0 and bp.upper == 0
    assert two_matching_lower_bound(g, 1, 2).lower == -1
    g = generate_family("complete_bipartite", [3, 3])
    bp = two_matching_lower_bound(g, 0, 3)
    assert bp.lower == Fraction(-2, 3)
    bp = two_matching_lower_bound(cycle_graph(5), 0, 1)
    assert bp.lower == Fraction(-1, 2)


def test_matching_bound_saturation_note():
    g = generate_family("hypercube", [3])
    bp = matching_lower_bound(g, 0, 1)
    assert bp.note == "saturated"
    assert bp.lower == 0 == bp.upper


def test_bounds_sit_below_kappa():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(4, 10)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        for u, v in g.edges():
            k = ricci_lp(g, u, v).kappa
            assert matching_lower_bound(g, u, v).lower <= k
            assert two_matching_lower_bound(g, u, v).lower <= k


def test_matching_criterion_vs_kappa_on_regular_graphs():
    # kappa hits its upper bound exactly where the perfect matching exists;
    # the second graph mixes matched and unmatched edges
    from conftest import nonflat_cubic_girth4

    for g in (wagner_graph(), nonflat_cubic_girth4()):
        seen = set()
        for u, v in g.edges():
            ok, _ = has_perfect_matching_between_neighborhoods(g, u, v)
            assert ok == (ricci_lp(g, u, v).kappa == 0)
            seen.add(ok)
    assert seen == {True, False}


@st.composite
def matching_instances(draw):
    # duplicate pairs, empty sides and isolated lefts all occur; ids on the
    # two sides interleave so right order is not insertion order
    na = draw(st.integers(0, 8))
    nb = draw(st.integers(0, 8))
    ids = draw(st.permutations(range(na + nb)))
    left, right = tuple(ids[:na]), tuple(ids[na:])
    pairs = ()
    if left and right:
        # up to 30 draws from at most 64 pairs repeat often
        pairs = tuple(
            draw(st.lists(st.tuples(st.sampled_from(left), st.sampled_from(right)), max_size=30))
        )
    return MatchingInstance(left=left, right=right, adjacency=pairs)


@settings(max_examples=300, deadline=None)
@given(matching_instances())
@example(MatchingInstance(left=(3, 1), right=(2, 0), adjacency=((3, 0), (3, 0), (1, 0), (3, 2))))
@example(MatchingInstance(left=(), right=(4, 5), adjacency=()))
@example(MatchingInstance(left=(0, 1, 2), right=(), adjacency=()))
@example(MatchingInstance(left=(0, 1, 2), right=(7,), adjacency=((2, 7),)))
def test_max_matching_equals_reference(inst):
    res = max_matching(inst)
    assert res.pairs == max_matching_reference(inst)
    assert res.size == len(res.pairs)


def test_max_matching_long_forced_chain():
    # left i sees rights i and i + 1 (right r has id R + r) and takes right i;
    # the last left sees only right 0, which forces one augmenting path
    # through every earlier left to the free right n
    n, R = 20_000, 100_000
    adjacency = [(i, R + r) for i in range(n) for r in (i, i + 1)] + [(n, R)]
    inst = MatchingInstance(
        left=tuple(range(n + 1)),
        right=tuple(range(R, R + n + 1)),
        adjacency=tuple(adjacency),
    )
    res = max_matching(inst)
    assert res.size == n + 1
    assert res.pairs == tuple((i, R + i + 1) for i in range(n)) + ((n, R),)


@pytest.mark.parametrize(
    "g",
    [
        generate_family("petersen", []),
        generate_family("complete", [7]),
        sample_gnp(60, 0.2, 7, (0, 1)),
        sample_gnp(80, 0.12, 7, (0, 1)),
    ],
    ids=["petersen", "K7", "gnp60", "gnp80"],
)
def test_ball_1_on_q_sides_is_adjacency(g):
    # The matching bound pairs Q(x) x Q(y) through ball_1.  Neither side
    # meets delta or P, so no phi edge is lost and a bit is exactly an edge.
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            core = core_neighborhood(g, x, y)
            ball_1, idx = core.local_distance()[0], core.index
            delta = set(core.partition.delta)
            for a in core.rows:
                for b in core.cols:
                    if a not in delta and b not in delta:
                        assert (ball_1[idx[a]] >> idx[b] & 1) == g.has_edge(a, b), (x, y, a, b)
