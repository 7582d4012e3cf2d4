"""Acceptance gate: one test per criterion, run with pytest -v for the
pass/fail line per criterion.

Criteria 1 and 7 carry wall-clock budgets (2 and 15 minutes); both are
asserted, not just hoped for.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from riccigraph import (
    ExperimentConfig,
    MatchingInstance,
    NotApplicableError,
    core_neighborhood,
    curvature_bounds,
    generate_family,
    has_perfect_matching_between_neighborhoods,
    is_ricci_flat,
    classify_girth5_flat,
    max_matching,
    neighbor_partition,
    ricci_auto,
    ricci_formula,
    ricci_lp,
    run_experiment,
    girth_at_least,
    w1_dual_oracle,
    w1_primal,
    write_edge_list,
)
from conftest import (
    cycle_graph,
    full_corpus,
    hall_deficiency_bruteforce,
    nonfamily_girth5_graphs,
    path_graph,
    random_trees,
    star_graph,
)

ORACLE_CAP = 40


def test_criterion_1_triple_agreement():
    started = time.monotonic()
    edges = 0
    formulas = 0
    for label, g in full_corpus():
        for u, v in g.edges():
            core = core_neighborhood(g, u, v)
            primal = w1_primal(core)
            dual, _ = w1_dual_oracle(core, cap=ORACLE_CAP)
            assert primal == dual, (label, u, v)
            try:
                res = ricci_formula(g, u, v)
            except NotApplicableError:
                res = None
            if res is not None:
                assert res.kappa == 1 - primal, (label, u, v, res.method)
                formulas += 1
            edges += 1
    elapsed = time.monotonic() - started
    assert edges > 2500
    assert formulas > edges - 50
    assert elapsed < 120, f"triple agreement took {elapsed:.1f}s"
    print(f"criterion 1: {edges} edges, {formulas} formula hits, {elapsed:.1f}s")


def test_criterion_2_named_values():
    for p in range(1, 6):
        for q in range(p, 6):
            g = generate_family("complete_bipartite", [p, q])
            for u, v in g.edges():
                assert ricci_lp(g, u, v).kappa == 0
    for d in (3, 4):
        g = generate_family("hypercube", [d])
        for u, v in g.edges():
            assert ricci_lp(g, u, v).kappa == 0
    for n in range(4, 13):
        g = cycle_graph(n)
        for u, v in g.edges():
            assert ricci_lp(g, u, v).kappa == 0
    for g in random_trees():
        for u, v in g.edges():
            expect = -2 * max(
                Fraction(0),
                1 - Fraction(1, g.degree(u)) - Fraction(1, g.degree(v)),
            )
            assert ricci_lp(g, u, v).kappa == expect


def test_criterion_3_bound_sandwich():
    girth5_min_degree2 = 0
    for label, g in full_corpus():
        delta_min = min(g.degrees(), default=0)
        g5 = girth_at_least(g, 5)
        for u, v in g.edges():
            k = ricci_auto(g, u, v, cap=ORACLE_CAP).kappa
            for bp in curvature_bounds(g, u, v):
                assert bp.lower <= k <= bp.upper, (label, u, v, bp.source)
                if bp.source == "cho_paeng_girth5" and delta_min >= 2:
                    assert g5
                    assert k <= Fraction(-1) + Fraction(2, delta_min)
                    girth5_min_degree2 += 1
    assert girth5_min_degree2 > 0


def test_criterion_4_perfect_matching_characterization():
    matched = unmatched = 0
    for label, g in full_corpus():
        for u, v in g.edges():
            if g.degree(u) != g.degree(v):
                continue
            part = neighbor_partition(g, u, v)
            at_upper = ricci_auto(g, u, v, cap=ORACLE_CAP).kappa == Fraction(
                len(part.delta), g.degree(u)
            )
            has_pm, _ = has_perfect_matching_between_neighborhoods(g, u, v)
            assert at_upper == has_pm, (label, u, v)
            if has_pm:
                matched += 1
            else:
                unmatched += 1
    # both directions of the equivalence must actually occur in the corpus
    assert matched > 0 and unmatched > 0


def test_criterion_5_hall_deficiency_oracle():
    rng = random.Random(1848)
    for trial in range(200):
        na = rng.randint(1, 10)
        nb = rng.randint(1, 10)
        density = rng.choice((0.15, 0.35, 0.6, 0.9))
        adjacency = tuple(
            (a, 50 + b)
            for a in range(na)
            for b in range(nb)
            if rng.random() < density
        )
        inst = MatchingInstance(
            left=tuple(range(na)),
            right=tuple(range(50, 50 + nb)),
            adjacency=adjacency,
        )
        deficiency = hall_deficiency_bruteforce(inst)
        assert max_matching(inst).size == na - deficiency, trial


def test_criterion_6_girth5_flat_classification():
    for n in range(2, 21):
        rep = classify_girth5_flat(path_graph(n))
        assert rep.is_flat and rep.classification == "path"
    for n in range(5, 21):
        rep = classify_girth5_flat(cycle_graph(n))
        assert rep.is_flat and rep.classification == "cycle"
    # stars with k >= 3 leaves; the two-leaf star is already the path P3
    for n in range(4, 22):
        rep = classify_girth5_flat(star_graph(n))
        assert rep.is_flat and rep.classification == "star"
    graphs = nonfamily_girth5_graphs(count=100)
    assert len(graphs) == 100
    for g in graphs:
        rep = is_ricci_flat(g)
        assert not rep.is_flat
        assert rep.witness_edge is not None


def test_criterion_7_random_graph_regimes():
    started = time.monotonic()

    # regime (a): marked edge isolated with probability -> 1, kappa = 0 there
    rep = run_experiment(
        ExperimentConfig(model="gnp", n=10_000, p=1e-6, replicates=200, seed=1003)
    )
    assert rep.limit.regime == "a"
    assert rep.isolated_fraction >= 0.95
    for row in rep.rows:
        if row.isolated:
            assert row.kappa == 0

    # regime (b): bipartite kappa distribution vs the two-Poisson limit law
    rep = run_experiment(
        ExperimentConfig(
            model="bipartite", n=5000, p=3 / 5000, replicates=500, seed=4242
        )
    )
    assert rep.limit.kind == "tree_distribution" and rep.limit.lam == 3.0
    assert rep.skipped == 0
    assert rep.distance_to_limit <= 0.05

    # regime (f): dense case, median near p
    rep = run_experiment(
        ExperimentConfig(model="gnp", n=400, p=0.5, replicates=100, seed=1002)
    )
    assert rep.limit.value == Fraction(1, 2)
    assert abs(rep.empirical_median - Fraction(1, 2)) <= Fraction(1, 20)

    # regimes (c)/(d)/(e): monotone median trend across a doubling ladder.
    # The scalings keep each n inside the named regime's limit while staying
    # computable; classification alone would refuse these small sizes.
    def median_ladder(regime, exponent, replicates):
        meds = []
        for n in (500, 1000, 2000):
            cfg = ExperimentConfig(
                model="gnp",
                n=n,
                p=n**exponent,
                replicates=replicates,
                seed=555,
                regime=regime,
            )
            rep = run_experiment(cfg)
            assert rep.skipped == 0
            meds.append(rep.empirical_median)
        return meds

    c = median_ladder("c", -0.8, 150)
    assert c[0] > c[1] > c[2] > Fraction(-2)  # falling toward -2
    d = median_ladder("d", -0.6, 200)
    assert d[0] > d[1] > d[2] > Fraction(-2)  # falling toward -1
    e = median_ladder("e", -0.3, 150)
    assert e[0] > e[1] > e[2] > 0  # positive bias shrinking toward 0

    elapsed = time.monotonic() - started
    assert elapsed < 900, f"regime suite took {elapsed:.1f}s"
    print(f"criterion 7: c={c} d={d} e={e}, {elapsed:.1f}s")


def test_regime_limits_convergence_ladder():
    # Criterion 7 reads regime (f) at one n and the bipartite model in regime
    # (b) only.  Here the distance to the paper's limit must shrink with n.
    # Seed 555 read |median - 1/2| = .030, .020, .010 for G(n, 1/2) and
    # medians -1.381, -1.528, -1.581 for G(n, n, n^-0.75); about 4 s in all.
    def ladder(model, sizes, p_of, replicates, regime, limit):
        meds = []
        for n in sizes:
            rep = run_experiment(
                ExperimentConfig(model=model, n=n, p=p_of(n), replicates=replicates,
                                 seed=555, regime=regime)
            )
            assert rep.skipped == 0
            assert rep.limit.value == limit
            meds.append(rep.empirical_median)
        return meds

    f = ladder("gnp", (200, 400, 800), lambda n: 0.5, 20, "f", Fraction(1, 2))
    gaps = [abs(m - Fraction(1, 2)) for m in f]
    assert gaps[0] > gaps[1] > gaps[2], gaps
    c = ladder("bipartite", (2000, 4000, 8000), lambda n: n**-0.75, 60, "c", Fraction(-2))
    assert c[0] > c[1] > c[2] > Fraction(-2), c


def test_criterion_8_determinism(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(write_edge_list(generate_family("petersen", [])))

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "riccigraph", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for args in (
        ("curvature", "--graph", str(path), "--all", "--verify"),
        ("flat", "--graph", str(path)),
        ("girth", "--graph", str(path)),
        (
            "experiment", "--model", "gnp", "--n", "60", "--p", "0.5",
            "--replicates", "5", "--seed", "11",
        ),
    ):
        first = json.loads(run(*args))
        second = json.loads(run(*args))
        assert json.dumps(first["results"], sort_keys=True) == json.dumps(
            second["results"], sort_keys=True
        )
    # CSV output carries no timing field at all: full byte identity
    csv_args = ("curvature", "--graph", str(path), "--all", "--format", "csv")
    assert run(*csv_args) == run(*csv_args)
