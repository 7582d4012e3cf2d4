import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest

from riccigraph import (
    ExperimentConfig,
    GraphInputError,
    MatchingInstance,
    RegimeLimit,
    RegimeUndeterminedError,
    canonical_regime_params,
    core_neighborhood,
    ecdf_distance,
    format_rational,
    max_matching,
    regime_descriptor,
    regime_limit,
    replicate_seed,
    ricci_auto,
    run_experiment,
    sample_bipartite,
    sample_gnp,
    sample_tree_limit,
    two_coloring,
    write_edge_list,
)
from riccigraph import randgraph


def test_gnp_deterministic():
    a = sample_gnp(200, 0.05, 42, (0, 1))
    b = sample_gnp(200, 0.05, 42, (0, 1))
    assert list(a.edges()) == list(b.edges())
    c = sample_gnp(200, 0.05, 43, (0, 1))
    assert list(a.edges()) != list(c.edges())


def test_gnp_extreme_p():
    g = sample_gnp(30, 0.0, 7, (0, 1))
    assert list(g.edges()) == [(0, 1)]
    g = sample_gnp(10, 1.0, 7, (0, 1))
    assert g.edge_count == 45


def test_gnp_mark_always_present():
    for seed in range(10):
        g = sample_gnp(50, 0.02, seed, (3, 17))
        assert g.has_edge(3, 17)


def test_gnp_edge_count_plausible():
    n, p = 500, 0.05
    g = sample_gnp(n, p, 1234, (0, 1))
    mean = p * n * (n - 1) / 2
    sd = math.sqrt(mean * (1 - p))
    assert abs(g.edge_count - mean) < 5 * sd


def test_bipartite_structure():
    g = sample_bipartite(6, 9, 0.5, 5, (0, 6))
    assert g.vertex_count == 15
    assert g.has_edge(0, 6)
    for u, v in g.edges():
        assert u < 6 <= v
    colors, odd = two_coloring(g)
    assert odd is None


def test_bipartite_mark_must_cross():
    with pytest.raises(GraphInputError):
        sample_bipartite(5, 5, 0.1, 3, (0, 1))


def test_replicate_seeds_distinct_and_stable():
    seen = {replicate_seed(99, r) for r in range(200)}
    assert len(seen) == 200
    assert replicate_seed(99, 7) == replicate_seed(99, 7)
    assert replicate_seed(98, 7) != replicate_seed(99, 7)


def test_tree_limit_range_and_determinism():
    xs = sample_tree_limit(3.0, 500, 11)
    assert xs == sample_tree_limit(3.0, 500, 11)
    assert xs != sample_tree_limit(3.0, 500, 12)
    for q in xs:
        assert Fraction(-2) <= q <= 0
    assert any(q == 0 for q in xs)  # the clamp at degree-1 endpoints fires


def test_sample_tree_limit_pinned():
    # sha256 of the draws' "p/q" lines, recorded when each draw was its own
    # Fraction chain; the girth-6 form at degrees 1 + X1 and 1 + X2 must match
    xs = sample_tree_limit(3.0, 2000, 11)
    digest = hashlib.sha256("\n".join(map(format_rational, xs)).encode()).hexdigest()
    assert digest == "8bfc90c61884b9dafcc605d5921d46aeadbd57928fc2df8007c1f58dc89ccc54"


def test_tree_limit_self_consistency():
    # two independent streams agree in mean within 3 standard errors
    a = [float(q) for q in sample_tree_limit(3.0, 20000, 1)]
    b = [float(q) for q in sample_tree_limit(3.0, 20000, 2)]
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((t - ma) ** 2 for t in a) / (len(a) - 1)
    vb = sum((t - mb) ** 2 for t in b) / (len(b) - 1)
    se = math.sqrt(va / len(a) + vb / len(b))
    assert abs(ma - mb) <= 3 * se


def test_ecdf_distance_hand_values():
    assert ecdf_distance([Fraction(0)], [Fraction(0)]) == 0
    assert ecdf_distance([Fraction(0)], [Fraction(1)]) == 1
    got = ecdf_distance([Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)])
    assert got == Fraction(1, 2)
    assert ecdf_distance([0, 0, 1], [0, 1, 1]) == Fraction(1, 3)


def test_regime_classification_gnp():
    assert regime_limit("gnp", 10_000, 1e-6).regime == "a"
    b = regime_limit("gnp", 5000, 3 / 5000)
    assert b.regime == "b" and b.kind == "tree_distribution" and b.lam == 3.0
    n = 10**8
    assert regime_limit("gnp", n, n**-0.8).value == -2
    assert regime_limit("gnp", n, n**-0.6).value == -1
    assert regime_limit("gnp", n, n**-0.4).value == 0
    f = regime_limit("gnp", 400, 0.5)
    assert f.regime == "f" and f.value == Fraction(1, 2)
    assert regime_limit("gnp", 400, 0.3).value == Fraction(3, 10)
    assert regime_limit("gnp", 16, 0.25).regime == "f"


def test_regime_classification_bipartite():
    assert regime_limit("bipartite", 10_000, 1e-6).regime == "a"
    assert regime_limit("bipartite", 5000, 3 / 5000).regime == "b"
    c = regime_limit("bipartite", 10**6, 1e-4)
    assert c.regime == "c" and c.value == -2
    d = regime_limit("bipartite", 2000, 0.15)
    assert d.regime == "d" and d.value == 0


def test_regime_refusals():
    with pytest.raises(RegimeUndeterminedError):
        regime_limit("gnp", 100, 0.05)
    with pytest.raises(RegimeUndeterminedError):
        regime_limit("gnp", 1000, 0.012)
    with pytest.raises(RegimeUndeterminedError):
        regime_limit("bipartite", 100, 0.1)
    with pytest.raises(GraphInputError):
        regime_limit("configuration", 100, 0.1)


def test_regime_descriptor_bypass():
    # the trend scalings sit inside refusal bands at small n, so naming the
    # regime must work where classification refuses
    with pytest.raises(RegimeUndeterminedError):
        regime_limit("gnp", 500, 500**-0.6)
    d = regime_descriptor("gnp", "d", 500, 500**-0.6)
    assert d.value == -1
    assert regime_descriptor("gnp", "e", 500, 500**-0.3).value == 0
    assert regime_descriptor("gnp", "f", 400, 0.5).value == Fraction(1, 2)
    assert regime_descriptor("bipartite", "d", 2000, 0.15).value == 0
    with pytest.raises(GraphInputError):
        regime_descriptor("gnp", "z", 100, 0.1)
    with pytest.raises(GraphInputError):
        regime_descriptor("bipartite", "e", 100, 0.1)


def test_canonical_params():
    assert canonical_regime_params("gnp", "f") == (400, 0.5)
    assert canonical_regime_params("gnp", "b") == (5000, 3 / 5000)
    assert canonical_regime_params("bipartite", "d") == (2000, 0.15)
    with pytest.raises(GraphInputError):
        canonical_regime_params("gnp", "z")


def test_regime_limit_type_validation():
    with pytest.raises(GraphInputError):
        RegimeLimit(kind="constant")
    with pytest.raises(GraphInputError):
        RegimeLimit(kind="poisson", value=Fraction(0))


def test_experiment_config_validation():
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="gnm", n=10, p=0.5, replicates=5, seed=0)
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="gnp", n=10, p=1.5, replicates=5, seed=0)
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="gnp", n=10, p=0.5, replicates=0, seed=0)
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="gnp", n=1, p=0.5, replicates=5, seed=0)
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="bipartite", n=0, p=0.5, replicates=5, seed=0)
    # n counts the vertices of each side, so G(1, 1, p) is a valid model
    assert ExperimentConfig(model="bipartite", n=1, p=0.5, replicates=5, seed=0).n == 1
    with pytest.raises(GraphInputError):
        ExperimentConfig(model="gnp", n=10, p=0.5, replicates=5, seed=0, workers=0)


def test_experiment_deterministic():
    cfg = ExperimentConfig(model="gnp", n=60, p=0.5, replicates=8, seed=5)
    r1 = run_experiment(cfg)
    r2 = run_experiment(
        ExperimentConfig(model="gnp", n=60, p=0.5, replicates=8, seed=5)
    )
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json_dict() == r2.to_json_dict()
    assert len(r1.rows) == 8
    assert r1.limit.regime == "f"


def test_experiment_worker_count_invisible():
    cfg1 = ExperimentConfig(model="gnp", n=50, p=0.5, replicates=6, seed=3, workers=1)
    cfg2 = ExperimentConfig(model="gnp", n=50, p=0.5, replicates=6, seed=3, workers=2)
    assert run_experiment(cfg1).to_csv() == run_experiment(cfg2).to_csv()


def test_experiment_pool_clamped(monkeypatch):
    # a stand-in pool that records its size and maps serially: a real pool
    # starts every requested worker process up front
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(randgraph, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(randgraph.os, "cpu_count", lambda: 8)
    base = dict(model="gnp", n=50, p=0.5, seed=3)
    serial = run_experiment(ExperimentConfig(replicates=2, workers=1, **base))
    wide = run_experiment(ExperimentConfig(replicates=2, workers=100_000, **base))
    assert sizes == [2]
    assert wide.to_csv() == serial.to_csv()
    assert wide.to_json_dict() == serial.to_json_dict()
    run_experiment(ExperimentConfig(replicates=12, workers=100_000, **base))
    assert sizes == [2, 8]
    monkeypatch.setattr(randgraph.os, "cpu_count", lambda: None)
    run_experiment(ExperimentConfig(replicates=12, workers=100_000, **base))
    assert sizes == [2, 8]


def test_experiment_kappa_rows(monkeypatch):
    monkeypatch.setattr(randgraph, "DEFAULT_REFERENCE_SAMPLES", 2000)
    cfg = ExperimentConfig(model="gnp", n=200, p=3 / 200, replicates=40, seed=9)
    rep = run_experiment(cfg)
    assert rep.limit.kind == "tree_distribution"
    assert rep.distance_to_limit is not None
    positives = 0
    for row in rep.rows:
        assert row.skip is None
        assert Fraction(-2) <= row.kappa <= 1
        if row.kappa > 0:
            positives += 1
    assert rep.positive_samples == positives


def test_experiment_skip_budget(monkeypatch):
    monkeypatch.setattr(randgraph, "DEFAULT_SIZE_BUDGET", 10)
    cfg = ExperimentConfig(model="gnp", n=30, p=0.5, replicates=5, seed=2)
    rep = run_experiment(cfg)
    assert rep.skipped == 5
    assert rep.empirical_median is None
    assert rep.distance_to_limit is None
    csv_text = rep.to_csv()
    assert csv_text.count("skip") == 5
    payload = rep.to_json_dict()
    assert payload["computed"] == 0 and payload["skipped"] == 5


def test_experiment_bipartite_marked_edge(monkeypatch):
    monkeypatch.setattr(randgraph, "DEFAULT_REFERENCE_SAMPLES", 1000)
    cfg = ExperimentConfig(model="bipartite", n=150, p=3 / 150, replicates=10, seed=4)
    rep = run_experiment(cfg)
    assert len(rep.rows) == 10
    for row in rep.rows:
        assert row.kappa <= 0


def test_experiment_csv_shape():
    cfg = ExperimentConfig(model="gnp", n=40, p=0.5, replicates=3, seed=1)
    text = run_experiment(cfg).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "index,n,p,kappa,kappa_float,method,core_size"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "40"
    assert "/" in first[3]


def test_marked_core_size_matches_core():
    for n, p in ((200, 0.01), (1000, 0.005), (80, 0.25)):
        cfg = ExperimentConfig(model="gnp", n=n, p=p, replicates=8, seed=3)
        for row in run_experiment(cfg).rows:
            g = sample_gnp(n, p, replicate_seed(3, row.index), (0, 1))
            assert row.core_size == len(core_neighborhood(g, 0, 1).vertices)


def test_replicate_builds_only_the_marked_tuples():
    # A regime-f replicate reads one edge.  Building every neighbour tuple,
    # as the builder once did, held 2.94 MiB here; the tuples of the marked
    # endpoints alone, beside the arc keys and the masks, hold 1.50 MiB.
    tracemalloc.start()
    try:
        g = sample_gnp(400, 0.5, replicate_seed(7, 0), (0, 1))
        ricci_auto(g, 0, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, f"held {held / 2**20:.2f} MiB"
    assert [v for v, t in enumerate(g._adj) if t is not None] == [0, 1]


def test_near_perfect_matching_dense():
    # dense side: a matching covering 90 percent of one side in nearly all runs
    n, p = 500, 0.04
    hits = 0
    for r in range(100):
        g = sample_bipartite(n, n, p, replicate_seed(2025, r), (0, n))
        inst = MatchingInstance(
            left=tuple(range(n)),
            right=tuple(range(n, 2 * n)),
            adjacency=tuple(g.edges()),
        )
        if max_matching(inst).size >= 450:
            hits += 1
    assert hits >= 95


def test_near_perfect_matching_sparse():
    n, p = 500, 0.1 / 500
    hits = 0
    for r in range(100):
        g = sample_bipartite(n, n, p, replicate_seed(2026, r), (0, n))
        inst = MatchingInstance(
            left=tuple(range(n)),
            right=tuple(range(n, 2 * n)),
            adjacency=tuple(g.edges()),
        )
        if max_matching(inst).size >= 450:
            hits += 1
    assert hits <= 5


def test_sampler_bytes_pinned():
    # Digests of the edge-list text of seeded samples; any change to the
    # samplers or to Graph.from_arrays that alters a graph changes them.
    def digest(g):
        return hashlib.sha256(write_edge_list(g).encode()).hexdigest()

    assert [digest(sample_gnp(400, 0.5, replicate_seed(7, r), (0, 1))) for r in (0, 1)] == [
        "6dc3fda3875b81c2b11bb65b4aad0a41c22d8afb62eb1adf589ef73f51490db9",
        "9c1d041ac6b73169e822b2a59c128c9298605426eba33c06cab477336677333e",
    ]
    assert (
        digest(sample_bipartite(300, 300, 0.15, replicate_seed(7, 0), (0, 300)))
        == "bfe3eca4c3b90fc7a1d1ed79deb9bac41dbab5b75d18dc004b9b0811242af104"
    )
