"""The package's public names, pinned so that any addition or removal is a test edit."""

import types

import riccigraph

PUBLIC = [
    "BoundPair", "CoreNeighborhood", "CurvatureResult", "DEFAULT_ORACLE_CAP",
    "ExperimentConfig", "ExperimentReport", "FlatnessReport", "Girth5Breakdown",
    "Graph", "GraphInputError", "LipschitzWitness", "MatchingInstance", "MatchingResult",
    "NeighborPartition", "NotAnEdgeError", "NotApplicableError", "OracleCapExceededError",
    "RegimeLimit", "RegimeUndeterminedError", "ReplicateRow", "VerificationError",
    "bipartite_upper_bound", "bounds_to_dict", "canonical_regime_params",
    "check_regular_girth4_flat", "classify_girth5_flat", "connected_components",
    "core_neighborhood", "curvature_all", "curvature_bounds", "ecdf_distance",
    "flatness_with_classification", "format_rational", "generate_family", "girth",
    "girth_at_least", "has_perfect_matching_between_neighborhoods", "is_ricci_flat",
    "jost_liu_bounds", "matching_lower_bound", "max_matching", "neighbor_partition",
    "parse_edge_list", "parse_rational", "positive_part", "regime_descriptor",
    "regime_limit", "replicate_seed", "result_to_dict", "ricci_auto",
    "ricci_bipartite_formula", "ricci_formula", "ricci_girth5_formula",
    "ricci_girth6_formula", "ricci_lp", "run_experiment", "sample_bipartite",
    "sample_gnp", "sample_tree_limit", "solve_transportation", "two_coloring",
    "two_matching_lower_bound", "w1_dual_oracle", "w1_primal", "write_edge_list",
]


def test_public_names_pinned():
    # Submodules are left out: which of them show up as attributes depends on
    # what else has been imported (riccigraph.cli, for one).
    names = [
        n for n in dir(riccigraph)
        if not n.startswith("_") and not isinstance(getattr(riccigraph, n), types.ModuleType)
    ]
    assert names == PUBLIC
