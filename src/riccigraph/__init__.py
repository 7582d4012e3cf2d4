"""Exact Ollivier coarse Ricci curvature on finite simple graphs.

Every curvature, bound, and transport value is an exact rational; the primal
transport LP, the dual Lipschitz enumeration, and the closed-form formulas
are independent routes that the test suite forces to agree bit for bit.
"""

__version__ = "0.1.0"

from .errors import (
    GraphInputError,
    NotAnEdgeError,
    NotApplicableError,
    OracleCapExceededError,
    RegimeUndeterminedError,
    VerificationError,
)
from .rationals import format_rational, parse_rational, positive_part
from .graph import (
    CoreNeighborhood,
    Graph,
    NeighborPartition,
    connected_components,
    core_neighborhood,
    generate_family,
    girth,
    girth_at_least,
    neighbor_partition,
    parse_edge_list,
    two_coloring,
    write_edge_list,
)
from .transport import (
    DEFAULT_ORACLE_CAP,
    LipschitzWitness,
    solve_transportation,
    w1_dual_oracle,
    w1_primal,
)
from .matching import (
    BoundPair,
    MatchingInstance,
    MatchingResult,
    has_perfect_matching_between_neighborhoods,
    matching_lower_bound,
    max_matching,
    two_matching_lower_bound,
)
from .curvature import (
    CurvatureResult,
    Girth5Breakdown,
    bipartite_upper_bound,
    bounds_to_dict,
    curvature_all,
    curvature_bounds,
    jost_liu_bounds,
    result_to_dict,
    ricci_auto,
    ricci_bipartite_formula,
    ricci_formula,
    ricci_girth5_formula,
    ricci_girth6_formula,
    ricci_lp,
)
from .ricciflat import (
    FlatnessReport,
    check_regular_girth4_flat,
    classify_girth5_flat,
    flatness_with_classification,
    is_ricci_flat,
)
from .randgraph import (
    ExperimentConfig,
    ExperimentReport,
    RegimeLimit,
    ReplicateRow,
    canonical_regime_params,
    ecdf_distance,
    regime_descriptor,
    regime_limit,
    replicate_seed,
    run_experiment,
    sample_bipartite,
    sample_gnp,
    sample_tree_limit,
)
