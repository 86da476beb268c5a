"""Biased binary search trees from order-preserving entropy codes, with a
drift-triggered rebuild policy priced for reconfigurable topologies: each
search costs its depth, each tree swap costs a flat alpha."""

from .baselines import (
    WeightVector,
    balanced_static_cost,
    brute_force_static_cost,
    optimal_static_cost,
    tree_cost,
)
from .checks import RebuildRecord, RunLedger, guarded_invariant_holds
from .dynamic import (
    SMOOTHING_LAPLACE,
    SMOOTHING_NONE,
    SimulationReport,
    SimulationState,
    StepRecord,
    init,
    run,
    step,
    theorem_threshold,
)
from .errors import (
    AbstError,
    BoundViolationError,
    InvalidDistributionError,
    InvalidMatchingError,
    InvalidRequestError,
    KeyNotFoundError,
    TraceParseError,
)
from .matching import MatchingPair, bst_to_matchings, matchings_to_bst, route
from .sfe import (
    CodeEntry,
    CodeTable,
    ProbabilityDistribution,
    average_code_length,
    build_sfe_code,
    entropy,
    entropy_of_weights,
    is_prefix_free,
    parse_distribution,
)
from .trees import (
    SearchTree,
    build_balanced,
    coded_depths,
    depth_map,
    format_tree,
    sfe_to_bst,
    tree_for_probs,
    tree_from_depths,
)
from .workload import (
    DEFAULT_SEED,
    WorkloadSpec,
    generate,
    parse_workload,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
