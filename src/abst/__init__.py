"""Biased binary search trees from order-preserving entropy codes, with a
drift-triggered rebuild policy priced for reconfigurable topologies: each
search costs its depth, each tree swap costs a flat alpha.

The package root exports the documented entry points, the types they
return and the error classes; everything else is imported from its module.
The verification layer, `abst.checks` with `RunLedger`, `RebuildRecord` and
the `verify` suites, is imported on first use: `from abst import RunLedger`
loads it then, and `import abst` alone does not.
"""

from .baselines import WeightVector, optimal_static_cost
from .dynamic import SimulationReport, SimulationState, StepRecord, init, run, step
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
    CodeTable,
    ProbabilityDistribution,
    average_code_length,
    build_sfe_code,
    entropy,
    parse_distribution,
)
from .trees import (
    SearchTree,
    coded_depths,
    depth_map,
    format_tree,
    sfe_to_bst,
    tree_for_probs,
    tree_from_depths,
)
from .workload import WorkloadSpec, generate, parse_workload, read_trace, write_trace

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("RebuildRecord", "RunLedger"):
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
