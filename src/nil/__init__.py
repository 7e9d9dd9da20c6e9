"""Integral closedness and normality of edge ideals of edge-weighted graphs.

Two independent decision routes: a structural classifier over five
forbidden induced configurations, and an exact-arithmetic oracle that
tests Newton-polyhedron membership by rational linear programming.  When
an ideal is not normal the classifier produces an explicit certificate
(a power t and a witness monomial) that the oracle can verify.
"""

from .classifier import (
    Certificate,
    ClassificationReport,
    ForbiddenConfig,
    GraphFamily,
    build_certificate,
    classify,
    cross_validate,
    find_f1_f2_f3,
    find_f4,
    find_f5,
    verify_certificate,
)
from .closure import (
    ClosureOracle,
    LPResult,
    NormalityVerdict,
    closure_power_generators,
    in_closure_power,
    is_power_integrally_closed,
    lp_max_weight,
    normality_scan,
    rebalance_even_cycle,
)
from .errors import (
    GraphError,
    GraphFileError,
    IdealError,
    ResourceLimitError,
)
from .ideal import (
    MonomialIdeal,
    contains,
    contains_power,
    edge_ideal,
    minimalize,
    power,
    restrict,
    support,
)
from .wgraph import (
    CompactClass,
    WeightedGraph,
    build_graph,
    canonical_cycle,
    chordless_cycles,
    classify_compact,
    connected_components,
    has_even_cycle,
    induced_subgraph,
    is_bipartite,
    odd_cycle_condition,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassificationReport",
    "ClosureOracle",
    "CompactClass",
    "ForbiddenConfig",
    "GraphError",
    "GraphFamily",
    "GraphFileError",
    "IdealError",
    "LPResult",
    "MonomialIdeal",
    "NormalityVerdict",
    "ResourceLimitError",
    "WeightedGraph",
    "build_certificate",
    "build_graph",
    "canonical_cycle",
    "chordless_cycles",
    "classify",
    "classify_compact",
    "closure_power_generators",
    "connected_components",
    "contains",
    "contains_power",
    "cross_validate",
    "edge_ideal",
    "find_f1_f2_f3",
    "find_f4",
    "find_f5",
    "has_even_cycle",
    "in_closure_power",
    "induced_subgraph",
    "is_bipartite",
    "is_power_integrally_closed",
    "lp_max_weight",
    "minimalize",
    "normality_scan",
    "odd_cycle_condition",
    "power",
    "rebalance_even_cycle",
    "restrict",
    "support",
    "verify_certificate",
]
