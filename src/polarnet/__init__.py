"""Polarization and coordinated-communication analysis for directed networks.

The pipeline: ingest timestamped arcs, detect communities on the underlying
undirected view, measure modularity and each group's share of it (overall
and per time window), and quantify how few spreaders a group needs to reach
a fraction of an audience (greedy partial domination).
"""

from .community import (
    Partition,
    detect_communities,
    load_partition,
    relabel_by_size,
    save_partition,
)
from .domination import (
    BRUTE_FORCE_LIMIT,
    DominationResult,
    brute_force_pdds,
    coverage_curve,
    coverage_target,
    greedy_pdds,
    group_spreaders,
    in_group_domination,
    network_domination_by_group,
    spreaders,
)
from .errors import (
    DegenerateModularityError,
    FormatError,
    InfeasibleCoverageError,
    ParseError,
    PolarnetError,
    UndefinedModularityError,
)
from .graph import (
    DirectedGraph,
    IngestOptions,
    TemporalEdgeSet,
    TimeWindow,
    UndirectedView,
    build_directed_graph,
    directed_from_arcs,
    exclude_interval,
    ingest_edge_list,
    slice_windows,
    underlying_undirected,
    undirected_from_edges,
    window_label,
    write_edge_list,
)
from .polarization import (
    PolarizationReport,
    TrendFit,
    WindowStats,
    d_modularity,
    group_contributions,
    linear_trend,
    modularity,
    window_series,
)
from .synth import (
    FAMILIES,
    configuration_rewire,
    directed_cycle,
    disjoint_cliques,
    figure2_instance,
    generate,
    planted_partition,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "DegenerateModularityError",
    "DirectedGraph",
    "DominationResult",
    "FAMILIES",
    "FormatError",
    "InfeasibleCoverageError",
    "IngestOptions",
    "ParseError",
    "Partition",
    "PolarizationReport",
    "PolarnetError",
    "TemporalEdgeSet",
    "TimeWindow",
    "TrendFit",
    "UndefinedModularityError",
    "UndirectedView",
    "WindowStats",
    "brute_force_pdds",
    "build_directed_graph",
    "configuration_rewire",
    "coverage_curve",
    "coverage_target",
    "d_modularity",
    "detect_communities",
    "directed_cycle",
    "directed_from_arcs",
    "disjoint_cliques",
    "exclude_interval",
    "figure2_instance",
    "generate",
    "greedy_pdds",
    "group_contributions",
    "group_spreaders",
    "in_group_domination",
    "ingest_edge_list",
    "linear_trend",
    "load_partition",
    "modularity",
    "network_domination_by_group",
    "planted_partition",
    "relabel_by_size",
    "save_partition",
    "slice_windows",
    "spreaders",
    "star",
    "underlying_undirected",
    "undirected_from_edges",
    "window_label",
    "window_series",
    "write_edge_list",
]
