"""Shortest-path discovery in multi-layered directed networks.

A multi-layered network keeps one directed edge set per relationship layer.
This package aggregates those layers into single weighted edges under a
layer-count threshold (alpha) and a distance threshold (beta), and computes
shortest paths over the aggregated relation either by preprocessing the whole
graph first or by applying the thresholds during the search. See README.md
for the file formats and the command line front end.
"""

from .aggregate import (
    AggregatedEdge,
    AggregatedGraph,
    AggregationParams,
    aggregate_graph,
    distance,
)
from .analytics import (
    STATS_COLUMNS,
    PathStats,
    SweepReport,
    edge_count_sweep,
    path_stats,
)
from .bench import BenchReport, benchmark, format_bench_report
from .core import (
    NEGATIVE,
    POSITIVE,
    LayeredEdge,
    LayerId,
    MultiLayeredNetwork,
)
from .edgelist import (
    ON_DUPLICATE_ERROR,
    ON_DUPLICATE_KEEP_MAX,
    dump_edge_list,
    format_load_summary,
    load_edge_list,
    write_edge_csv,
)
from .errors import (
    DuplicateEdgeError,
    EmptyFileError,
    GraphError,
    InvalidAlphaError,
    InvalidBetaError,
    LayerPathError,
    LoopEdgeError,
    ParameterError,
    ParseError,
    SameNodeError,
    SealedNetworkError,
    SizeGuardExceededError,
    UnknownLayerError,
    UnknownNodeError,
    UnsealedNetworkError,
    WeightOutOfRangeError,
)
from .generate import random_network
from .paths import (
    DistanceMatrix,
    ShortestPathResult,
    aggregated_sssp,
    apsp_repeated_dijkstra,
    dap_sssp,
    mda_sssp,
    ml_floyd_warshall,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedEdge",
    "AggregatedGraph",
    "AggregationParams",
    "BenchReport",
    "DistanceMatrix",
    "DuplicateEdgeError",
    "EmptyFileError",
    "GraphError",
    "InvalidAlphaError",
    "InvalidBetaError",
    "LayerId",
    "LayerPathError",
    "LayeredEdge",
    "LoopEdgeError",
    "MultiLayeredNetwork",
    "NEGATIVE",
    "ON_DUPLICATE_ERROR",
    "ON_DUPLICATE_KEEP_MAX",
    "POSITIVE",
    "ParameterError",
    "ParseError",
    "PathStats",
    "STATS_COLUMNS",
    "SameNodeError",
    "SealedNetworkError",
    "ShortestPathResult",
    "SizeGuardExceededError",
    "SweepReport",
    "UnknownLayerError",
    "UnknownNodeError",
    "UnsealedNetworkError",
    "WeightOutOfRangeError",
    "aggregate_graph",
    "aggregated_sssp",
    "apsp_repeated_dijkstra",
    "benchmark",
    "dap_sssp",
    "distance",
    "dump_edge_list",
    "edge_count_sweep",
    "format_bench_report",
    "format_load_summary",
    "load_edge_list",
    "mda_sssp",
    "ml_floyd_warshall",
    "path_stats",
    "random_network",
    "write_edge_csv",
]
