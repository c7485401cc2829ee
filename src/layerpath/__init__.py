"""Shortest-path discovery in multi-layered directed networks.

A multi-layered network keeps one directed edge set per relationship layer.
This package aggregates those layers into single weighted edges under a
layer-count threshold (alpha) and a distance threshold (beta), and computes
shortest paths over the aggregated relation either by preprocessing the whole
graph first or by applying the thresholds during the search. See README.md
for the file formats and the command line front end.

``import layerpath`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a command compiles only what it runs.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "aggregate": (
        "AggregatedGraph",
        "AggregationParams",
        "aggregate_graph",
        "distance",
    ),
    "analytics": (
        "STATS_COLUMNS",
        "PathStats",
        "SweepReport",
        "edge_count_sweep",
        "path_stats",
    ),
    "bench": ("BenchReport", "benchmark", "format_bench_report"),
    "core": ("NEGATIVE", "POSITIVE", "LayeredEdge", "LayerId", "MultiLayeredNetwork"),
    "edgelist": (
        "ON_DUPLICATE_ERROR",
        "ON_DUPLICATE_KEEP_MAX",
        "dump_edge_list",
        "format_load_summary",
        "load_edge_list",
        "write_edge_csv",
    ),
    "errors": (
        "DuplicateEdgeError",
        "EmptyFileError",
        "GraphError",
        "InvalidAlphaError",
        "InvalidBetaError",
        "LayerPathError",
        "LoopEdgeError",
        "ParameterError",
        "ParseError",
        "SameNodeError",
        "SealedNetworkError",
        "SizeGuardExceededError",
        "UnknownLayerError",
        "UnknownNodeError",
        "UnsealedNetworkError",
        "WeightOutOfRangeError",
    ),
    "generate": ("random_network",),
    "paths": (
        "DistanceMatrix",
        "ShortestPathResult",
        "aggregated_sssp",
        "apsp_repeated_dijkstra",
        "dap_sssp",
        "mda_sssp",
        "ml_floyd_warshall",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the public ``name`` from its module and keep it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
