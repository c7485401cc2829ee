"""Timing harness comparing the two shortest-path strategies.

Both strategies read the pairs that sealing priced. The preprocessing
strategy filters them by the thresholds once, up front, and then runs a plain
Dijkstra per source; the on-the-fly strategy applies the thresholds inside
each search. This module times both over the same source set and reports the
aggregation phase (the threshold filter alone) separately, since amortizing
it over many sources is the whole argument for preprocessing.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .aggregate import AggregationParams, aggregate_graph
from .core import MultiLayeredNetwork, coerce_int
from .errors import ParameterError, UnknownNodeError
from .paths import aggregated_sssp, mda_sssp


class BenchReport(NamedTuple):
    """Median wall-clock seconds per phase across ``reps`` repetitions."""

    num_nodes: int
    num_layers: int
    num_layered_edges: int
    num_aggregated_edges: int
    num_sources: int
    params: AggregationParams
    reps: int
    aggregate_seconds: float
    dap_search_seconds: float
    mda_seconds: float

    @property
    def dap_total_seconds(self) -> float:
        return self.aggregate_seconds + self.dap_search_seconds

    @property
    def overhead_pct(self) -> float:
        """On-the-fly overhead relative to the preprocessing total, in %.

        Positive means the on-the-fly strategy was slower on this workload.
        """
        if self.dap_total_seconds == 0.0:
            return float("inf") if self.mda_seconds else 0.0
        return (self.mda_seconds / self.dap_total_seconds - 1.0) * 100.0


def _median(data: list[float]) -> float:
    """``statistics.median`` bit for bit, without importing ``statistics``.

    That module loads ``decimal``, ``fractions`` and ``numbers`` for this
    one function. An even count averages its two middle values.
    """
    data = sorted(data)
    i = len(data) // 2
    return data[i] if len(data) % 2 else (data[i - 1] + data[i]) / 2


def benchmark(
    net: MultiLayeredNetwork,
    sources: list[int],
    params: AggregationParams = AggregationParams(),
    *,
    reps: int = 3,
) -> BenchReport:
    """Time both strategies over ``sources``; medians over ``reps`` runs.

    Each repetition re-runs aggregation, the per-source searches on the
    aggregated graph, and the per-source on-the-fly searches, so one-off
    cache effects wash out of the medians.
    """
    reps = coerce_int(reps, "reps", minimum=1)
    if not sources:
        raise ParameterError("at least one source node is required")
    for source in sources:
        if not net.has_node(source):
            raise UnknownNodeError(f"unknown source node {source!r}")

    agg_times = []
    search_times = []
    mda_times = []
    num_aggregated_edges = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        graph = aggregate_graph(net, params)
        t1 = time.perf_counter()
        for source in sources:
            aggregated_sssp(graph, source)
        t2 = time.perf_counter()
        for source in sources:
            mda_sssp(net, source, params)
        t3 = time.perf_counter()
        agg_times.append(t1 - t0)
        search_times.append(t2 - t1)
        mda_times.append(t3 - t2)
        num_aggregated_edges = graph.num_edges

    return BenchReport(
        num_nodes=net.num_nodes,
        num_layers=net.num_layers,
        num_layered_edges=net.num_edges,
        num_aggregated_edges=num_aggregated_edges,
        num_sources=len(sources),
        params=params,
        reps=reps,
        aggregate_seconds=_median(agg_times),
        dap_search_seconds=_median(search_times),
        mda_seconds=_median(mda_times),
    )


def format_bench_report(report: BenchReport) -> str:
    """Plain-text rendering with one line per phase."""
    p = report.params
    lines = [
        f"network: {report.num_nodes} nodes, {report.num_layers} layers, "
        f"{report.num_layered_edges} layered edges",
        f"thresholds: alpha={p.alpha} beta={p.beta}",
        f"aggregated edges: {report.num_aggregated_edges}",
        f"sources: {report.num_sources}, repetitions: {report.reps}",
        f"preprocessing: aggregation {report.aggregate_seconds:.4f}s "
        f"+ search {report.dap_search_seconds:.4f}s "
        f"= {report.dap_total_seconds:.4f}s",
        f"on-the-fly: {report.mda_seconds:.4f}s",
        f"on-the-fly overhead vs preprocessing: {report.overhead_pct:+.1f}%",
    ]
    return "\n".join(lines)
