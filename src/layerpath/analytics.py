"""Descriptive statistics over shortest-path results.

``path_stats`` condenses one single-source result into a fixed row of
aggregate figures (route counts, length spread, mean hop count, neighborhood
size, connectivity share) from the result alone: its thresholds, node set
and the priced rows its search read (``result.rows``). Hop counts come from
one forward pass over the parent-first predecessors, and the neighbour count
from ``AggregationParams.kept`` on the source's row. ``stats_table``
aggregates once and calls ``path_stats`` for each source, and
``edge_count_sweep`` counts how many aggregated edges survive each
combination of thresholds, which is the usual first look at how dense the
aggregated graph will be.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregate import AggregationParams, aggregate_graph
from .core import MultiLayeredNetwork
from .errors import ParameterError
from .paths import ShortestPathResult, aggregated_sssp

# Column order is part of the output contract; exporters must not reorder.
STATS_COLUMNS = (
    "source",
    "alpha",
    "beta",
    "num_routes",
    "avg_len",
    "min_len",
    "max_len",
    "avg_handshakes",
    "num_neighbors",
    "pct_connected",
)


@dataclass(frozen=True, slots=True)
class PathStats:
    """Summary of one source's shortest paths under one threshold pair.

    ``num_routes`` counts reachable targets other than the source itself;
    the length and handshake figures average over exactly those targets.
    ``avg_handshakes`` is the mean number of edges on a shortest path, so a
    direct neighbor contributes 1. ``num_neighbors`` is the aggregated
    out-degree of the source and ``pct_connected`` is ``num_routes`` over the
    number of possible targets. A source with no routes reports an all-zero
    row rather than NaNs.
    """

    source: int
    alpha: int
    beta: float
    num_routes: int
    avg_len: float
    min_len: float
    max_len: float
    avg_handshakes: float
    num_neighbors: int
    pct_connected: float

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in STATS_COLUMNS)


def path_stats(result: ShortestPathResult) -> PathStats:
    """Summarize ``result`` under the thresholds recorded on it."""
    params = result.params
    source = result.source
    route_lengths = [length for v, length in result.lengths.items() if v != source]
    num_routes = len(route_lengths)
    if num_routes:
        # plain += in discovery order; sum() compensates on Python >= 3.12
        # and would change the last bits of some averages
        total = 0.0
        for length in route_lengths:
            total += length
        avg_len = total / num_routes
        min_len = min(route_lengths)
        max_len = max(route_lengths)
        hops = {}  # one pass: predecessors list every node after its own
        for v, pred in result.predecessors.items():
            hops[v] = 0 if pred is None else hops[pred] + 1
        avg_handshakes = sum(hops.values()) / num_routes
    else:
        avg_len = min_len = max_len = avg_handshakes = 0.0
    num_nodes = len(result.nodes)
    return PathStats(
        source=source,
        alpha=params.alpha,
        beta=params.beta,
        num_routes=num_routes,
        avg_len=avg_len,
        min_len=min_len,
        max_len=max_len,
        avg_handshakes=avg_handshakes,
        num_neighbors=len(params.kept(result.rows.get(source, ()))),
        pct_connected=num_routes / (num_nodes - 1) if num_nodes > 1 else 0.0,
    )


def stats_table(
    net: MultiLayeredNetwork,
    params: AggregationParams = AggregationParams(),
    sources: list[int] | None = None,
) -> list[PathStats]:
    """One ``PathStats`` row per source, in ascending node order.

    Aggregates the network once and reuses it across sources, so this is the
    economical way to profile a whole network under fixed thresholds.
    """
    net.require_sealed()
    graph = aggregate_graph(net, params)
    chosen = sorted(net.nodes) if sources is None else sorted(set(sources))
    return [path_stats(aggregated_sssp(graph, source)) for source in chosen]


@dataclass(frozen=True)
class SweepReport:
    """Aggregated edge counts for each (alpha, beta) pair of a sweep grid.

    ``counts[i][j]`` is the edge count for ``alphas[i]`` and ``betas[j]``.
    """

    alphas: tuple[int, ...]
    betas: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]

    def count(self, alpha: int, beta: float) -> int:
        try:
            i = self.alphas.index(alpha)
            j = self.betas.index(beta)
        except ValueError:
            raise ParameterError(
                f"({alpha!r}, {beta!r}) is not on the sweep grid"
            ) from None
        return self.counts[i][j]


def edge_count_sweep(
    net: MultiLayeredNetwork,
    alphas: list[int],
    betas: list[float],
) -> SweepReport:
    """Count surviving aggregated edges for every threshold combination.

    Each cell counts the priced pairs ``AggregationParams.kept`` keeps under
    its thresholds, without building an aggregated graph.
    """
    net.require_sealed()
    if not alphas:
        raise ParameterError("at least one alpha value is required")
    if not betas:
        raise ParameterError("at least one beta value is required")
    alpha_grid = tuple(AggregationParams(alpha=alpha).alpha for alpha in alphas)
    beta_grid = tuple(AggregationParams(beta=beta).beta for beta in betas)

    rows = net.priced_pairs.values()

    def count(params: AggregationParams) -> int:
        kept = params.kept
        return sum(len(kept(row)) for row in rows)

    counts = tuple(
        tuple(count(AggregationParams(alpha, beta)) for beta in beta_grid)
        for alpha in alpha_grid
    )
    return SweepReport(alphas=alpha_grid, betas=beta_grid, counts=counts)
