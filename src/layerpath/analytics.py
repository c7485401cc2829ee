"""Descriptive statistics over shortest-path results.

``path_stats`` condenses one single-source result into a fixed row of
aggregate figures (route counts, length spread, mean hop count, neighborhood
size, connectivity share). ``stats_table`` runs that for many sources against
one aggregation, and ``edge_count_sweep`` counts how many aggregated edges
survive each combination of thresholds, which is the usual first look at how
dense the aggregated graph will be.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregate import AggregationParams, _coerce_beta, _kept_pairs, aggregate_graph
from .core import MultiLayeredNetwork, _coerce_alpha
from .errors import InconsistentInputError, ParameterError
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


def _mean_hops(result: ShortestPathResult, targets: list[int]) -> float:
    """Mean edge count of the shortest paths to ``targets``.

    Walks the predecessor tree once per node, memoizing hop counts, so the
    total cost is linear in the number of reachable nodes.
    """
    if not targets:
        return 0.0
    hops = {result.source: 0}
    preds = result.predecessors
    total = 0
    for target in targets:
        chain = []
        v = target
        while v not in hops:
            chain.append(v)
            v = preds[v]  # type: ignore[assignment]
        h = hops[v]
        while chain:
            h += 1
            hops[chain.pop()] = h
        total += hops[target]
    return total / len(targets)


def _build_stats(
    result: ShortestPathResult,
    params: AggregationParams,
    num_neighbors: int,
    num_nodes: int,
) -> PathStats:
    targets = [v for v in result.lengths if v != result.source]
    num_routes = len(targets)
    if num_routes:
        route_lengths = [result.lengths[v] for v in targets]
        avg_len = sum(route_lengths) / num_routes
        min_len = min(route_lengths)
        max_len = max(route_lengths)
        avg_handshakes = _mean_hops(result, targets)
    else:
        avg_len = min_len = max_len = avg_handshakes = 0.0
    pct_connected = num_routes / (num_nodes - 1) if num_nodes > 1 else 0.0
    return PathStats(
        source=result.source,
        alpha=params.alpha,
        beta=params.beta,
        num_routes=num_routes,
        avg_len=avg_len,
        min_len=min_len,
        max_len=max_len,
        avg_handshakes=avg_handshakes,
        num_neighbors=num_neighbors,
        pct_connected=pct_connected,
    )


def path_stats(
    result: ShortestPathResult,
    net: MultiLayeredNetwork,
    params: AggregationParams | None = None,
) -> PathStats:
    """Summarize ``result`` against the network it was computed from.

    ``params`` defaults to the parameters recorded on the result; passing a
    conflicting value raises, as does a result whose node set does not match
    the network (a stale result from a different graph would silently skew
    every figure). ``num_neighbors`` counts the source's priced pairs with
    the row filter ``aggregate_graph`` applies.
    """
    net.require_sealed()
    if params is None:
        params = result.params if result.params is not None else AggregationParams()
    elif result.params is not None and result.params != params:
        raise InconsistentInputError(
            f"result was computed under {result.params}, not {params}"
        )
    if result.nodes != net.nodes:
        raise InconsistentInputError(
            "result node set does not match the network; was the result "
            "computed from a different graph?"
        )

    row = net.priced_pairs.get(result.source, ())
    num_neighbors = len(_kept_pairs(row, params.alpha, params.beta))
    return _build_stats(result, params, num_neighbors, net.num_nodes)


def stats_table(
    net: MultiLayeredNetwork,
    params: AggregationParams | None = None,
    sources: list[int] | None = None,
) -> list[PathStats]:
    """One ``PathStats`` row per source, in ascending node order.

    Aggregates the network once and reuses it across sources, so this is the
    economical way to profile a whole network under fixed thresholds.
    """
    net.require_sealed()
    if params is None:
        params = AggregationParams()
    graph = aggregate_graph(net, params)
    if sources is None:
        chosen = sorted(net.nodes)
    else:
        chosen = sorted(set(sources))
    num_nodes = net.num_nodes
    rows = []
    for source in chosen:
        result = aggregated_sssp(graph, source)
        rows.append(_build_stats(result, params, graph.out_degree(source), num_nodes))
    return rows


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

    A single pass over the priced pairs bins each one against the grid, so
    cost is O(pairs * grid) instead of one aggregation per cell.
    """
    net.require_sealed()
    if not alphas:
        raise ParameterError("at least one alpha value is required")
    if not betas:
        raise ParameterError("at least one beta value is required")
    alpha_grid = tuple(_coerce_alpha(a) for a in alphas)
    beta_grid = tuple(_coerce_beta(b) for b in betas)

    cells = [[0] * len(beta_grid) for _ in alpha_grid]
    for row in net.priced_pairs.values():
        for _, count, dist in row:
            for alpha, cell_row in zip(alpha_grid, cells):
                if count < alpha:
                    continue
                for j, beta in enumerate(beta_grid):
                    if dist <= beta:
                        cell_row[j] += 1
    return SweepReport(
        alphas=alpha_grid,
        betas=beta_grid,
        counts=tuple(tuple(row) for row in cells),
    )
