"""Descriptive statistics over shortest-path results.

``path_stats`` condenses one single-source result into a fixed row of
aggregate figures (route counts, length spread, mean hop count, neighborhood
size, connectivity share) from the result alone: its thresholds, node set
and the priced rows its search read (``result.rows``). Hop counts come from
one forward pass over the parent-first predecessors, and the neighbour count
from ``AggregationParams.kept`` on the source's flat row, three items a
pair. ``edge_count_sweep`` counts how many aggregated edges survive each
combination of thresholds, which is the usual first look at how dense the
aggregated graph will be.
"""

from __future__ import annotations

from typing import NamedTuple

from .aggregate import AggregationParams
from .core import MultiLayeredNetwork, add_in_order
from .errors import ParameterError
from .paths import ShortestPathResult


class PathStats(NamedTuple):
    """Summary of one source's shortest paths under one threshold pair.

    The tuple is the row the CLI writes: its field order, ``STATS_COLUMNS``,
    is part of the output contract, and exporters must not reorder it.

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


STATS_COLUMNS = tuple(PathStats.__annotations__)


def path_stats(result: ShortestPathResult) -> PathStats:
    """Summarize ``result`` under the thresholds recorded on it."""
    params = result.params
    source = result.source
    route_lengths = [length for v, length in result.lengths.items() if v != source]
    num_routes = len(route_lengths)
    if num_routes:
        avg_len = add_in_order(route_lengths) / num_routes
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
        num_neighbors=len(params.kept(result.rows.get(source, ()))) // 3,
        pct_connected=num_routes / (num_nodes - 1) if num_nodes > 1 else 0.0,
    )


class SweepReport(NamedTuple):
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

    Each cell counts the priced pairs ``AggregationParams.kept_rows`` keeps
    under its thresholds, without building an aggregated graph.
    """
    if not alphas:
        raise ParameterError("at least one alpha value is required")
    if not betas:
        raise ParameterError("at least one beta value is required")
    alpha_grid = tuple(AggregationParams(alpha=alpha).alpha for alpha in alphas)
    beta_grid = tuple(AggregationParams(beta=beta).beta for beta in betas)

    rows = net.priced_pairs

    def count(params: AggregationParams) -> int:
        return sum(len(kept) for _, kept in params.kept_rows(rows)) // 3

    counts = tuple(
        tuple(count(AggregationParams(alpha, beta)) for beta in beta_grid)
        for alpha in alpha_grid
    )
    return SweepReport(alphas=alpha_grid, betas=beta_grid, counts=counts)
