"""Distance conversion and collapse of parallel layered edges.

The pairwise distance averages the per-layer closeness weights over all
layers of the network (absent layers count as weight 0) and, for positive
polarity, flips closeness into distance:

    d(x, y) = 1 - (sum of w(x, y, l) over all layers) / |L|

For negative polarity the weights already behave like distances, so the sum
is only normalized, never subtracted from 1. The formula is written once, as
``core.pair_distance``, and applied to every connected pair when the network
is sealed.

A pair of nodes survives aggregation into a single weighted edge when it
spans at least ``alpha`` layers and its distance is at most ``beta``. The
aggregated edge weight is always d(x, y).

One rule is load-bearing and deliberate: a pair with no layered edge at all
never receives an aggregated edge, even though its distance is 1 and a
``beta`` of 1 would formally admit it. Admitting such pairs would turn every
aggregation with beta = 1 into a complete digraph, which contradicts how
out-degrees behave under loose thresholds. Tests pin this behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import MultiLayeredNetwork, POSITIVE, _coerce_alpha, pair_distance
from .errors import InvalidBetaError, SameNodeError


def _coerce_beta(beta) -> float:
    try:
        beta = float(beta)
    except (TypeError, ValueError):
        raise InvalidBetaError(f"beta must be a real number, got {beta!r}") from None
    if math.isnan(beta) or not 0.0 <= beta <= 1.0:
        raise InvalidBetaError(f"beta must lie in [0, 1], got {beta}")
    return beta


@dataclass(frozen=True)
class AggregationParams:
    """Thresholds selecting which pairs survive aggregation.

    A pair needs at least ``alpha`` layers and a distance of at most
    ``beta``. The defaults admit every connected pair.
    """

    alpha: int = 1
    beta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _coerce_alpha(self.alpha))
        object.__setattr__(self, "beta", _coerce_beta(self.beta))


class AggregatedEdge(NamedTuple):
    src: int
    dst: int
    distance: float
    layer_count: int


class AggregatedGraph:
    """Simple weighted digraph produced by collapsing layered edges.

    ``adj`` maps src -> {dst: distance} and ``counts`` src -> {dst: layer
    count}, with the same keys; sources without kept edges are left out.
    """

    def __init__(
        self,
        nodes: frozenset[int],
        params: AggregationParams,
        adj: dict[int, dict[int, float]],
        counts: dict[int, dict[int, int]],
    ) -> None:
        self._nodes = nodes
        self._params = params
        self._adj = adj
        self._counts = counts
        self._num_edges = sum(len(targets) for targets in adj.values())

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    @property
    def params(self) -> AggregationParams:
        return self._params

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_edges(self, x: int) -> dict[int, float]:
        """Aggregated {target: distance} map of x (do not mutate)."""
        return self._adj.get(x, {})

    def out_degree(self, x: int) -> int:
        return len(self._adj.get(x, ()))

    def edge(self, x: int, y: int) -> AggregatedEdge | None:
        dist = self._adj.get(x, {}).get(y)
        if dist is None:
            return None
        return AggregatedEdge(x, y, dist, self._counts[x][y])

    def edges(self) -> Iterator[AggregatedEdge]:
        for src, targets in self._adj.items():
            counts = self._counts[src]
            for dst, dist in targets.items():
                yield AggregatedEdge(src, dst, dist, counts[dst])


def distance(net: MultiLayeredNetwork, x: int, y: int) -> float:
    """Layer-averaged distance between two distinct nodes, in [0, 1].

    A pair with no edge on any layer has distance 1 under positive polarity
    (maximal strangeness) and 0 under negative polarity. Works on unsealed
    networks too.
    """
    if x == y:
        raise SameNodeError("distance is defined for distinct nodes only")
    _, wsum = net.pair_summary(x, y)
    return pair_distance(wsum, net.num_layers, net.polarity == POSITIVE)


def aggregate_graph(net: MultiLayeredNetwork, params: AggregationParams) -> AggregatedGraph:
    """Collapse every qualifying pair into a single aggregated edge.

    Only pairs carrying at least one layered edge are visited; the beta
    comparison is exact (no epsilon). Requires a sealed network.
    """
    alpha = params.alpha
    beta = params.beta
    adj = {}
    counts = {}
    for src, row in net.priced_pairs.items():
        kept = {dst: dist for dst, count, dist in row if count >= alpha and dist <= beta}
        if kept:
            adj[src] = kept
            counts[src] = {dst: count for dst, count, _ in row if dst in kept}
    return AggregatedGraph(net.nodes, params, adj, counts)
