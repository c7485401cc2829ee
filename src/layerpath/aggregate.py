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
aggregated edge weight is always d(x, y), so the aggregated graph is a
filtered view of the network's flat priced rows, searched like the rows
themselves.

One rule is load-bearing and deliberate: a pair with no layered edge at all
never receives an aggregated edge, even though its distance is 1 and a
``beta`` of 1 would formally admit it. Admitting such pairs would turn every
aggregation with beta = 1 into a complete digraph, which contradicts how
out-degrees behave under loose thresholds. Tests pin this behavior.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .core import MultiLayeredNetwork, POSITIVE, coerce_int, coerce_unit, pair_distance
from .errors import InvalidAlphaError, InvalidBetaError, SameNodeError, UnknownNodeError


class _Thresholds(NamedTuple):
    alpha: int
    beta: float


class AggregationParams(_Thresholds):
    """Thresholds selecting which pairs survive aggregation.

    A pair needs at least ``alpha`` layers and a distance of at most
    ``beta``. The defaults admit every connected pair. Both are coerced on
    construction, ``_replace`` included: a bad alpha raises
    ``InvalidAlphaError`` and a bad beta ``InvalidBetaError``.
    """

    __slots__ = ()

    def __new__(cls, alpha: int = 1, beta: float = 1.0):
        return super().__new__(
            cls,
            coerce_int(alpha, "alpha", minimum=1, error=InvalidAlphaError),
            coerce_unit(beta, "beta", InvalidBetaError),
        )

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, and the inherited one skips ``__new__``
        return cls(*iterable)

    def kept(self, row: tuple) -> tuple:
        """The pairs of a flat priced row that meet both thresholds, flat; ``row`` if all do."""
        for _, kept in self.kept_rows({None: row}):
            return kept
        return ()

    def kept_rows(self, rows: Mapping[int, tuple]) -> Iterator[tuple[int, tuple]]:
        """``(src, kept(row))`` for each priced row of ``rows`` that keeps a pair, in order.

        One loop over every row, with no call per row. A kept row is the row
        itself when every pair passes, else a new flat tuple of the passing
        pairs' own items. Every priced pair spans a layer and lies at a
        distance of at most 1, so alpha 1 with beta 1 keeps every row whole
        without a look at its pairs.
        """
        alpha = self.alpha
        beta = self.beta
        if alpha == 1 and beta == 1.0:
            yield from rows.items()
            return
        for src, row in rows.items():
            it = iter(row)
            kept = []
            for dst, count, dist in zip(it, it, it):
                if count >= alpha and dist <= beta:
                    kept += (dst, count, dist)
            if kept:
                yield src, row if len(kept) == len(row) else tuple(kept)


class AggregatedGraph(NamedTuple):
    """Simple weighted digraph: the priced rows that pass the thresholds.

    ``priced_pairs`` is a read-only src -> (dst, layer count, distance, dst,
    ...), flat like the network's: its own rows cut down to the pairs that
    meet both thresholds, in priced order and with the same items; a row
    whose every pair passes is the network's row itself. Sources without
    kept pairs are left out. ``num_edges`` counts the kept pairs. Graphs
    compare, hash and print by identity, as objects do.
    """

    nodes: frozenset[int]
    params: AggregationParams
    priced_pairs: Mapping[int, tuple]
    num_edges: int

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__
    __repr__ = object.__repr__


def distance(net: MultiLayeredNetwork, x: int, y: int) -> float:
    """Layer-averaged distance between two distinct nodes, in [0, 1].

    Reads the pair's price from the sealed network's ``priced_pairs``. A pair
    with no edge on any layer has distance 1 under positive polarity (maximal
    strangeness) and 0 under negative polarity.
    """
    rows = net.priced_pairs
    if x == y:
        raise SameNodeError("distance is defined for distinct nodes only")
    for node in (x, y):
        if not net.has_node(node):
            raise UnknownNodeError(f"unknown node {node!r}")
    row = rows.get(x, ())
    targets = row[0::3]
    if y in targets:
        return row[3 * targets.index(y) + 2]
    return pair_distance(0.0, net.num_layers, net.polarity == POSITIVE)


def aggregate_graph(net: MultiLayeredNetwork, params: AggregationParams) -> AggregatedGraph:
    """Collapse every qualifying pair into a single aggregated edge.

    One pass over the network's priced rows keeps the pairs with
    ``count >= alpha and distance <= beta``; the beta comparison is exact (no
    epsilon). Only pairs carrying at least one layered edge are visited.
    Requires a sealed network.
    """
    rows = dict(params.kept_rows(net.priced_pairs))
    num_edges = sum(map(len, rows.values())) // 3
    return AggregatedGraph(net.nodes, params, MappingProxyType(rows), num_edges)
