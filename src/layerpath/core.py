"""Storage and neighborhood queries for multi-layered directed networks.

A network holds a node set, an ordered list of layers, and directed weighted
edges keyed by (src, dst, layer). Each ordered node pair may carry at most one
edge per layer, so the multiplicity of any pair is bounded by the number of
layers. Loops are rejected. Weights are relationship strengths in [0, 1].

Networks are built single-writer, then sealed. While it is built, a network
keeps no dict per pair: a slot map, src -> {dst: pair slot}, and per slot
the pair's layer bitmask (the duplicate check); each edge goes into three
per-edge ``array`` columns, its pair's slot, its layer index and its weight,
in insertion order. Sealing adds each pair's weights in one pass over the
weight column, in insertion order, prices each pair from its sum and its
mask's bit count, and empties the slot map into the one shape a sealed
network keeps: one flat priced row per source, ``(dst, layer count,
distance, dst, layer count, distance, ...)``, plus the per-edge layer and
weight columns and a column of each edge's pair position in the rows, from
which ``edges()`` groups a pair's edges. A row is read three items at a time, ``it = iter(row)`` and
``zip(it, it, it)``, which allocates nothing per pair. Only ``add_edges`` and
``seal`` touch the build state: every whole-network read (the edges, the
nodes, the per-layer counts, equality) and every path algorithm requires a
sealed network; a sealed network is immutable and safe to share across
threads.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import Counter
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .errors import (
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    ParameterError,
    SealedNetworkError,
    UnknownLayerError,
    UnsealedNetworkError,
    WeightOutOfRangeError,
)

POSITIVE = "positive"
NEGATIVE = "negative"
_POLARITIES = (POSITIVE, NEGATIVE)

ON_DUPLICATE_ERROR = "error"
ON_DUPLICATE_KEEP_MAX = "keep-max"
_DUPLICATE_POLICIES = (ON_DUPLICATE_ERROR, ON_DUPLICATE_KEEP_MAX)


class LayerId(NamedTuple):
    """Dense layer index paired with its human-readable label."""

    index: int
    label: str


class LayeredEdge(NamedTuple):
    """One directed edge on one layer."""

    src: int
    dst: int
    layer: LayerId
    weight: float


def coerce_int(value, what: str, *, minimum: int = 0, error=ParameterError, type_error=None) -> int:
    """``value`` as an exact integer of at least ``minimum`` (a node id, an alpha, a count).

    Bools, floats and strings are not integers here: ``operator.index`` would
    take ``True`` as 1. A value that is no integer raises ``type_error``
    (``error`` by default), one below ``minimum`` raises ``error``; both
    messages start with ``what``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise (type_error or error)(f"{what} must be an integer, got {value!r}") from None
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise error(f"{what} must be {bound}, got {value}")
    return value


def coerce_unit(value, what: str, error=ParameterError) -> float:
    """``value`` as a float in [0, 1] (a weight, a beta, a density), or ``error``.

    Bools and strings are not reals here: ``float()`` would take ``True`` as
    1.0 and the text ``"0.2_5"`` as 0.25, which ``parse_real`` rejects.
    """
    try:
        if isinstance(value, (bool, str, bytes, bytearray)):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a real number, got {value!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise error(f"{what} must lie in [0, 1], got {value}")
    return value


def parse_natural(text: str, what: str = "node id") -> int:
    """Non-negative integer (a node id, an alpha) from text matching ``[0-9]+``.

    Plain ``int()`` would also take ``+3``, ``1_0`` or non-ASCII digits and
    silently renumber the node, so a dump would no longer match its input.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} {text!r} is not a non-negative decimal integer")
    return int(text)


def parse_real(text: str, what: str = "weight") -> float:
    """Real number (a weight, a beta) from ASCII text without ``_``.

    ``float()`` alone would also take ``0.2_5`` or non-ASCII digits, and a
    dump would then no longer reproduce the input; ``repr`` forms such as
    ``1e-05`` pass.
    """
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"{what} {text!r} is not a number")


def pair_distance(wsum: float, num_layers: int, positive: bool) -> float:
    """Layer-averaged distance of a pair whose layer weights sum to ``wsum``.

    Positive polarity flips closeness into distance, ``1 - wsum / |L|``;
    negative polarity weights already behave like distances and are only
    averaged. Both land in [0, 1] without clamping: each weight is at most 1
    and rounding is monotone, so a sum over at most |L| layers is at most |L|.
    """
    if positive:
        return 1.0 - wsum / num_layers
    return wsum / num_layers


def add_in_order(values) -> float:
    """``0.0 + v1 + v2 + ...``, one plain float add at a time, left to right.

    ``sum()`` compensates on Python >= 3.12 and would change the last bits of
    some distances; ``functools.reduce`` is slower on a pair's few weights.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class MultiLayeredNetwork:
    """Directed multi-layer network with per-pair layer bookkeeping.

    Edges are indexed by source node for O(out-degree) scans. Sealing
    prices every connected pair once, so the thresholds and distances that
    aggregation and search need are read, not recomputed (``priced_pairs``).
    A sealed network keeps only those flat priced rows and three per-edge
    columns in insertion order, the layer indices, the weights and the
    positions of the edges' pairs in the rows, which ``edges()`` and
    ``edge_set()`` read; the build state (slot map, layer masks, per-edge
    slots) is gone.

    ``polarity`` records how raw weights are read downstream: ``"positive"``
    weights express closeness and are converted to distances, ``"negative"``
    weights already behave like distances and are only averaged.
    """

    def __init__(self, layers: tuple | list = (), polarity: str = POSITIVE) -> None:
        if polarity not in _POLARITIES:
            raise ValueError(f"polarity must be one of {_POLARITIES}, got {polarity!r}")
        self._polarity = polarity
        self._labels: list[str] = []
        self._label_index: dict[str, int] = {}
        # nodes given to add_node; seal() freezes them with every edge endpoint
        self._nodes: set[int] | frozenset[int] = set()
        # the build state, which seal() empties and deletes: src -> {dst:
        # slot}, a slot per pair in order of first appearance, and per slot
        # the mask of the pair's layers; per edge, in insertion order, its
        # pair's slot
        self._slots: dict[int, dict[int, int]] = {}
        self._masks: list[int] = []
        self._edge_slots = array("I")  # 4 B an edge; 2**32 pairs would not fit in memory
        # keep-max only, linked on the first duplicate: per slot the pair's
        # last linked edge and per edge the pair's edge before it (-1: none)
        self._heads = array("q")
        self._links = array("q")
        # per edge, in insertion order: its layer index, its weight and, set
        # by seal(), its pair's position in the rows; the flat rows, filled
        # by seal(): src -> (dst, layer count, distance, dst, ...)
        self._edge_layers = array("B")  # widened when a layer index outgrows it
        self._edge_weights = array("d")
        self._edge_pairs = array("I")
        self._priced: dict[int, tuple] = {}
        self._sealed = False
        for label in layers:
            self.add_layer(label)

    # -- construction -----------------------------------------------------

    def add_layer(self, label: str | None = None) -> LayerId:
        """Register a new layer; returns its dense index and label."""
        self._check_mutable()
        index = len(self._labels)
        if label is None:
            label = f"l{index + 1}"
        label = str(label)
        if label in self._label_index:
            raise ValueError(f"duplicate layer label {label!r}")
        self._labels.append(label)
        self._label_index[label] = index
        return LayerId(index, label)

    def add_node(self, node: int) -> int:
        """Register a node explicitly; isolated nodes are legal."""
        self._check_mutable()
        node = coerce_int(node, "node id", error=ValueError, type_error=TypeError)
        self._nodes.add(node)
        return node

    def add_edge(
        self, src: int, dst: int, layer, weight: float, *, on_duplicate: str = ON_DUPLICATE_ERROR
    ) -> None:
        """Add one directed edge on one layer: ``add_edges`` with a single row."""
        self.add_edges(((src, dst, layer, weight),), on_duplicate=on_duplicate)

    def add_edges(self, rows, *, on_duplicate: str = ON_DUPLICATE_ERROR) -> None:
        """Add directed edges from ``(src, dst, layer, weight)`` rows, in order.

        Endpoints join the node set when the network is sealed. Each row is
        checked in this order: node ids, then ``UnknownLayerError`` for
        unregistered layers, then ``WeightOutOfRangeError`` for weights
        outside [0, 1], then ``LoopEdgeError`` for src == dst. When the
        (src, dst, layer) triple already exists, ``on_duplicate="error"``
        raises ``DuplicateEdgeError`` and ``"keep-max"`` keeps the larger
        weight in the triple's first position, so the pair's weight sum at
        seal still adds its layers in first-appearance order. The first bad
        row stops the call; the rows before it stay added. ``rows`` may be a
        generator, and it may register layers on this network while it is
        consumed.
        """
        self._check_mutable()
        if on_duplicate not in _DUPLICATE_POLICIES:
            raise ParameterError(
                f"on_duplicate must be one of {_DUPLICATE_POLICIES}, got {on_duplicate!r}"
            )
        keep_max = on_duplicate == ON_DUPLICATE_KEEP_MAX
        slots = self._slots
        masks = self._masks
        heads = self._heads
        links = self._links
        edge_slots = self._edge_slots
        edge_layers = self._edge_layers
        edge_weights = self._edge_weights
        # bound appends save a row three attribute lookups
        append_slot, append_layer = edge_slots.append, edge_layers.append
        append_weight, append_mask = edge_weights.append, masks.append
        label_index = self._label_index
        resolve = self.layer
        for src, dst, layer, weight in rows:
            # exact non-negative ints, known labels and in-range floats
            # skip the coercion calls; anything else takes them
            if type(src) is not int or src < 0:
                src = coerce_int(src, "node id", error=ValueError, type_error=TypeError)
            if type(dst) is not int or dst < 0:
                dst = coerce_int(dst, "node id", error=ValueError, type_error=TypeError)
            lidx = label_index.get(layer) if type(layer) is str else None
            if lidx is None:
                lidx = resolve(layer).index
            if type(weight) is not float or not 0.0 <= weight <= 1.0:
                weight = coerce_unit(weight, "weight", WeightOutOfRangeError)
            if src == dst:
                raise LoopEdgeError(f"loop edge {src} -> {dst} is not allowed")

            targets = slots.get(src)
            if targets is None:
                targets = slots[src] = {}
            slot = targets.get(dst)
            if slot is None:
                slot = targets[dst] = len(masks)
                append_mask(1 << lidx)
            else:
                mask = masks[slot]
                if mask >> lidx & 1:
                    if not keep_max:
                        raise DuplicateEdgeError(
                            f"duplicate edge {src} -> {dst} on layer {self._labels[lidx]!r}"
                        )
                    # link the edges added since the last duplicate to their
                    # pairs, then walk this pair's few edges to the triple's
                    if len(links) < len(edge_slots):
                        heads.extend(repeat(-1, len(masks) - len(heads)))
                        for edge in range(len(links), len(edge_slots)):
                            links.append(heads[edge_slots[edge]])
                            heads[edge_slots[edge]] = edge
                    edge = heads[slot]
                    while edge_layers[edge] != lidx:
                        edge = links[edge]
                    if weight > edge_weights[edge]:  # max(held, weight): ties keep the held weight
                        edge_weights[edge] = weight
                    continue
                masks[slot] = mask | 1 << lidx
            append_slot(slot)
            try:
                append_layer(lidx)
            except OverflowError:  # the smallest unsigned typecode that holds it
                code = next(code for code in "HIL" if lidx < 1 << 8 * array(code).itemsize)
                edge_layers = self._edge_layers = array(code, edge_layers)
                append_layer = edge_layers.append
                append_layer(lidx)
            append_weight(weight)

    def seal(self) -> "MultiLayeredNetwork":
        """Freeze the network and price every connected pair once.

        Adds each pair's weights in one pass over the weight column, in
        insertion order, as ``add_in_order`` does, then prices each pair from
        its sum and its layer mask's bit count and empties the slot map into
        the flat priced rows one source at a time, so the freed dicts make
        room for the new rows. The node set is built once, from the nodes
        given to ``add_node`` and the finished rows' sources and targets.
        Required before running any path algorithm.
        """
        if not self._sealed:
            if not self._labels:
                raise GraphError("cannot seal a network with no layers")
            num_layers = len(self._labels)
            positive = self._polarity == POSITIVE
            slots, masks, edge_slots = self._slots, self._masks, self._edge_slots
            # a reader left on the build state fails instead of reading nothing
            del self._slots, self._masks, self._edge_slots, self._heads, self._links
            # 0.0 + w1 + w2 + ... per pair: a -0.0 weight sums to 0.0
            sums = array("d", bytes(8 * len(masks)))
            for slot, weight in zip(edge_slots, self._edge_weights):
                sums[slot] += weight
            # each slot's position in the rows
            positions = array("I", bytes(4 * len(masks)))
            position = 0
            priced = self._priced
            for src in list(slots):
                row = []
                for dst, slot in slots.pop(src).items():
                    dist = pair_distance(sums[slot], num_layers, positive)
                    row += (dst, masks[slot].bit_count(), dist)
                    positions[slot] = position
                    position += 1
                priced[src] = tuple(row)
            # the emptied slot map keeps its table until it is freed: free it,
            # the masks and the sums before the pair column is built
            del slots, masks, sums
            self._edge_pairs = array("I", map(positions.__getitem__, edge_slots))
            self._sealed = True
            # one table, sized for the sources at once: grown from an iterator
            # instead, a set can end up with twice the slots
            targets = chain.from_iterable(row[0::3] for row in priced.values())
            self._nodes = frozenset(self._nodes).union(priced, targets)
        return self

    def _check_mutable(self) -> None:
        if self._sealed:
            raise SealedNetworkError("network is sealed; build a new one to modify")

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise UnsealedNetworkError("operation requires a sealed network; call seal()")

    # -- introspection ----------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def polarity(self) -> str:
        return self._polarity

    @property
    def nodes(self) -> frozenset[int]:
        """Every node, isolated ones included; sealed only."""
        self._require_sealed()
        return self._nodes

    @property
    def layers(self) -> tuple[LayerId, ...]:
        return tuple(LayerId(i, lbl) for i, lbl in enumerate(self._labels))

    @property
    def num_nodes(self) -> int:
        self._require_sealed()
        return len(self._nodes)

    @property
    def num_layers(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edge_weights)

    def layer_edge_counts(self) -> list[int]:
        """Edges per layer, indexed like ``layers``; sealed only."""
        self._require_sealed()
        counts = Counter(self._edge_layers)
        return [counts[index] for index in range(len(self._labels))]

    def has_node(self, node: int) -> bool:
        self._require_sealed()
        return node in self._nodes

    def layer(self, ref) -> LayerId:
        """Resolve an int index, str label, or LayerId to a LayerId."""
        if isinstance(ref, LayerId):
            if 0 <= ref.index < len(self._labels) and self._labels[ref.index] == ref.label:
                return ref
            raise UnknownLayerError(f"layer {ref!r} does not belong to this network")
        if isinstance(ref, str):
            index = self._label_index.get(ref)
            if index is None:
                raise UnknownLayerError(f"unknown layer label {ref!r}")
            return LayerId(index, ref)
        try:
            if isinstance(ref, bool):  # operator.index would take True as layer 1
                raise TypeError
            index = operator.index(ref)
        except TypeError:
            raise UnknownLayerError(f"cannot resolve layer {ref!r}") from None
        if not 0 <= index < len(self._labels):
            raise UnknownLayerError(
                f"layer index {index} out of range for {len(self._labels)} layers"
            )
        return LayerId(index, self._labels[index])

    def edges(self) -> Iterator[LayeredEdge]:
        """All edges by source, then by pair, each in insertion order; sealed only."""
        self._require_sealed()
        layers = self.layers
        edge_layers = self._edge_layers
        edge_weights = self._edge_weights
        pairs = self._edge_pairs
        # edge indices by the position of their pair in the rows; the sort is
        # stable, so a pair's edges keep insertion order
        order = iter(sorted(range(len(pairs)), key=pairs.__getitem__))
        return (
            LayeredEdge(src, dst, layers[edge_layers[edge]], edge_weights[edge])
            for src, row in self._priced.items()
            for dst, count in zip(row[0::3], row[1::3])
            for edge in islice(order, count)
        )

    @property
    def priced_pairs(self) -> Mapping[int, tuple]:
        """Read-only ``src -> (dst, layer count, distance, dst, ...)``; sealed only.

        Each flat row lists, three items a pair, every ordered pair from
        ``src`` carrying at least one layered edge, in insertion order; read
        it as ``it = iter(row); zip(it, it, it)``. The distance is
        ``pair_distance`` of the pair.
        """
        self._require_sealed()
        return MappingProxyType(self._priced)

    # -- comparison ---------------------------------------------------------

    def edge_set(self) -> frozenset[tuple[int, int, str, float]]:
        """Edges as (src, dst, layer label, weight) tuples, order-free; sealed only.

        Walks the three edge columns as they lie, so it skips the sort by pair
        position that ``edges()`` makes.
        """
        self._require_sealed()
        ends = [(src, dst) for src, row in self._priced.items() for dst in row[0::3]]
        labels = self._labels
        return frozenset(
            (*ends[pair], labels[layer], weight)
            for pair, layer, weight in zip(self._edge_pairs, self._edge_layers, self._edge_weights)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiLayeredNetwork):
            return NotImplemented
        return (
            self.polarity == other.polarity
            and self.nodes == other.nodes
            and {lid.label for lid in self.layers} == {lid.label for lid in other.layers}
            and self.edge_set() == other.edge_set()
        )

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        # the node set is complete only once seal() has merged the endpoints
        nodes = f"nodes={len(self._nodes)}, " if self._sealed else ""
        state = "sealed" if self._sealed else "building"
        return (
            f"MultiLayeredNetwork({nodes}layers={len(self._labels)}, "
            f"edges={len(self._edge_weights)}, polarity={self._polarity!r}, {state})"
        )
