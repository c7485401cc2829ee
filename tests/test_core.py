"""Network construction, validation, neighborhood queries and seal pricing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerpath import (
    NEGATIVE,
    POSITIVE,
    AggregationParams,
    DuplicateEdgeError,
    GraphError,
    LayerId,
    LayeredEdge,
    LayerPathError,
    LoopEdgeError,
    MultiLayeredNetwork,
    ParameterError,
    SealedNetworkError,
    UnknownLayerError,
    UnsealedNetworkError,
    WeightOutOfRangeError,
)
from layerpath.core import add_in_order, pair_distance
from netgen import build_net, layered_networks
from oracles import (
    keep_max_edge_order,
    naive_neighborhood,
    oracle_priced_pairs,
    recount_pairs,
    triples,
)

X, Y, Z, U, V = range(5)


def kept_targets(net, x, alpha):
    """Nodes that x points to on at least ``alpha`` layers, by the alpha rule of aggregation."""
    return set(AggregationParams(alpha).kept(net.priced_pairs.get(x, ()))[0::3])


def demo_net():
    """Five people, three relationship layers.

    On the first layer everyone has a few mutual ties; on the other two only
    X keeps in touch with the rest. X reaches Y and Z on all three layers but
    U and V on just two, which the threshold tests below rely on.
    """
    net = MultiLayeredNetwork(layers=("work", "lunch", "tennis"))
    for src, dst in [(X, Y), (Y, X), (X, Z), (Z, X), (Y, Z), (U, Z), (U, V), (V, U)]:
        net.add_edge(src, dst, "work", 0.5)
    for src, dst in [(X, Y), (X, Z), (X, U), (X, V)]:
        net.add_edge(src, dst, "lunch", 0.6)
        net.add_edge(src, dst, "tennis", 0.7)
    return net.seal()


class TestLayers:
    def test_explicit_labels(self):
        net = MultiLayeredNetwork(layers=("a", "b"))
        assert net.num_layers == 2
        assert [l.label for l in net.layers] == ["a", "b"]
        assert [l.index for l in net.layers] == [0, 1]

    def test_auto_labels_count_from_one(self):
        net = MultiLayeredNetwork()
        assert net.add_layer() == LayerId(0, "l1")
        assert net.add_layer() == LayerId(1, "l2")

    def test_duplicate_label_rejected(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(ValueError):
            net.add_layer("a")

    def test_layer_resolution(self):
        net = MultiLayeredNetwork(layers=("a", "b"))
        assert net.layer(0) == LayerId(0, "a")
        assert net.layer("b") == LayerId(1, "b")
        assert net.layer(LayerId(1, "b")) == LayerId(1, "b")
        for bad in (2, "c", LayerId(0, "b"), True):
            with pytest.raises(UnknownLayerError):
                net.layer(bad)


class TestNodes:
    def test_add_node_idempotent(self):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_node(3)
        net.add_node(3)
        assert net.seal().nodes == frozenset({3})

    def test_isolated_nodes_are_legal(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=(7,))
        assert 7 in net.nodes
        assert net.num_nodes == 3

    def test_node_id_validation(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(ValueError):
            net.add_node(-1)
        with pytest.raises(TypeError):
            net.add_node("zero")
        with pytest.raises(TypeError):
            net.add_node(1.0)
        with pytest.raises(TypeError):
            net.add_node(True)
        with pytest.raises(TypeError):
            net.add_edge(True, 2, "a", 0.5)
        with pytest.raises(ValueError):
            net.add_edge(-1, 2, "a", 0.5)
        with pytest.raises(ValueError):
            net.add_edge(2, -1, "a", 0.5)
        assert net.seal().nodes == frozenset()


class TestEdges:
    def test_add_edge_stores_the_resolved_edge(self):
        net = MultiLayeredNetwork(layers=("a",))
        assert net.add_edge(0, 1, "a", 0.25) is None
        net.seal()
        assert list(net.edges()) == [LayeredEdge(0, 1, LayerId(0, "a"), 0.25)]
        assert net.nodes == frozenset({0, 1})

    def test_loop_rejected(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(LoopEdgeError):
            net.add_edge(4, 4, "a", 0.5)

    def test_duplicate_triple_rejected(self):
        net = MultiLayeredNetwork(layers=("a", "b"))
        net.add_edge(0, 1, "a", 0.5)
        with pytest.raises(DuplicateEdgeError):
            net.add_edge(0, 1, "a", 0.9)
        # same pair on another layer, and the reverse direction, are fine
        net.add_edge(0, 1, "b", 0.9)
        net.add_edge(1, 0, "a", 0.9)
        assert net.num_edges == 3

    def test_keep_max_merges_duplicates_in_place(self):
        # a larger repeat replaces the weight, a smaller one is dropped
        for repeats, kept in [([0.75], 0.75), ([0.125], 0.5), ([0.75, 0.125], 0.75)]:
            net = MultiLayeredNetwork(layers=("a", "b"))
            net.add_edge(0, 1, "a", 0.5)
            net.add_edge(0, 1, "b", 0.25)
            for weight in repeats:
                net.add_edge(0, 1, "a", weight, on_duplicate="keep-max")
            assert net.num_edges == 2
            with pytest.raises(WeightOutOfRangeError):
                net.add_edge(0, 1, "a", 1.5, on_duplicate="keep-max")
            net.seal()
            assert [(e.layer.label, e.weight) for e in net.edges()] == [("a", kept), ("b", 0.25)]
            assert dict(net.priced_pairs) == {0: (1, 2, 1 - (kept + 0.25) / 2)}

    def test_unknown_duplicate_policy(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(ParameterError):
            net.add_edge(0, 1, "a", 0.5, on_duplicate="first-wins")
        assert net.num_edges == 0

    @pytest.mark.parametrize("weight", [-0.1, 1.0001, float("nan"), float("inf"), True])
    def test_weight_range(self, weight):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(WeightOutOfRangeError):
            net.add_edge(0, 1, "a", weight)

    def test_boundary_weights_are_legal(self):
        net = MultiLayeredNetwork(layers=("a", "b"))
        net.add_edge(0, 1, "a", 0.0)
        net.add_edge(0, 1, "b", 1.0)
        net.seal()
        assert [(e.layer.label, e.weight) for e in net.edges()] == [("a", 0.0), ("b", 1.0)]
        assert dict(net.priced_pairs) == {0: (1, 2, 0.5)}

    def test_unknown_layer(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(UnknownLayerError):
            net.add_edge(0, 1, "nope", 0.5)

    def test_edges_iterate_in_insertion_order(self):
        net = MultiLayeredNetwork(layers=("a", "b"))
        net.add_edge(2, 0, "b", 0.1)
        net.add_edge(0, 2, "a", 0.2)
        net.seal()
        assert [(e.src, e.dst) for e in net.edges()] == [(2, 0), (0, 2)]


# rows mixing the fast path (exact ints, known labels, floats in [0, 1]) with
# every kind of input that must take the coercion calls or fail there
_node_refs = st.one_of(
    st.integers(-1, 3), st.booleans(), st.integers(0, 3).map(np.int64), st.just("1")
)
_layer_refs = st.sampled_from(
    ["a", "b", "c", 0, 1, 2, True, np.int64(1), LayerId(0, "a"), LayerId(1, "a"), 1.0]
)
_weights = st.one_of(
    st.floats(-0.25, 1.25, allow_nan=False),
    st.sampled_from(
        [float("nan"), -0.0, 1.0, True, False, 1, np.int64(0), np.float64(0.5), "0.5", "x", None]
    ),
)


def _snapshot(net):
    net.seal()
    return (
        [(e.src, e.dst, e.layer, e.weight.hex()) for e in net.edges()],
        net.layer_edge_counts(),
        net.num_edges,
        net.nodes,
        _bits(net.priced_pairs),
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_node_refs, _node_refs, _layer_refs, _weights), max_size=12),
    on_duplicate=st.sampled_from(["error", "keep-max"]),
)
def test_add_edges_matches_add_edge_row_by_row(rows, on_duplicate):
    """One ``add_edges`` call and ``add_edge`` per row: same error, then same sealed edges, counts and prices."""
    bulk = MultiLayeredNetwork(layers=("a", "b"))
    read = []

    def counted():
        for row in rows:
            read.append(row)
            yield row

    try:
        bulk.add_edges(counted(), on_duplicate=on_duplicate)
        bulk_error = None
    except (LayerPathError, TypeError, ValueError) as exc:
        bulk_error = (type(exc), str(exc), len(read) - 1)

    single = MultiLayeredNetwork(layers=("a", "b"))
    single_error = None
    for at, row in enumerate(rows):
        try:
            single.add_edge(*row, on_duplicate=on_duplicate)
        except (LayerPathError, TypeError, ValueError) as exc:
            single_error = (type(exc), str(exc), at)
            break

    assert bulk_error == single_error
    assert _snapshot(bulk) == _snapshot(single)


class TestSealing:
    @pytest.mark.parametrize(
        "read",
        [
            lambda net: net.edges(),
            lambda net: net.edge_set(),
            lambda net: net == net,
            lambda net: net.layer_edge_counts(),
            lambda net: net.nodes,
            lambda net: net.has_node(0),
            lambda net: net.num_nodes,
        ],
        ids=["edges", "edge_set", "eq", "layer_edge_counts", "nodes", "has_node", "num_nodes"],
    )
    def test_whole_network_reads_require_seal(self, read):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_edge(0, 1, "a", 0.5)
        with pytest.raises(UnsealedNetworkError):
            read(net)
        net.seal()
        read(net)

    def test_building_network_reads_its_layers_and_edge_count(self):
        net = MultiLayeredNetwork(layers=("a", "b"), polarity=NEGATIVE)
        net.add_edge(0, 1, "b", 0.5)
        assert repr(net) == (
            "MultiLayeredNetwork(layers=2, edges=1, polarity='negative', building)"
        )
        assert (net.layers, net.num_layers, net.layer("b")) == (
            (LayerId(0, "a"), LayerId(1, "b")), 2, LayerId(1, "b")
        )
        assert (net.polarity, net.num_edges, net.sealed) == (NEGATIVE, 1, False)
        net.seal()
        assert repr(net) == (
            "MultiLayeredNetwork(nodes=2, layers=2, edges=1, polarity='negative', sealed)"
        )

    def test_sealed_network_is_immutable(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)])
        with pytest.raises(SealedNetworkError):
            net.add_edge(1, 2, "a", 0.5)
        with pytest.raises(SealedNetworkError):
            net.add_node(9)
        with pytest.raises(SealedNetworkError):
            net.add_layer("b")

    def test_seal_is_idempotent(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)])
        assert net.seal() is net
        assert net.sealed

    def test_seal_requires_a_layer(self):
        with pytest.raises(GraphError):
            MultiLayeredNetwork().seal()


class TestQueries:
    def test_counts(self):
        net = demo_net()
        assert net.num_nodes == 5
        assert net.num_layers == 3
        assert net.num_edges == 16
        assert net.layer_edge_counts() == [8, 4, 4]

    def test_pair_weights_and_price(self):
        net = demo_net()
        weights = {e.layer.label: e.weight for e in net.edges() if (e.src, e.dst) == (X, Y)}
        assert weights == {"work": 0.5, "lunch": 0.6, "tennis": 0.7}
        priced = {dst: (count, dist) for dst, count, dist in triples(net.priced_pairs[X])}
        assert priced[Y] == (3, 1 - (0.5 + 0.6 + 0.7) / 3)
        assert V not in net.priced_pairs[Y][0::3]

    def test_edges_per_layer(self):
        net = demo_net()

        def targets(x, label):
            return {e.dst for e in net.edges() if e.src == x and e.layer.label == label}

        assert targets(X, "work") == {Y, Z}
        assert targets(X, "lunch") == {Y, Z, U, V}
        assert targets(U, "tennis") == set()

    def test_multi_neighborhood_thresholds(self):
        net = demo_net()
        assert kept_targets(net, X, 1) == {Y, Z, U, V}
        assert kept_targets(net, X, 2) == {Y, Z, U, V}
        assert kept_targets(net, X, 3) == {Y, Z}
        # more layers than the network has: nothing qualifies
        assert kept_targets(net, X, 4) == set()
        assert kept_targets(net, V, 1) == {U}


class TestPricedPairs:
    def test_sealing_prices_each_connected_pair(self):
        net = build_net(("a", "b"), [(0, 1, "a", 0.5), (0, 1, "b", 0.25), (1, 2, "b", 1.0)])
        assert dict(net.priced_pairs) == {0: (1, 2, 0.625), 1: (2, 1, 0.5)}

    def test_weights_are_summed_in_insertion_order(self):
        # sum() rounds 0.1 + 0.2 + 0.3 once (to 0.6) on Python >= 3.12; the
        # stored price must keep the left-to-right sum on every version
        net = build_net(("a", "b", "c"), [(0, 1, "a", 0.1), (0, 1, "b", 0.2), (0, 1, "c", 0.3)])
        expected = 1 - ((0.1 + 0.2) + 0.3) / 3
        assert expected != 1 - 0.6 / 3
        (dst, count, dist) = net.priced_pairs[0]
        assert (dst, count) == (1, 3)
        assert dist.hex() == expected.hex()
        assert add_in_order([0.1, 0.2, 0.3]).hex() == ((0.1 + 0.2) + 0.3).hex()

    @pytest.mark.parametrize("calls", ["one keep-max call", "error call, then keep-max call"])
    def test_keep_max_reprices_in_first_appearance_order(self, calls):
        # layer a's weight is replaced after b and c were added; the price
        # must add (0.1, 0.2, 0.3) left to right, not the running sum that
        # held 0.05, nor with the replaced weight added last
        rows = [(0, 1, "a", 0.05), (2, 3, "a", 0.5), (0, 1, "b", 0.2), (0, 1, "c", 0.3)]
        repeat = [(0, 1, "a", 0.1), (0, 1, "b", 0.125)]
        net = MultiLayeredNetwork(layers=("a", "b", "c"))
        if calls == "one keep-max call":
            net.add_edges(rows + repeat, on_duplicate="keep-max")
        else:
            net.add_edges(rows, on_duplicate="error")
            net.add_edges(repeat, on_duplicate="keep-max")
        net.seal()
        expected = pair_distance(add_in_order([0.1, 0.2, 0.3]), 3, True)
        assert expected != pair_distance(add_in_order([0.2, 0.3, 0.1]), 3, True)
        (dst, count, dist) = net.priced_pairs[0]
        assert (dst, count, dist.hex()) == (1, 3, expected.hex())
        assert [(e.src, e.layer.label, e.weight) for e in net.edges()] == [
            (0, "a", 0.1), (0, "b", 0.2), (0, "c", 0.3), (2, "a", 0.5)
        ]

    def test_sealed_only_and_read_only(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], sealed=False)
        with pytest.raises(UnsealedNetworkError):
            net.priced_pairs
        net.seal()
        with pytest.raises(TypeError):
            net.priced_pairs[0] = ()


_EDGE_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=100)
@given(
    st.sampled_from([POSITIVE, NEGATIVE]),
    st.integers(1, 8).flatmap(
        lambda num_layers: st.tuples(
            st.just(num_layers),
            st.lists(st.lists(_EDGE_WEIGHTS, min_size=1, max_size=num_layers), min_size=1, max_size=6),
        )
    ),
)
def test_sealed_distances_lie_in_the_unit_interval(polarity, shape):
    # no clamp guards the stored distance: each weight is at most 1 and
    # rounding is monotone, so a sum over at most |L| layers is at most |L|
    num_layers, pairs = shape
    net = MultiLayeredNetwork(layers=range(num_layers), polarity=polarity)
    for dst, weights in enumerate(pairs, start=1):
        for layer, weight in enumerate(weights):
            net.add_edge(0, dst, layer, weight)
    net.seal()
    for row in net.priced_pairs.values():
        for dist in row[2::3]:
            assert 0.0 <= dist <= 1.0


class TestEquality:
    def test_insertion_order_does_not_matter(self):
        a = build_net(("a", "b"), [(0, 1, "a", 0.5), (1, 2, "b", 0.25)])
        b = build_net(("b", "a"), [(1, 2, "b", 0.25), (0, 1, "a", 0.5)])
        assert a == b

    def test_weight_and_polarity_matter(self):
        edges = [(0, 1, "a", 0.5)]
        base = build_net(("a",), edges)
        assert base != build_net(("a",), [(0, 1, "a", 0.75)])
        assert base != build_net(("a",), edges, polarity=NEGATIVE)
        assert base != build_net(("z",), [(0, 1, "z", 0.5)])

    def test_extra_isolated_node_matters(self):
        edges = [(0, 1, "a", 0.5)]
        assert build_net(("a",), edges) != build_net(("a",), edges, extra_nodes=(5,))


@settings(max_examples=60)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), st.integers(1, 4))
def test_neighborhood_matches_naive_recount(net, alpha):
    for x in net.nodes:
        assert kept_targets(net, x, alpha) == naive_neighborhood(net, x, alpha)


@settings(max_examples=60)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)))
def test_pair_cache_matches_edge_recount(net):
    recounted = recount_pairs(net)
    priced = {
        (src, dst): count for src, row in net.priced_pairs.items() for dst, count, _ in triples(row)
    }
    assert priced == {pair: count for pair, (count, _) in recounted.items()}
    total = sum(count for count, _ in recounted.values())
    assert net.num_edges == total == len(list(net.edges()))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from("abc"), st.floats(0.0, 1.0)),
        max_size=30,
    ).map(lambda rows: [row for row in rows if row[0] != row[1]]),
    st.sampled_from([POSITIVE, NEGATIVE]),
)
# (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 == 0.6, and negative polarity's
# sum / |L| keeps that last bit: pair (0, 1) is priced wrong if its weights
# are added in another order or correctly rounded
@example(
    [(0, 1, "a", 0.05), (2, 1, "a", 0.5), (0, 1, "b", 0.2), (0, 1, "c", 0.3), (0, 1, "a", 0.1)],
    NEGATIVE,
)
def test_sealing_keeps_every_edge_in_order(rows, polarity):
    # a sealed network lists its edges from the per-edge columns: sources,
    # pairs and layers by first appearance, keep-max repeats in place; each
    # pair's price adds those edges' weights in that order
    net = MultiLayeredNetwork(layers=("a", "b", "c"), polarity=polarity)
    net.add_edges(rows, on_duplicate="keep-max")
    expected = keep_max_edge_order(rows)
    edges, counts, num_edges, nodes, priced = _snapshot(net)
    assert edges == [(src, dst, net.layer(layer), weight.hex()) for src, dst, layer, weight in expected]
    assert counts == [sum(row[2] == label for row in expected) for label in "abc"]
    assert num_edges == len(expected)
    assert nodes == {node for row in rows for node in row[:2]}
    assert priced == _bits(oracle_priced_pairs(net))


def _bits(rows):
    """Rows in order, each distance as its exact float bits."""
    return [
        (src, [(dst, count, dist.hex()) for dst, count, dist in triples(row)])
        for src, row in rows.items()
    ]


@settings(max_examples=100)
@given(layered_networks(max_layers=6, polarities=(POSITIVE, NEGATIVE)))
def test_priced_pairs_match_an_independent_pricer(net):
    # the rows both searches read, against a pricer that shares no code with seal()
    assert _bits(net.priced_pairs) == _bits(oracle_priced_pairs(net))
    exact_sums = {}
    for e in net.edges():
        exact_sums[e.src, e.dst] = exact_sums.get((e.src, e.dst), 0) + Fraction(e.weight)
    num_layers = net.num_layers
    for src, row in net.priced_pairs.items():
        for dst, _, dist in triples(row):
            mean = exact_sums[src, dst] / num_layers
            exact = 1 - mean if net.polarity == POSITIVE else mean
            assert abs(Fraction(dist) - exact) <= Fraction(num_layers, 2**52)
