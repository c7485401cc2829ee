"""Layer aggregation: pair distances, threshold edges, whole-graph builds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpath import (
    NEGATIVE,
    POSITIVE,
    AggregationParams,
    InvalidAlphaError,
    InvalidBetaError,
    MultiLayeredNetwork,
    SameNodeError,
    UnknownNodeError,
    UnsealedNetworkError,
    aggregate_graph,
    distance,
)
from netgen import build_net, layered_networks
from oracles import recount_pairs, triples

PARAM_GRID = [
    AggregationParams(alpha, beta)
    for alpha in (1, 2, 3)
    for beta in (0.25, 0.5, 0.75, 1.0)
]


def three_layer_pair(w1=None, w2=None, w3=None, polarity=POSITIVE):
    """One ordered pair (0, 1) carrying the given weights; None = absent."""
    net = MultiLayeredNetwork(layers=("a", "b", "c"), polarity=polarity)
    for label, w in zip(("a", "b", "c"), (w1, w2, w3)):
        if w is not None:
            net.add_edge(0, 1, label, w)
    net.add_node(1)
    return net.seal()


class TestDistance:
    def test_partial_pair(self):
        # two of three layers present: 1 - (0.8 + 0.5)/3 = 17/30
        net = three_layer_pair(0.8, 0.5, None)
        assert abs(distance(net, 0, 1) - 17 / 30) < 1e-15

    def test_absent_pair_is_maximal(self):
        net = three_layer_pair(0.8, 0.5, None)
        assert distance(net, 1, 0) == 1.0

    def test_full_strength_pair_is_zero(self):
        net = three_layer_pair(1.0, 1.0, 1.0)
        assert distance(net, 0, 1) == 0.0

    def test_zero_weight_edges_count_as_absent_strength(self):
        net = three_layer_pair(0.0, 0.0, 0.0)
        assert distance(net, 0, 1) == 1.0

    def test_negative_polarity_averages_without_flip(self):
        net = three_layer_pair(0.9, None, None, polarity=NEGATIVE)
        assert distance(net, 0, 1) == 0.9 / 3
        assert distance(net, 1, 0) == 0.0  # nothing there, nothing averaged

    def test_same_node_rejected(self):
        net = three_layer_pair(0.5)
        with pytest.raises(SameNodeError):
            distance(net, 1, 1)

    def test_unknown_node_rejected(self):
        net = three_layer_pair(0.5)
        with pytest.raises(UnknownNodeError):
            distance(net, 0, 9)
        with pytest.raises(UnknownNodeError):
            distance(net, 9, 0)

    def test_finds_a_pair_at_any_position_of_its_row(self):
        # 0's flat row lists targets 5, 1 and 2 first, in the middle and
        # last, and holds 1 and 2 as layer counts before those targets
        net = build_net(
            ("a", "b"),
            [(0, 5, "a", 0.25), (0, 1, "a", 0.5), (0, 1, "b", 0.5), (0, 2, "a", 0.75)],
            extra_nodes=(3,),
        )
        row = net.priced_pairs[0]
        assert row == (5, 1, 1 - 0.25 / 2, 1, 2, 1 - 1.0 / 2, 2, 1, 1 - 0.75 / 2)
        assert distance(net, 0, 5) is row[2]
        assert distance(net, 0, 1) is row[5]
        assert distance(net, 0, 2) is row[8]
        assert distance(net, 0, 3) == 1.0

    def test_distance_requires_seal(self):
        # distances are read from the prices seal() writes
        net = MultiLayeredNetwork(layers=("a",))
        net.add_edge(0, 1, "a", 0.5)
        with pytest.raises(UnsealedNetworkError):
            distance(net, 0, 1)
        assert distance(net.seal(), 0, 1) == 0.5


class TestParams:
    def test_defaults_admit_everything_connected(self):
        p = AggregationParams()
        assert p.alpha == 1 and p.beta == 1.0

    def test_validation(self):
        with pytest.raises(InvalidAlphaError):
            AggregationParams(alpha=0)
        with pytest.raises(InvalidAlphaError):
            AggregationParams(alpha=True)
        with pytest.raises(InvalidBetaError):
            AggregationParams(beta=1.5)
        with pytest.raises(InvalidBetaError):
            AggregationParams(beta=float("nan"))
        with pytest.raises(InvalidBetaError):
            AggregationParams(beta=True)


class TestKept:
    def net(self):
        """Source 0: pairs (1, count 2, d 0.25), (2, count 1, d 0.75), (3, count 2, d 0.5)."""
        return build_net(
            ("a", "b"),
            [
                (0, 1, "a", 0.75), (0, 1, "b", 0.75),
                (0, 2, "a", 0.5),
                (0, 3, "a", 0.5), (0, 3, "b", 0.5),
                (1, 3, "a", 0.5), (1, 3, "b", 0.5),
            ],
        )

    def test_a_row_whose_pairs_all_pass_is_the_row_itself(self):
        row = self.net().priced_pairs[0]
        assert row == (1, 2, 0.25, 2, 1, 0.75, 3, 2, 0.5)
        # alpha 1 with beta 1 keeps rows whole unread; other cells test each pair
        for params in [AggregationParams(), AggregationParams(1, 0.75)]:
            assert params.kept(row) is row
        last = row[6:]
        assert AggregationParams(2, 0.5).kept(last) is last

    def test_kept_pairs_are_flat_and_the_rows_own_objects(self):
        row = self.net().priced_pairs[0]
        for params, positions in [
            (AggregationParams(2, 1.0), (0, 6)),
            (AggregationParams(1, 0.5), (0, 6)),
            (AggregationParams(1, 0.25), (0,)),
            (AggregationParams(2, 0.4), (0,)),
            (AggregationParams(3, 1.0), ()),
        ]:
            kept = params.kept(row)
            expected = tuple(item for at in positions for item in row[at : at + 3])
            assert kept == expected
            assert all(a is b for a, b in zip(kept, expected))
        assert AggregationParams().kept(()) == ()
        assert AggregationParams(2, 0.5).kept(()) == ()

    def test_kept_rows_leaves_out_rows_that_keep_nothing(self):
        rows = self.net().priced_pairs
        assert dict(AggregationParams().kept_rows(rows)) == dict(rows)
        assert dict(AggregationParams(1, 0.25).kept_rows(rows)) == {0: (1, 2, 0.25)}
        assert dict(AggregationParams(3, 1.0).kept_rows(rows)) == {}

    def test_num_edges_counts_pairs_not_items(self):
        # the benchmark's traced run adds num_edges up as kept pairs, its
        # aggregate.kept_ratio
        net = self.net()
        assert aggregate_graph(net, AggregationParams()).num_edges == 4
        assert aggregate_graph(net, AggregationParams(2, 1.0)).num_edges == 3
        assert aggregate_graph(net, AggregationParams(1, 0.25)).num_edges == 1


def kept_pairs(graph):
    """The (src, dst) pairs of ``graph``'s aggregated edges."""
    return {(src, dst) for src, row in graph.priced_pairs.items() for dst in row[0::3]}


def aggregated_edge(net, x, y, alpha=1, beta=1.0):
    """The kept (y, layer count, distance) of pair (x, y) under one threshold pair, or None."""
    row = aggregate_graph(net, AggregationParams(alpha, beta)).priced_pairs.get(x, ())
    return next((pair for pair in triples(row) if pair[0] == y), None)


class TestSingleEdgeQueries:
    def test_layer_count_threshold(self):
        net = three_layer_pair(0.8, 0.5, None)
        assert aggregated_edge(net, 0, 1, alpha=2)[1] == 2
        assert aggregated_edge(net, 0, 1, alpha=3) is None
        assert aggregated_edge(net, 1, 0, alpha=1) is None

    def test_distance_threshold_boundary_is_inclusive(self):
        # d = 1 - (0.5 + 0.25)/3 = 0.75 exactly
        net = three_layer_pair(0.5, 0.25, None)
        d = distance(net, 0, 1)
        assert d == 0.75
        kept = aggregated_edge(net, 0, 1, beta=0.75)
        assert kept is not None and kept[2] == 0.75
        assert aggregated_edge(net, 0, 1, beta=0.7499999999) is None

    def test_unconnected_pair_never_aggregates(self):
        # even beta = 1 must not invent edges for pairs with no layer edges
        net = three_layer_pair(0.8, 0.5, None)
        assert aggregated_edge(net, 1, 0, alpha=1, beta=1.0) is None

    def test_combined_needs_both(self):
        net = three_layer_pair(0.9, 0.9, None)  # count 2, d = 1 - 1.8/3 = 0.4
        assert aggregated_edge(net, 0, 1, alpha=2, beta=0.4) is not None
        assert aggregated_edge(net, 0, 1, alpha=3, beta=0.4) is None
        assert aggregated_edge(net, 0, 1, alpha=2, beta=0.39) is None

    def test_edge_weight_is_the_distance(self):
        net = three_layer_pair(0.8, 0.5, None)
        dst, _, dist = aggregated_edge(net, 0, 1)
        assert dist == distance(net, 0, 1)
        assert dst == 1


class TestAggregateGraph:
    def test_small_build(self):
        net = build_net(
            ("a", "b"),
            [
                (0, 1, "a", 0.5), (0, 1, "b", 0.5),  # count 2, d = 0.5
                (1, 2, "a", 0.1),                     # count 1, d = 0.95
            ],
        )
        g = aggregate_graph(net, AggregationParams(1, 1.0))
        assert g.num_edges == 2
        assert [pair[:2] for pair in triples(g.priced_pairs[1])] == [(2, 1)]
        assert g.priced_pairs[0] == (1, 2, 0.5)
        assert 2 not in g.priced_pairs

    def test_rows_are_the_priced_rows_cut_down(self):
        net = build_net(
            ("a", "b"),
            [
                (0, 1, "a", 0.9), (0, 1, "b", 0.9),  # count 2, d = 0.1
                (0, 2, "a", 0.2),                     # count 1, d = 0.9
                (0, 3, "a", 0.8), (0, 3, "b", 0.6),  # count 2, d = 0.3
                (1, 2, "a", 0.4), (1, 2, "b", 0.4),  # count 2, d = 0.6
            ],
        )
        priced = net.priced_pairs
        g = aggregate_graph(net, AggregationParams(2, 1.0))
        # kept pairs stay in priced order and are the very same objects
        assert g.priced_pairs[0] == priced[0][0:3] + priced[0][6:9]
        assert all(a is b for a, b in zip(g.priced_pairs[0], priced[0][0:3] + priced[0][6:9]))
        # a row whose pairs all pass is shared, not copied
        assert g.priced_pairs[1] is priced[1]
        # rows with no kept pair are left out
        assert set(aggregate_graph(net, AggregationParams(1, 0.5)).priced_pairs) == {0}
        with pytest.raises(TypeError):
            g.priced_pairs[0] = ()

    def test_unconnected_pairs_stay_out_at_maximal_beta(self):
        # 4 nodes, one layered edge; beta = 1 must not produce 12 edges
        net = build_net(("a",), [(0, 1, "a", 0.3)], extra_nodes=(2, 3))
        g = aggregate_graph(net, AggregationParams(1, 1.0))
        assert g.num_edges == 1
        assert kept_pairs(g) == {(0, 1)}

    def test_thresholds_filter(self):
        net = build_net(
            ("a", "b", "c"),
            [
                (0, 1, "a", 0.9), (0, 1, "b", 0.9), (0, 1, "c", 0.9),  # d = 0.1
                (1, 2, "a", 0.9),                                       # d = 0.7
                (2, 3, "a", 0.3), (2, 3, "b", 0.3),                     # d = 0.8
            ],
        )
        assert aggregate_graph(net, AggregationParams(1, 1.0)).num_edges == 3
        assert aggregate_graph(net, AggregationParams(2, 1.0)).num_edges == 2
        assert aggregate_graph(net, AggregationParams(3, 1.0)).num_edges == 1
        assert aggregate_graph(net, AggregationParams(1, 0.75)).num_edges == 2
        assert aggregate_graph(net, AggregationParams(2, 0.1)).num_edges == 1

    def test_loosest_value_switches_a_threshold_off(self):
        # alpha = 1 and beta = 1.0 admit every connected pair, so either one
        # leaves the other threshold to act alone
        net = build_net(
            ("a", "b"),
            [(0, 1, "a", 0.1), (1, 2, "a", 0.9), (1, 2, "b", 0.9)],
        )
        layers_only = aggregate_graph(net, AggregationParams(2, 1.0))
        assert kept_pairs(layers_only) == {(1, 2)}
        distance_only = aggregate_graph(net, AggregationParams(1, 0.2))
        assert kept_pairs(distance_only) == {(1, 2)}

    def test_requires_seal(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(UnsealedNetworkError):
            aggregate_graph(net, AggregationParams())

    def test_nodes_pass_through(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=(4,))
        g = aggregate_graph(net, AggregationParams())
        assert g.nodes == net.nodes


@settings(max_examples=60)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), st.sampled_from(PARAM_GRID))
def test_aggregated_edges_satisfy_both_thresholds(net, params):
    g = aggregate_graph(net, params)
    counts = {pair: count for pair, (count, _) in recount_pairs(net).items()}
    seen = set()
    for src, row in g.priced_pairs.items():
        for dst, layer_count, dist in triples(row):
            seen.add((src, dst))
            assert layer_count == counts[src, dst] >= params.alpha
            assert dist == distance(net, src, dst)
            assert dist <= params.beta
    # completeness: every connected pair meeting both thresholds is present
    for x in net.nodes:
        for y in net.nodes:
            if x == y or (x, y) in seen:
                continue
            assert counts.get((x, y), 0) < params.alpha or distance(net, x, y) > params.beta


@settings(max_examples=40)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)))
def test_stricter_thresholds_shrink_the_edge_set(net):
    def edge_pairs(alpha, beta):
        return kept_pairs(aggregate_graph(net, AggregationParams(alpha, beta)))

    for beta in (1.0, 0.5):
        assert edge_pairs(3, beta) <= edge_pairs(2, beta) <= edge_pairs(1, beta)
    for alpha in (1, 2):
        assert (
            edge_pairs(alpha, 0.25)
            <= edge_pairs(alpha, 0.5)
            <= edge_pairs(alpha, 0.75)
            <= edge_pairs(alpha, 1.0)
        )
