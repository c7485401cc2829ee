"""Path statistics rows and threshold sweep grids."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpath import (
    NEGATIVE,
    POSITIVE,
    AggregationParams,
    MultiLayeredNetwork,
    ParameterError,
    PathStats,
    STATS_COLUMNS,
    aggregate_graph,
    aggregated_sssp,
    dap_sssp,
    edge_count_sweep,
    mda_sssp,
    path_stats,
)
from netgen import build_net, layered_networks


def chain_net():
    """0 -> 1 -> 2 on one layer, both hops at distance 0.5."""
    return build_net(("a",), [(0, 1, "a", 0.5), (1, 2, "a", 0.5)])


class TestPathStats:
    def test_hand_worked_chain(self):
        net = chain_net()
        stats = path_stats(dap_sssp(net, 0))
        assert stats.source == 0
        assert stats.num_routes == 2
        assert stats.avg_len == (0.5 + 1.0) / 2
        assert stats.min_len == 0.5
        assert stats.max_len == 1.0
        assert stats.avg_handshakes == 1.5  # one direct hop, one two-hop
        assert stats.num_neighbors == 1
        assert stats.pct_connected == 1.0

    def test_middle_and_terminal_sources(self):
        net = chain_net()
        mid = path_stats(dap_sssp(net, 1))
        assert mid.num_routes == 1
        assert mid.pct_connected == 0.5
        end = path_stats(dap_sssp(net, 2))
        assert end == PathStats(
            source=2, alpha=1, beta=1.0, num_routes=0, avg_len=0.0,
            min_len=0.0, max_len=0.0, avg_handshakes=0.0, num_neighbors=0,
            pct_connected=0.0,
        )

    def test_alpha_above_layer_count_zeroes_the_row(self):
        net = chain_net()
        params = AggregationParams(2, 1.0)
        stats = path_stats(dap_sssp(net, 0, params))
        assert stats.num_routes == 0
        assert stats.num_neighbors == 0
        assert stats.pct_connected == 0.0

    def test_single_node_network_reports_zero_connectivity(self):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_node(0)
        net.seal()
        stats = path_stats(dap_sssp(net, 0))
        assert stats.pct_connected == 0.0
        assert stats.num_routes == 0

    def test_neighbors_respect_both_thresholds(self):
        net = build_net(
            ("a", "b"),
            [
                (0, 1, "a", 0.9), (0, 1, "b", 0.9),   # count 2, d = 0.1
                (0, 2, "a", 0.9),                      # count 1, d = 0.55
                (0, 3, "a", 0.1),                      # count 1, d = 0.95
            ],
        )
        # mda results carry the network's unfiltered rows, so only the
        # thresholds keep the count right there
        for search in (dap_sssp, mda_sssp):
            stats = path_stats(search(net, 0, AggregationParams(1, 0.6)))
            assert stats.num_neighbors == 2  # node 3 is beyond beta
            stats = path_stats(search(net, 0, AggregationParams(2, 1.0)))
            assert stats.num_neighbors == 1

    def test_neighbors_count_pairs_not_row_items(self):
        # a flat row holds three items a pair; the benchmark's sssp check
        # reads num_neighbors as the source's aggregated out-degree
        net = build_net(("a",), [(0, 1, "a", 0.5), (0, 2, "a", 0.5), (0, 3, "a", 0.5)])
        assert len(net.priced_pairs[0]) == 9
        for search in (dap_sssp, mda_sssp):
            assert path_stats(search(net, 0)).num_neighbors == 3
            assert path_stats(search(net, 0, AggregationParams(1, 0.25))).num_neighbors == 0

    def test_avg_len_adds_in_discovery_order(self):
        # sum() on Python >= 3.12 compensates and would give 0.3333333333333334
        tiny = 2.0 ** -53
        net = build_net(
            ("a",), [(0, 1, "a", 1.0), (0, 2, "a", tiny), (0, 3, "a", tiny)],
            polarity=NEGATIVE,
        )
        result = mda_sssp(net, 0)
        assert list(result.lengths.items()) == [(0, 0.0), (1, 1.0), (2, tiny), (3, tiny)]
        assert path_stats(result).avg_len == 1 / 3

    def test_row_column_order(self):
        net = chain_net()
        stats = path_stats(dap_sssp(net, 0))
        row = tuple(stats)
        assert len(row) == len(STATS_COLUMNS)
        assert row[STATS_COLUMNS.index("num_routes")] == stats.num_routes
        assert row[0] == stats.source
        assert STATS_COLUMNS == PathStats._fields
        assert row == tuple(getattr(stats, name) for name in STATS_COLUMNS)


class TestSweep:
    def test_counts_match_individual_aggregations(self):
        net = build_net(
            ("a", "b", "c"),
            [
                (0, 1, "a", 0.9), (0, 1, "b", 0.9), (0, 1, "c", 0.9),
                (1, 2, "a", 0.9), (1, 2, "b", 0.2),
                (2, 3, "a", 0.4),
                (3, 0, "b", 1.0),
            ],
        )
        alphas = [1, 2, 3]
        betas = [1.0, 0.7, 0.4]
        report = edge_count_sweep(net, alphas, betas)
        assert report.alphas == (1, 2, 3)
        assert report.betas == (1.0, 0.7, 0.4)
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(betas):
                expected = aggregate_graph(net, AggregationParams(alpha, beta)).num_edges
                assert report.counts[i][j] == expected
                assert report.count(alpha, beta) == expected

    def test_grid_order_is_preserved_not_sorted(self):
        net = chain_net()
        report = edge_count_sweep(net, [3, 1], [0.25, 1.0])
        assert report.alphas == (3, 1)
        assert report.betas == (0.25, 1.0)

    def test_off_grid_lookup_is_rejected(self):
        report = edge_count_sweep(chain_net(), [1], [1.0])
        with pytest.raises(ParameterError):
            report.count(2, 1.0)

    def test_empty_grids_are_rejected(self):
        net = chain_net()
        with pytest.raises(ParameterError):
            edge_count_sweep(net, [], [1.0])
        with pytest.raises(ParameterError):
            edge_count_sweep(net, [1], [])


@settings(max_examples=50, deadline=None)
@given(layered_networks(), st.integers(1, 3), st.sampled_from((0.25, 0.5, 1.0)))
def test_stats_figures_are_internally_consistent(net, alpha, beta):
    params = AggregationParams(alpha, beta)
    for source in sorted(net.nodes):
        result = dap_sssp(net, source, params)
        stats = path_stats(result)
        assert stats.num_routes == len(result.lengths) - 1
        assert (stats.alpha, stats.beta) == (alpha, beta)
        assert 0.0 <= stats.pct_connected <= 1.0
        if stats.num_routes:
            assert stats.min_len <= stats.avg_len <= stats.max_len
            assert stats.avg_handshakes >= 1.0
            assert stats.num_neighbors >= 1
            hops = [len(result.path_to(v)) - 1 for v in result.lengths if v != source]
            assert stats.avg_handshakes == sum(hops) / len(hops)
        else:
            assert stats.avg_len == stats.min_len == stats.max_len == 0.0
            assert stats.avg_handshakes == 0.0 and stats.num_neighbors == 0


@settings(max_examples=50, deadline=None)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), st.integers(1, 3), st.data())
def test_path_stats_agree_on_one_aggregation_and_both_strategies(net, alpha, data):
    # searches of one shared aggregation give one neighbour count per source;
    # rows from fresh dap and mda searches must match it. A beta equal to a
    # priced distance puts pairs right on the threshold.
    distances = {dist for row in net.priced_pairs.values() for dist in row[2::3]}
    beta = data.draw(st.sampled_from(sorted(distances | {1.0})))
    params = AggregationParams(alpha, beta)
    graph = aggregate_graph(net, params)
    for source in sorted(net.nodes):
        row = path_stats(aggregated_sssp(graph, source))
        assert row == path_stats(dap_sssp(net, source, params))
        assert row == path_stats(mda_sssp(net, source, params))


@settings(max_examples=40, deadline=None)
@given(layered_networks(max_layers=3))
def test_sweep_counts_are_antitone_in_alpha_monotone_in_beta(net):
    report = edge_count_sweep(net, [1, 2, 3], [0.25, 0.5, 0.75, 1.0])
    for j in range(4):
        assert report.counts[0][j] >= report.counts[1][j] >= report.counts[2][j]
    for i in range(3):
        row = report.counts[i]
        assert row[0] <= row[1] <= row[2] <= row[3]
