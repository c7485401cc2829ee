"""networkx as a third oracle, independent of the package's own searches."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpath import NEGATIVE, POSITIVE, AggregationParams, aggregate_graph, dap_sssp, mda_sssp
from netgen import layered_networks

THRESHOLDS = st.builds(
    AggregationParams, st.integers(1, 3), st.sampled_from([0.25, 0.5, 0.75, 1.0])
)


@settings(max_examples=80, deadline=None)
@given(layered_networks(max_nodes=10, polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
def test_both_strategies_match_networkx_dijkstra(net, params):
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    graph.add_weighted_edges_from(
        (e.src, e.dst, e.distance) for e in aggregate_graph(net, params).edges()
    )
    for source in sorted(net.nodes):
        expected = nx.single_source_dijkstra_path_length(graph, source)
        for search in (dap_sssp, mda_sssp):
            lengths = search(net, source, params).lengths
            assert lengths.keys() == expected.keys()
            for node, length in expected.items():
                assert abs(lengths[node] - length) <= 1e-12
