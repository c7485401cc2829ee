"""networkx as a third oracle, independent of the package's searches and pricing.

The graph handed to networkx is priced and thresholded by ``oracles``, from
the raw edges, so a fault in sealing or in the threshold rule shows here.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpath import NEGATIVE, POSITIVE, AggregationParams, dap_sssp, mda_sssp
from netgen import layered_networks
from oracles import oracle_edges

THRESHOLDS = st.builds(
    AggregationParams, st.integers(1, 3), st.sampled_from([0.25, 0.5, 0.75, 1.0])
)


@settings(max_examples=80, deadline=None)
@given(layered_networks(max_nodes=10, polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
def test_both_strategies_match_networkx_dijkstra(net, params):
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    graph.add_weighted_edges_from(oracle_edges(net, params))
    for source in sorted(net.nodes):
        expected = nx.single_source_dijkstra_path_length(graph, source)
        for search in (dap_sssp, mda_sssp):
            lengths = search(net, source, params).lengths
            assert lengths.keys() == expected.keys()
            for node, length in expected.items():
                assert abs(lengths[node] - length) <= 1e-12
