"""Shared builders and hypothesis strategies for the test suite."""

import random

from hypothesis import strategies as st

from layerpath import MultiLayeredNetwork, POSITIVE


def build_net(layers, edges, polarity=POSITIVE, extra_nodes=(), sealed=True):
    """Construct a network from (src, dst, layer_ref, weight) tuples."""
    net = MultiLayeredNetwork(layers=layers, polarity=polarity)
    for node in extra_nodes:
        net.add_node(node)
    for src, dst, layer, weight in edges:
        net.add_edge(src, dst, layer, weight)
    if sealed:
        net.seal()
    return net


@st.composite
def layered_networks(
    draw,
    min_nodes=2,
    max_nodes=8,
    max_layers=3,
    polarities=(POSITIVE,),
    min_weight=0.0,
):
    """Random sealed networks; every node in 0..n-1 is registered."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    num_layers = draw(st.integers(1, max_layers))
    polarity = draw(st.sampled_from(polarities))
    triples = st.tuples(
        st.integers(0, num_nodes - 1),
        st.integers(0, num_nodes - 1),
        st.integers(0, num_layers - 1),
    ).filter(lambda t: t[0] != t[1])
    weights = st.floats(min_value=min_weight, max_value=1.0, allow_nan=False)
    edge_map = draw(
        st.dictionaries(triples, weights, max_size=num_nodes * (num_nodes - 1) * 2)
    )
    net = MultiLayeredNetwork(polarity=polarity)
    for _ in range(num_layers):
        net.add_layer()
    for node in range(num_nodes):
        net.add_node(node)
    for (src, dst, layer_index), weight in edge_map.items():
        net.add_edge(src, dst, layer_index, weight)
    return net.seal()


def write_load_peak_net(path):
    """Write the load-peak test's edge list to ``path``: 27,000-odd edges.

    4,000 nodes, 4 targets each, every pair on 1, 2 or 3 of 4 layers (p =
    0.5, 0.3, 0.2, as the benchmark's nets), a pair's layers on adjacent rows.
    """
    rng = random.Random(19)
    with open(path, "w", encoding="utf-8") as out:
        out.write("src,dst,layer,weight\n")
        for src in range(4000):
            for step in rng.sample(range(1, 4000), 4):
                dst = (src + step) % 4000
                draw = rng.random()
                for label in rng.sample("abcd", 1 + (draw >= 0.5) + (draw >= 0.8)):
                    out.write(f"{src},{dst},{label},{rng.random()!r}\n")
