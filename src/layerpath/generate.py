"""Random multi-layer network generation for experiments and tests."""

from __future__ import annotations

import random

from .core import MultiLayeredNetwork, POSITIVE, coerce_int, coerce_unit


def random_network(
    num_nodes: int,
    num_layers: int,
    density: float,
    *,
    seed=None,
    polarity: str = POSITIVE,
) -> MultiLayeredNetwork:
    """Build a sealed random network with the given per-layer edge density.

    Every layer independently receives exactly
    ``round(density * num_nodes * (num_nodes - 1))`` directed edges, sampled
    uniformly without replacement from the ordered node pairs, each with a
    uniform weight in [0, 1). Layers are labeled ``l1`` .. ``lk`` and all of
    ``0 .. num_nodes - 1`` are registered even when isolated. The same seed
    reproduces the same network.
    """
    num_nodes = coerce_int(num_nodes, "num_nodes", minimum=1)
    num_layers = coerce_int(num_layers, "num_layers", minimum=1)
    density = coerce_unit(density, "density")

    rng = random.Random(seed)
    net = MultiLayeredNetwork(polarity=polarity)
    labels = [net.add_layer().label for _ in range(num_layers)]
    for node in range(num_nodes):
        net.add_node(node)
    net.add_edges(_random_rows(rng, num_nodes, labels, density))
    return net.seal()


def _random_rows(rng: random.Random, num_nodes: int, labels: list[str], density: float):
    """``(src, dst, label, weight)`` rows, layer by layer, pairs in ascending order."""
    # Pairs are indexed 0 .. n(n-1)-1 and decoded on demand, so dense node
    # counts never materialize the full pair list.
    num_pairs = num_nodes * (num_nodes - 1)
    edges_per_layer = round(density * num_pairs)
    for label in labels:
        for pair in sorted(rng.sample(range(num_pairs), edges_per_layer)):
            src, rem = divmod(pair, num_nodes - 1)
            yield src, (rem if rem < src else rem + 1), label, rng.random()
