"""Reference implementations used only as test oracles.

Deliberately plain and kept apart from the package code so that agreement
between the two sides is evidence rather than tautology.
"""

import heapq
from math import inf

import numpy as np


def textbook_dijkstra(weighted_edges, source):
    """Single-source Dijkstra over (src, dst, distance) triples.

    Returns {node: length} for reached nodes only. Frontier ties settle the
    smaller node id first, matching the convention under test.
    """
    adj = {}
    for src, dst, dist in weighted_edges:
        adj.setdefault(src, []).append((dst, dist))
    dist_to = {source: 0.0}
    done = set()
    frontier = [(0.0, source)]
    while frontier:
        d, v = heapq.heappop(frontier)
        if v in done:
            continue
        done.add(v)
        for w, step in adj.get(v, ()):
            nd = d + step
            if nd < dist_to.get(w, inf):
                dist_to[w] = nd
                heapq.heappush(frontier, (nd, w))
    return dist_to


def single_layer_distances(net):
    """(src, dst, 1 - w) triples from a one-layer positive network."""
    assert net.num_layers == 1
    return [(e.src, e.dst, 1.0 - e.weight) for e in net.edges()]


def recount_pairs(net):
    """{(src, dst): (layer count, weight sum)} rebuilt from raw edges."""
    seen = {}
    for e in net.edges():
        count, wsum = seen.get((e.src, e.dst), (0, 0.0))
        seen[(e.src, e.dst)] = (count + 1, wsum + e.weight)
    return seen


def naive_neighborhood(net, x, alpha):
    """Out-neighbors of x connected on at least alpha layers, recounted."""
    return {
        dst for (src, dst), (count, _) in recount_pairs(net).items()
        if src == x and count >= alpha
    }


def textbook_floyd_warshall(initial):
    """All-pairs lengths from an n x n start matrix (0 diagonal, inf for no edge).

    The whole-matrix k-loop: step k relaxes every entry through node k at
    once, reading column k and row k as they stand before the step.
    """
    values = np.array(initial, dtype=np.float64)
    for k in range(len(values)):
        np.minimum(values, values[:, k, None] + values[None, k, :], out=values)
    return values
