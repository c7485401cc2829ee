"""Reference implementations used only as test oracles.

Deliberately plain and kept apart from the package code so that agreement
between the two sides is evidence rather than tautology. Nothing here imports
``layerpath``: networks are read only through ``edges()``, ``num_nodes``,
``num_layers`` and ``polarity``, and thresholds only through
``alpha`` and ``beta``, so pricing is rebuilt here from the raw edges with
its own copy of the distance formula and its own threshold test.
"""

import heapq
from math import inf
from typing import NamedTuple

import numpy as np

DEFAULT_BRUTE_FORCE_NODE_CAP = 10


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


def triples(row):
    """The (dst, layer count, distance) triples of a flat priced row, in order."""
    it = iter(row)
    return zip(it, it, it)


def oracle_priced_pairs(net):
    """{src: [dst, layer count, distance, dst, ...]} priced from raw edges, in edge order.

    Each pair's weights are added with float ``+`` in the order ``edges()``
    yields them, then put through the paper's formula: ``1 - sum / |L|`` under
    positive polarity, ``sum / |L|`` under negative.
    """
    num_layers = net.num_layers
    positive = net.polarity == "positive"
    rows = {}
    for (src, dst), (count, wsum) in recount_pairs(net).items():
        dist = 1.0 - wsum / num_layers if positive else wsum / num_layers
        rows.setdefault(src, []).extend((dst, count, dist))
    return rows


def keep_max_edge_order(rows):
    """(src, dst, layer, weight) per distinct triple of ``rows``, as a sealed network lists them.

    Sources come in order of first appearance, then each source's pairs, then
    each pair's layers, each by first appearance. A repeated triple keeps
    its first position and the largest of its weights (the first of equal ones).
    """
    first = {}
    best = {}
    for at, (src, dst, layer, weight) in enumerate(rows):
        for key in ((src,), (src, dst), (src, dst, layer)):
            first.setdefault(key, at)
        triple = (src, dst, layer)
        best[triple] = max(best.get(triple, weight), weight)
    ordered = sorted(best, key=lambda t: (first[t[:1]], first[t[:2]], first[t]))
    return [(*triple, best[triple]) for triple in ordered]


def oracle_edges(net, params):
    """(src, dst, distance) of every priced pair with >= alpha layers and distance <= beta."""
    return [
        (src, dst, dist)
        for src, row in oracle_priced_pairs(net).items()
        for dst, count, dist in triples(row)
        if count >= params.alpha and dist <= params.beta
    ]


class OracleResult(NamedTuple):
    """Lengths and parent-first predecessors of the reached nodes."""

    lengths: dict
    predecessors: dict

    def path_to(self, target):
        if target not in self.lengths:
            return []
        path = [target]
        while self.predecessors[path[-1]] is not None:
            path.append(self.predecessors[path[-1]])
        return path[::-1]


def brute_force_sp(net, source, params, *, max_nodes=DEFAULT_BRUTE_FORCE_NODE_CAP):
    """Exhaustive enumeration of simple paths over ``oracle_edges``, no pruning.

    Runtime is exponential in the node count, hence the hard cap. Kept free
    of any Dijkstra-style shortcut so it can stand as an independent check.
    """
    if net.num_nodes > max_nodes:
        raise ValueError(f"{net.num_nodes} nodes exceed the brute-force cap of {max_nodes}")
    adj = {}
    for src, dst, dist in oracle_edges(net, params):
        adj.setdefault(src, []).append((dst, dist))

    lengths = {source: 0.0}
    parent = {source: None}
    on_path = {source}

    def explore(v, acc):
        for w, d in adj.get(v, ()):
            if w in on_path:
                continue
            cand = acc + d
            if cand < lengths.get(w, inf):
                lengths[w] = cand
                parent[w] = v
            on_path.add(w)
            explore(w, cand)
            on_path.discard(w)

    explore(source, 0.0)
    # list the final tree from the source down, so every node comes after
    # its predecessor; the order of improvements above does not ensure that
    children = {}
    for w, v in parent.items():
        children.setdefault(v, []).append(w)
    order = [source]
    for v in order:  # grows while it is walked
        order += children.get(v, ())
    return OracleResult(lengths, {v: parent[v] for v in order})


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
