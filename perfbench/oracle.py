"""Independent answers for checking the program's outputs.

Distances follow the paper's formula for positive polarity,
``d(x, y) = 1 - (sum of layer weights) / |L|``, with each pair's weights summed
in file order as the program does. Shortest paths come from
``scipy.sparse.csgraph``, which the program itself does not use.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from inputs import LAYERS, Net

REL_TOL = 1e-9


class Oracle:
    def __init__(self, net: Net) -> None:
        self.net = net
        self.count = np.bincount(net.pair, minlength=net.num_pairs)
        # bincount adds in input order starting from 0.0, like the program
        self.wsum = np.bincount(net.pair, weights=net.weight, minlength=net.num_pairs)
        self.dist = 1.0 - self.wsum / len(LAYERS)

    def kept(self, alpha: int, beta: float) -> np.ndarray:
        """Indices of the pairs that survive aggregation."""
        return np.flatnonzero((self.count >= alpha) & (self.dist <= beta))

    def graph(self, alpha: int, beta: float) -> csr_matrix:
        keep = self.kept(alpha, beta)
        n = self.net.nodes
        return csr_matrix(
            (self.dist[keep], (self.net.pair_src[keep], self.net.pair_dst[keep])),
            shape=(n, n),
        )

    def core_nodes(self, alpha: int, beta: float) -> np.ndarray:
        """Nodes of the largest strongly connected component of one cell."""
        _, labels = connected_components(self.graph(alpha, beta), connection="strong")
        return np.flatnonzero(labels == np.bincount(labels).argmax())


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def check_sssp(text: str, oracle: Oracle, sources, alphas, betas) -> list[str]:
    """Mismatches between ``sssp`` stats rows and the oracle.

    Compares every column derived from lengths and reachability; the hop
    count depends on how ties are broken, so it is not compared.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["source", "alpha", "beta", "num_routes"]:
        return ["sssp: unexpected header"]
    body = rows[1:]
    if len(body) != len(sources) * len(alphas) * len(betas):
        return [f"sssp: {len(body)} rows, expected {len(sources) * len(alphas) * len(betas)}"]
    n = oracle.net.nodes
    expected = {}
    for alpha in alphas:
        for beta in betas:
            graph = oracle.graph(alpha, beta)
            lengths = dijkstra(graph, indices=sources)
            degree = np.diff(graph.indptr)
            for i, source in enumerate(sources):
                row = lengths[i]
                reached = np.isfinite(row)
                reached[source] = False
                routes = row[reached]
                if routes.size:
                    figures = (float(routes.mean()), float(routes.min()), float(routes.max()))
                else:
                    figures = (0.0, 0.0, 0.0)
                expected[(source, alpha, beta)] = (
                    int(routes.size), *figures, int(degree[source]), routes.size / (n - 1)
                )
    problems = []
    keys = [(s, a, b) for s in sources for a in alphas for b in betas]
    for key, row in zip(keys, body):
        source, alpha, beta = key
        if (int(row[0]), int(row[1]), float(row[2])) != key:
            problems.append(f"sssp: row {row[:3]} out of order, expected {key}")
            continue
        routes, avg, lo, hi, neighbors, pct = expected[key]
        got = (int(row[3]), float(row[4]), float(row[5]), float(row[6]), int(row[8]), float(row[9]))
        if got[0] != routes or got[4] != neighbors or not all(
            _close(g, w) for g, w in zip(got[1:4] + got[5:], (avg, lo, hi, pct))
        ):
            problems.append(f"sssp: {key} gave {got}, oracle {expected[key]}")
    return problems


def check_apsp(text: str, oracle: Oracle, alpha: int, beta: float) -> list[str]:
    """Mismatches between an ``apsp`` CSV matrix and the oracle."""
    lines = text.splitlines()
    n = oracle.net.nodes
    if lines[0] != "src," + ",".join(map(str, range(n))) or len(lines) != n + 1:
        return ["apsp: unexpected header or row count"]
    got = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    if not np.array_equal(got[:, 0], np.arange(n)):
        return ["apsp: rows out of order"]
    got = got[:, 1:]
    want = dijkstra(oracle.graph(alpha, beta))
    if not np.array_equal(np.isinf(got), np.isinf(want)):
        return ["apsp: reachability differs from the oracle"]
    finite = np.isfinite(want)
    worst = float(np.max(np.abs(got[finite] - want[finite]), initial=0.0))
    if worst > 1e-9:
        return [f"apsp: a finite entry is off by {worst}"]
    return []


def check_export(text: str, oracle: Oracle, alpha: int, beta: float) -> list[str]:
    """Mismatches between ``aggregate-export`` rows and the oracle."""
    lines = text.splitlines()
    if not lines or lines[0] != "src,dst,distance,layer_count":
        return ["export: unexpected header"]
    keep = oracle.kept(alpha, beta)
    net = oracle.net
    order = np.lexsort((net.pair_dst[keep], net.pair_src[keep]))
    keep = keep[order]
    if len(lines) - 1 != keep.size:
        return [f"export: {len(lines) - 1} rows, oracle keeps {keep.size} pairs"]
    got = np.array([line.split(",") for line in lines[1:]], dtype=np.float64).reshape(-1, 4)
    if not (
        np.array_equal(got[:, 0], net.pair_src[keep])
        and np.array_equal(got[:, 1], net.pair_dst[keep])
    ):
        return ["export: pair set or order differs from the oracle"]
    if not np.array_equal(got[:, 3], oracle.count[keep]):
        return ["export: a layer_count differs from the oracle"]
    worst = float(np.max(np.abs(got[:, 2] - oracle.dist[keep]), initial=0.0))
    if worst > 1e-12:
        return [f"export: a distance is off by {worst}"]
    return []
