"""Seeded multi-layer "social" networks for the benchmark.

The benchmark owns this generator instead of calling ``random_network`` or
``layerpath generate``, for two reasons. Those draw each layer
independently, so almost every layered edge lands on its own pair and every
alpha >= 2 cell comes out empty. And a change to the program's generator
would silently change the workload.

Shape: every node points to the same number of distinct other nodes, so the
search work varies little from one seed to the next. Each ordered pair spans
1, 2 or 3 of the three layers with probability 0.5 / 0.3 / 0.2, and each
layered edge has a weight drawn uniformly from [0, 1). Rows are written in a
shuffled order, so a pair's layers are scattered through the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LAYERS = ("work", "family", "friends")
LAYER_COUNT_P = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class NetSpec:
    """Size of one generated network: ``nodes`` x ``out_degree`` pairs."""

    name: str
    nodes: int
    out_degree: int


@dataclass
class Net:
    """A generated network, row by row in file order.

    ``src``, ``dst``, ``layer`` and ``weight`` are the CSV rows; ``pair`` maps
    each row to its ordered pair, indexed like ``pair_src``/``pair_dst``.
    """

    src: np.ndarray
    dst: np.ndarray
    layer: np.ndarray
    weight: np.ndarray
    pair: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    nodes: int

    @property
    def num_pairs(self) -> int:
        return len(self.pair_src)

    def shape(self) -> dict:
        """Input shape recorded beside the results."""
        per_pair = np.bincount(self.pair, minlength=self.num_pairs)
        hist = np.bincount(per_pair, minlength=len(LAYERS) + 1)[1:]
        return {
            "nodes": self.nodes,
            "pairs": self.num_pairs,
            "layered_edges": len(self.src),
            "layers_per_pair": {str(k + 1): int(c) for k, c in enumerate(hist)},
        }


def generate(spec: NetSpec, seed: int) -> Net:
    """The network ``spec`` describes, fixed entirely by ``seed``."""
    rng = np.random.default_rng([seed, spec.nodes, spec.out_degree])
    n, deg = spec.nodes, spec.out_degree
    # offsets in 1..n-1 never point a node at itself; redraw rows with repeats
    offsets = rng.integers(1, n, size=(n, deg))
    while True:
        ordered = np.sort(offsets, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size == 0:
            break
        offsets[bad] = rng.integers(1, n, size=(bad.size, deg))
    pair_src = np.repeat(np.arange(n), deg)
    pair_dst = (pair_src + offsets.ravel()) % n

    spans = rng.choice(np.arange(1, len(LAYERS) + 1), size=n * deg, p=LAYER_COUNT_P)
    # the first k entries of a random permutation of the layers
    layer_order = np.argsort(rng.random((n * deg, len(LAYERS))), axis=1)
    keep = np.arange(len(LAYERS))[None, :] < spans[:, None]
    pair = np.nonzero(keep)[0]
    layer = layer_order[keep]
    weight = rng.random(len(pair))

    order = rng.permutation(len(pair))
    pair, layer, weight = pair[order], layer[order], weight[order]
    return Net(
        src=pair_src[pair],
        dst=pair_dst[pair],
        layer=layer,
        weight=weight,
        pair=pair,
        pair_src=pair_src,
        pair_dst=pair_dst,
        nodes=n,
    )


def write_csv(net: Net, path) -> None:
    """Write the edge list in the program's CSV format, floats as ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write("src,dst,layer,weight\n")
        out.writelines(
            f"{s},{d},{LAYERS[l]},{w!r}\n"
            for s, d, l, w in zip(
                net.src.tolist(), net.dst.tolist(), net.layer.tolist(), net.weight.tolist()
            )
        )


def pick_sources(candidates: np.ndarray, count: int, seed: int) -> list[int]:
    """``count`` distinct nodes out of ``candidates``, fixed by ``seed``."""
    rng = np.random.default_rng([seed, len(candidates), count])
    return sorted(rng.choice(candidates, size=count, replace=False).tolist())
