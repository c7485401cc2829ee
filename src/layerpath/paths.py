"""Shortest multi-layered paths.

A multi-layered path hops along aggregated edges; its length is the sum of
their distances. Two strategies compute single-source shortest paths and must
agree on lengths and reachability for every input:

* ``dap_sssp`` aggregates the whole network first, then runs a binary-heap
  Dijkstra over the resulting simple digraph (preprocessing approach).
* ``mda_sssp`` never materializes the aggregated graph: during the search it
  scans the priced pairs of each settled node and applies the layer-count
  and distance thresholds edge by edge.

Both run one search loop over flat rows of the same shape,
``src -> (dst, layer count, distance, dst, ...)``, with the threshold test
inline: mda on the network's priced rows, dap on the aggregated graph's
rows, which are those priced rows cut down to the pairs that pass. So they
agree bit for bit by construction.

``ml_floyd_warshall`` produces the all-pairs matrix over the same aggregated
edge relation.

All distances are non-negative, so Dijkstra is exact; unreachable nodes are
reported as absent from the result map rather than as a sentinel number.
Ties between frontier nodes with equal tentative length settle the lowest
node id first, which makes runs reproducible. Each heap entry carries the
predecessor it was pushed from, and a node's predecessor is recorded when it
settles, so a result's ``predecessors`` list every node after its own
predecessor.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .aggregate import AggregatedGraph, AggregationParams, aggregate_graph
from .core import MultiLayeredNetwork, coerce_int
from .errors import SizeGuardExceededError, UnknownNodeError

if TYPE_CHECKING:  # numpy is imported only where the all-pairs routines run
    import numpy as np

DEFAULT_APSP_NODE_CAP = 2_000
# One Floyd-Warshall block of float64 rows, and as much again for its
# temporary: small enough that both stay in a core's L2 cache across steps.
# On a 2-CPU x86 VM (2 MB L2 per core), kernel medians in one process and in
# two: 512 KB took 276 and 169 ms at 800 nodes and 4.10 and 2.31 s at 2,000
# (256 KB: 277 and 181 ms, 4.71 and 2.55 s); 1 MB was 31-61% slower and
# 64 KB 74-94% slower at both sizes; at 300 nodes 512 KB took 22 ms in one
# process, 256 KB 24 ms and 64 KB 36 ms. The larger temporary costs each
# process 256 KB: apsp's peak RSS at 800 nodes read 39.89 MB against 39.63.
_FW_BLOCK_BYTES = 512 * 1024
# Below this many nodes Floyd-Warshall runs in process. Forking a worker and
# reaping it takes about 2 ms, but a few blocks split unevenly between two
# processes and leave the later ones waiting on the first pass, and on a
# shared machine the second CPU is not always free. On a 2-CPU x86 VM, kernel
# medians in 9 alternating rounds a set, two processes against one: 300-450
# nodes (2-4 blocks) slower in 24 of 25 sets, faster in 31 of 225 rounds;
# 500 nodes (4 blocks) faster in 53 of 126 rounds and 6 of 14 sets, 4% less
# time summed over the sets (51-113 ms against 68-105 ms); 650 nodes faster
# in 54/99 rounds, 13% less; 800 nodes in 69/72 rounds, 42% less
# (175-225 ms against 290-370 ms).
_FW_FORK_MIN_NODES = 500


class ShortestPathResult(NamedTuple):
    """Single-source shortest path lengths and predecessor tree.

    ``lengths`` maps every reachable node (the source included, at 0.0) to its
    shortest path length, in the order the nodes were first reached; nodes
    absent from the map are unreachable. ``predecessors`` maps each reachable
    node to the node before it on a shortest path, with the source mapped to
    None, and lists every node after its own predecessor (the source first),
    so one forward pass can fold anything along the tree. ``params`` are the
    thresholds the search ran under and ``rows`` the flat priced rows it
    read, ``src -> (dst, layer count, distance, dst, ...)``: the network's
    own for mda, the aggregated graph's kept ones for dap.
    """

    source: int
    lengths: dict[int, float]
    predecessors: dict[int, int | None]
    nodes: frozenset[int]
    params: AggregationParams
    rows: Mapping[int, tuple]

    def length(self, v: int) -> float:
        """Shortest path length to ``v``; ``inf`` if unreachable."""
        if v in self.lengths:
            return self.lengths[v]
        if v not in self.nodes:
            raise UnknownNodeError(f"unknown node {v!r}")
        return inf

    def path_to(self, target: int) -> list[int]:
        """Node sequence from source to target, empty if unreachable."""
        if target not in self.nodes:
            raise UnknownNodeError(f"unknown node {target!r}")
        if target not in self.lengths:
            return []
        path = [target]
        seen = 0
        v = self.predecessors[target]
        while v is not None:
            path.append(v)
            v = self.predecessors[v]
            seen += 1
            if seen > len(self.nodes):
                raise RuntimeError("predecessor chain does not terminate")
        path.reverse()
        return path


class DistanceMatrix:
    """All-pairs shortest lengths; rows and columns follow ``order``."""

    def __init__(self, order: list[int], values: np.ndarray, params: AggregationParams) -> None:
        self.order = order
        self.values = values
        self.params = params
        self._index = {v: i for i, v in enumerate(order)}

    def entry(self, x: int, y: int) -> float:
        try:
            return float(self.values[self._index[x], self._index[y]])
        except KeyError:
            raise UnknownNodeError(f"unknown node in pair ({x!r}, {y!r})") from None


def _dijkstra(rows: Mapping[int, tuple], source: int, params: AggregationParams):
    """Heap Dijkstra over flat priced rows ``src -> (dst, layer count, distance, dst, ...)``.

    Pairs below ``params.alpha`` layers or above ``params.beta`` are skipped as
    they are scanned. Lazy-deletion variant: a node may sit in the heap several
    times, each entry ``(length, node, predecessor)``; the first one popped
    settles the node and records its predecessor, so ``preds`` is the settled
    set, in settle order. Only finite tentative lengths ever enter the heap,
    so draining it is equivalent to stopping as soon as the extracted minimum
    would be infinite.
    """
    alpha = params.alpha
    beta = params.beta
    # bound once per search, not looked up per node or pair
    push = heapq.heappush
    pop = heapq.heappop
    row_of = rows.get
    lengths = {source: 0.0}
    length_of = lengths.get
    preds: dict[int, int | None] = {}
    heap = [(0.0, source, None)]
    while heap:
        dist, v, pred = pop(heap)
        if v in preds:
            continue
        preds[v] = pred
        it = iter(row_of(v, ()))
        for w, count, d in zip(it, it, it):
            # params.kept's test, inline: a call per scanned pair costs too much
            if count < alpha or d > beta:
                continue
            cand = dist + d
            cur = length_of(w)
            if cur is None or cand < cur:
                lengths[w] = cand
                push(heap, (cand, w, v))
    return lengths, preds


def _require_source(net: MultiLayeredNetwork, source: int) -> None:
    """Raise unless ``net`` is sealed and holds ``source``."""
    if not net.has_node(source):
        raise UnknownNodeError(f"unknown source node {source!r}")


def _all_pairs_frame(net: MultiLayeredNetwork, max_nodes: int):
    """(node order, node -> index) for an APSP run within ``max_nodes``."""
    max_nodes = coerce_int(max_nodes, "max_nodes")
    n = net.num_nodes
    if n > max_nodes:
        raise SizeGuardExceededError(
            f"{n} nodes exceed the all-pairs cap of {max_nodes}; "
            "raise max_nodes to override"
        )
    order = sorted(net.nodes)
    return order, {v: i for i, v in enumerate(order)}


def aggregated_sssp(graph: AggregatedGraph, source: int) -> ShortestPathResult:
    """Dijkstra over an already aggregated graph (the search half of DAP).

    Every pair already passes the graph's thresholds, so the loop's test skips none.
    """
    if source not in graph.nodes:
        raise UnknownNodeError(f"unknown source node {source!r}")
    rows = graph.priced_pairs
    lengths, preds = _dijkstra(rows, source, graph.params)
    return ShortestPathResult(source, lengths, preds, graph.nodes, graph.params, rows)


def dap_sssp(
    net: MultiLayeredNetwork,
    source: int,
    params: AggregationParams = AggregationParams(),
) -> ShortestPathResult:
    """Preprocessing strategy: aggregate every qualifying pair, then search.

    Aggregation cost is paid once per call; when running many sources against
    the same thresholds, call ``aggregate_graph`` once and reuse it with
    ``aggregated_sssp``.
    """
    _require_source(net, source)
    return aggregated_sssp(aggregate_graph(net, params), source)


def mda_sssp(
    net: MultiLayeredNetwork,
    source: int,
    params: AggregationParams = AggregationParams(),
) -> ShortestPathResult:
    """On-the-fly strategy: threshold the priced pairs during the search.

    Runs the same search loop as ``aggregated_sssp``, on the network's own
    priced rows: each settled node's pairs are tested against both
    thresholds as they are scanned, the test ``aggregate_graph`` applies, so
    the searched edge relation is exactly the one it would materialize. No
    aggregated graph is built.
    """
    _require_source(net, source)
    rows = net.priced_pairs
    lengths, preds = _dijkstra(rows, source, params)
    return ShortestPathResult(source, lengths, preds, net.nodes, params, rows)


def ml_floyd_warshall(
    net: MultiLayeredNetwork,
    params: AggregationParams = AggregationParams(),
    *,
    max_nodes: int = DEFAULT_APSP_NODE_CAP,
) -> DistanceMatrix:
    """All-pairs shortest lengths over the aggregated edge relation.

    O(|V|^3) Floyd-Warshall on a dense matrix, guarded by ``max_nodes``
    because the cube grows quickly. Rows and columns are ordered by
    ascending node id.

    The relaxation runs a block of rows at a time, so the block and its
    temporary stay in cache across many steps instead of streaming the whole
    matrix through every step. In a first pass each block applies the steps
    ``k`` up to its own last row; in a second pass it applies the rest. Step
    ``k`` reads row ``k`` as it stands at step ``k`` (the step leaves its own
    row alone, since the diagonal is 0.0), and later steps change that row,
    so it is copied aside when it is reached. Every entry therefore sees the
    textbook sequence ``d = min(d, d[i, k] + d[k, j])`` for k = 0..n-1, in
    order, with the same operands, and the matrix is bit for bit the one the
    whole-matrix loop gives.

    The blocks are dealt round-robin to one process per available CPU,
    forked from this one once the matrix is filled; the matrix and the rows
    copied aside sit in shared memory, and process ``rank`` tells process
    ``rank + 1`` (mod the count) through pipe ``rank`` which blocks are
    through their first pass (see ``_fw_relax``). Below
    ``_FW_FORK_MIN_NODES`` nodes, or where ``workers.available_cpus`` is 1,
    every block runs in this process. A worker that dies raises
    ``RuntimeError``.
    """
    import mmap

    import numpy as np

    from .workers import available_cpus, forked

    order, index = _all_pairs_frame(net, max_nodes)
    n = len(order)
    height = _fw_block_height(n)
    bounds = [(start, min(start + height, n)) for start in range(0, n, height)]
    # the matrix, and row k as it stood at step k, in anonymous maps, which
    # forked workers share; mmap refuses length 0
    values, snap = (
        np.frombuffer(mmap.mmap(-1, max(8 * n * n, 8)), np.float64, n * n).reshape(n, n)
        for _ in range(2)
    )
    values.fill(np.inf)
    np.fill_diagonal(values, 0.0)
    for src, row in aggregate_graph(net, params).priced_pairs.items():
        values[index[src], [index[dst] for dst in row[0::3]]] = row[2::3]
    workers = 1
    if n >= _FW_FORK_MIN_NODES:
        workers = min(available_cpus(), len(bounds))
    ring = [(rank, (rank + 1) % workers) for rank in range(workers)] if workers > 1 else []

    def relax(rank, pipes):
        _fw_relax(values, snap, bounds, rank, pipes)

    with forked(workers, ring, relax) as pipes:
        try:
            relax(0, pipes)
        except (RuntimeError, BrokenPipeError):  # not stdout's: a worker's end of the ring
            raise RuntimeError("a Floyd-Warshall worker died") from None
    return DistanceMatrix(order, values, params)


def _fw_block_height(n: int) -> int:
    """Rows per Floyd-Warshall block: as many as fit ``_FW_BLOCK_BYTES``, at least one."""
    return max(1, _FW_BLOCK_BYTES // (8 * max(n, 1)))


def _fw_relax(values, snap, bounds, rank: int, pipes) -> None:
    """Both passes over blocks ``rank``, ``rank + workers``, ... of ``values``.

    This process alone writes those blocks and their rows of ``snap``. Before
    a block applies the steps of another block ``c`` (lower ones in the first
    pass, higher ones in the second), it waits until ``c`` is through its
    first pass, which copied ``c``'s rows into ``snap``. A first pass waits
    for every lower block, so once a block is through, every lower one is,
    and a process need only know the highest block through so far. It hears
    of blocks from the process before it in the ring, on ``inbox``, as
    4-byte indices, and passes each on, on ``outbox``, unless the next
    process owns it; it tells the next process of its own blocks too. In the
    first pass no block waits on a higher one, so the lowest unfinished block
    can always run, and the second pass waits on first passes only. With one
    process there is no pipe and nothing to wait for. ``pipes`` is the ring,
    one pipe per process: ``rank`` reads pipe ``rank - 1`` and writes pipe
    ``rank``.
    """
    import numpy as np

    from .workers import recv, send

    workers = len(pipes) or 1
    inbox, outbox = (pipes[rank - 1][0], pipes[rank][1]) if pipes else (None, None)
    blocks = len(bounds)
    successor = (rank + 1) % workers
    through = -1  # every block up to this one is through its first pass

    def wait(c: int) -> None:
        nonlocal through
        while through < c:
            notice = recv(inbox)
            through = int.from_bytes(notice, "little")
            if through % workers != successor:
                send(outbox, notice)

    n = values.shape[1]
    tmp = np.empty((_fw_block_height(n), n))
    # With a ufunc buffer of two rows or more (numpy's default is 8,192
    # items), numpy 2.4 runs the step's column-by-row add through buffered
    # iteration, copying the column into a buffer several rows at a time:
    # 33.6 us for a 40 x 800 block on a 2-CPU x86 VM. With a buffer below two
    # rows it runs one unbuffered inner loop per row, in 10.6 us; the minimum
    # takes 8.5 us either way. 16 items, the smallest size numpy 1.x takes, is
    # below two rows from 8 nodes on. The same ufuncs on the same operands
    # give the same sums. The caller's size is back when this returns or
    # raises.
    bufsize = np.setbufsize(16)
    try:
        for first_pass in (True, False):
            for b in range(rank, blocks, workers):
                start, stop = bounds[b]
                block = values[start:stop]
                cand = tmp[: stop - start]
                for c in range(b + 1) if first_pass else range(b + 1, blocks):
                    if c != b:
                        wait(c)
                    for k in range(*bounds[c]):
                        if c == b:  # row k is in this block
                            snap[k] = block[k - start]
                        np.add(block[:, k, None], snap[k], out=cand)
                        np.minimum(block, cand, out=block)
                if first_pass:
                    through = b
                    if outbox is not None:
                        send(outbox, b.to_bytes(4, "little"))
    finally:
        np.setbufsize(bufsize)


def apsp_repeated_dijkstra(
    net: MultiLayeredNetwork,
    params: AggregationParams = AggregationParams(),
    *,
    max_nodes: int = DEFAULT_APSP_NODE_CAP,
) -> DistanceMatrix:
    """All-pairs matrix by running Dijkstra once per source.

    Aggregates once, then searches from each source in ascending order. Must
    agree with ``ml_floyd_warshall`` on every entry.
    """
    import numpy as np

    order, index = _all_pairs_frame(net, max_nodes)
    values = np.full((len(order), len(order)), np.inf)
    graph = aggregate_graph(net, params)
    for row, source in zip(values, order):
        for v, length in aggregated_sssp(graph, source).lengths.items():
            row[index[v]] = length
    return DistanceMatrix(order, values, params)
