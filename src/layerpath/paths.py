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
import math
from math import inf
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .aggregate import AggregatedGraph, AggregationParams, aggregate_graph
from .core import MultiLayeredNetwork, coerce_int
from .errors import SizeGuardExceededError, UnknownNodeError

if TYPE_CHECKING:  # numpy is imported only where the all-pairs routines run
    import numpy as np

DEFAULT_APSP_NODE_CAP = 2_000
# One Floyd-Warshall block of float64 rows, and as much again for its
# temporary, stays in a core's L2 across a phase's steps; each slot holds one
# block too. On a 2-CPU x86 VM (2 MB L2 a core), medians of 5 alternating
# rounds, one process and two: 512 KB took 344 and 198 ms at 800 nodes, 5.07
# and 2.92 s at 2,000; 256 KB 376 and 214 ms, 5.71 and 2.92 s; 1 MB 22-52%
# more. With the temporary half a page off the block (``_fw_relax``), warm
# medians of 6 rounds: 251 and 158 ms at 800 nodes, 3.96 and 2.11 s at 2,000.
_FW_BLOCK_BYTES = 512 * 1024
# Below this many nodes Floyd-Warshall runs in process. Forked, each rank is
# a process of its own while this one waits, and on a shared machine the
# second CPU is not always free. On the VM, kernel medians of 7 warm calls,
# 9 rounds a size, order rotated, two ranks against one process: 300 nodes
# 26.8 against 17.8 ms, faster in 0/9; 400 40.1 against 40.4 ms, 3/9; 450
# 58.7 against 56.4 ms, 3/9; 500 62.8 against 76.7 ms, 9/9; 650 95.9
# against 145 ms, 9/9; 800 183 against 286 ms, 9/9. Forking at 300-450 nodes
# would lower apsp's peak RSS by 1.1-2.3 MB (wait4), for no faster a kernel.
_FW_FORK_MIN_NODES = 500
# Blocks of rows set aside for the phases in flight (``_fw_relax``), in place
# of an n x n copy of the matrix: 3 x 0.52 MB at 800 nodes against 5.12 MB.
# The owner of block c + 1 fills its slot once every process is through
# phase c + 1 - _FW_SLOTS: with two slots the other of two processes may
# still be applying it; with three it finished it before publishing phase c.
# Two processes, medians of 9 alternating rounds, three slots against two:
# 719 against 767 ms at 1,200 nodes, 1.67 against 1.75 s at 1,600, within 3%
# at 500, 800 and 2,000. With the temporary placed: 490 ms at 1,200 (warm).
_FW_SLOTS = 3


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
    set, in settle order. A tie does not relax, so of the nodes that reach
    ``v`` at its final length, the first to settle is ``v``'s predecessor.
    Only finite tentative lengths ever enter the heap, so draining it is
    equivalent to stopping as soon as the extracted minimum would be infinite.
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
    temporary stay in cache across many steps. It runs in phases, one per
    block: in phase ``c`` every block applies the steps ``k`` of block
    ``c``'s rows. Step ``k`` reads row ``k`` as it stands at step ``k`` (the
    step leaves its own row alone, since the diagonal is 0.0), and later
    steps change that row, so block ``c`` copies each of its rows into a
    slot as it reaches it, in its own phase. Each block applies the phases
    in order, so every entry sees the textbook sequence ``d = min(d, d[i, k]
    + d[k, j])`` for k = 0..n-1, in order, with the same operands, and the
    matrix is bit for bit the whole-matrix loop's. Phase ``c`` writes slot
    ``c % _FW_SLOTS``, once every block is through phase ``c - _FW_SLOTS``.

    The blocks are dealt round-robin to ``workers.ranks`` ranks, forked
    from ``_FW_FORK_MIN_NODES`` nodes on (``workers.ring``); each fills (inf,
    the diagonal, the kept pairs) and relaxes its own (``_fw_relax``).
    Forked, this process writes no page of the shared matrix or slots, and a
    worker that dies raises ``RuntimeError``.
    """
    import mmap

    import numpy as np

    from .workers import ranks, ring

    order, index = _all_pairs_frame(net, max_nodes)
    n = len(order)
    height = _fw_block_height(n)
    bounds = [(start, min(start + height, n)) for start in range(0, n, height)]

    def shared(*shape):  # an anonymous map, which forked workers share; mmap refuses length 0
        size = math.prod(shape)
        return np.frombuffer(mmap.mmap(-1, max(8 * size, 8)), np.float64, size).reshape(shape)

    values = shared(n, n)
    slots = shared(_FW_SLOTS, min(height, n), n)
    rows = aggregate_graph(net, params).priced_pairs
    count = ranks(len(bounds), n >= _FW_FORK_MIN_NODES)

    def relax(rank, pipes):
        for start, stop in bounds[rank::count]:
            block = values[start:stop]
            block.fill(np.inf)
            for i, src in enumerate(order[start:stop]):
                block[i, start + i] = 0.0
                row = rows.get(src)
                if row:
                    block[i, [index[dst] for dst in row[0::3]]] = row[2::3]
        _fw_relax(values, slots, bounds, rank, pipes)

    try:
        ring(count, relax)
    except RuntimeError:  # a worker's exit code
        raise RuntimeError("a Floyd-Warshall worker died") from None
    return DistanceMatrix(order, values, params)


def _fw_block_height(n: int) -> int:
    """Rows per Floyd-Warshall block: as many as fit ``_FW_BLOCK_BYTES``, at least one."""
    return max(1, _FW_BLOCK_BYTES // (8 * max(n, 1)))


def _fw_relax(values, slots, bounds, rank: int, pipes) -> None:
    """Every phase on blocks ``rank``, ``rank + workers``, ... of ``values``.

    This process alone writes those blocks, and the slot of each phase whose
    block is one of them, and reads no other rows of ``values``: the rows of
    other blocks reach it through the slots, so it starts as soon as its own
    blocks are filled. Phase ``c`` reads block ``c``'s rows from slot ``c %
    len(slots)``, so it waits until phase ``c`` is ready: block ``c`` has
    applied its own phase and filled the slot. A block fills a slot once
    every process is through the phase that last used it. The owner of
    block ``c + 1`` applies phase ``c`` to that block first and then its own
    phase (look-ahead), so the next slot fills while the other blocks apply
    phase ``c``. That slot waits on phase ``c + 1 - len(slots)``, below
    ``c``, so every wait is on a phase lower than the one being applied, and
    the lowest phase not yet applied can always run.

    A notice is 8 bytes: the phase, and 0 for "ready" or the sender's rank
    plus one for "through". Each comes from the process before in the ring,
    on ``inbox``, and goes on, on ``outbox``, unless it came from the next
    process, which is also told this one's own. A "ready" notice sets out
    after the one before it has passed its owner, a "through" notice after
    its sender's earlier ones, and the ring keeps their order, so the highest
    phase heard of each kind, and from each sender, tells all. A process
    leaves once it has heard every notice that will reach it. ``pipes`` is
    ``workers.ring``'s; a process alone has none and waits for nothing.
    """
    import numpy as np

    from .workers import recv, send

    workers = len(pipes) or 1
    inbox, outbox = (pipes[rank - 1][0], pipes[rank][1]) if pipes else (None, None)
    blocks = len(bounds)
    depth = len(slots)
    mine = range(rank, blocks, workers)
    ready = -1  # every phase up to this one has its rows in its slot
    through = [-1] * workers  # the last phase each process is through, as heard here

    def hear(done) -> None:
        nonlocal ready
        while not done():
            notice = recv(inbox)
            phase = int.from_bytes(notice[:4], "little")
            sender = int.from_bytes(notice[4:], "little") - 1
            if sender < 0:
                ready = phase
                sender = phase % workers
            else:
                through[sender] = phase
            if (sender - rank) % workers != 1:
                send(outbox, notice)

    def tell(phase: int, sender: int = -1) -> None:
        if outbox is not None:
            send(outbox, phase.to_bytes(4, "little") + (sender + 1).to_bytes(4, "little"))

    n = values.shape[1]
    tmp = np.empty(_fw_block_height(n) * n + 512)  # 4 KB over, for the offset below

    def apply(c: int, b: int) -> None:
        """Phase ``c`` on block ``b``; block ``c`` sets its rows aside as it goes."""
        start, stop = bounds[b]
        first = bounds[c][0]
        block = values[start:stop]
        # half a page off the block's rows, so that the minimum never takes a
        # load of one for a store to the other (a plain np.empty sits at page
        # offset 16, and every block's rows at 0 at 2,000 nodes)
        skip = (block.ctypes.data + 2048 - tmp.ctypes.data) % 4096 // 8
        cand = tmp[skip: skip + block.size].reshape(block.shape)
        slot = slots[c % depth]
        for k in range(*bounds[c]):
            if c == b:  # row k is in this block
                slot[k - first] = block[k - start]
            np.add(block[:, k, None], slot[k - first], out=cand)
            np.minimum(block, cand, out=block)

    def own_phase(c: int) -> None:
        nonlocal ready
        hear(lambda: min(through) >= c - depth)
        apply(c, c)
        ready = c
        tell(c)

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
        if rank == 0 and blocks:
            own_phase(0)
        for c in range(blocks):
            hear(lambda: ready >= c)
            ahead = c + 1
            if ahead in mine:
                apply(c, ahead)
                own_phase(ahead)
            for b in mine:
                if b != c and b != ahead:
                    apply(c, b)
            through[rank] = c
            if c + depth < blocks:  # a later phase waits on it
                tell(c, rank)
        hear(lambda: min(through) >= blocks - 1 - depth)
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
