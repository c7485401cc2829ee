"""Shortest-path strategies: agreement, reconstruction, guards."""

import io
import mmap
import os
import random
import signal
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerpath import (
    NEGATIVE,
    POSITIVE,
    AggregationParams,
    MultiLayeredNetwork,
    ParameterError,
    SizeGuardExceededError,
    UnknownNodeError,
    UnsealedNetworkError,
    aggregate_graph,
    aggregated_sssp,
    apsp_repeated_dijkstra,
    benchmark,
    dap_sssp,
    edge_count_sweep,
    mda_sssp,
    ml_floyd_warshall,
    random_network,
)
from layerpath import paths, workers
from layerpath.paths import _fw_block_height
from netgen import build_net, layered_networks
from oracles import brute_force_sp, textbook_floyd_warshall, triples

DEFAULTS = AggregationParams()

THRESHOLDS = st.tuples(
    st.integers(1, 3), st.sampled_from((0.25, 0.5, 0.75, 1.0))
)


def triangle():
    """One layer; the direct hop 0->2 is weak, the detour via 1 is strong.

    Weights 0.7, 0.7, 0.1 become distances 0.3, 0.3, 0.9, so the two-hop
    route (total 0.6) beats the direct edge.
    """
    return build_net(
        ("a",), [(0, 1, "a", 0.7), (1, 2, "a", 0.7), (0, 2, "a", 0.1)]
    )


def all_strategies(net, source, params):
    return (
        dap_sssp(net, source, params),
        mda_sssp(net, source, params),
        brute_force_sp(net, source, params),
    )


class TestHandWorked:
    def test_triangle_detour(self):
        # expected lengths follow the distance formula step by step
        hop = 1.0 - 0.7  # about 0.3 (not exactly, in binary floats)
        for result in all_strategies(triangle(), 0, DEFAULTS):
            assert result.lengths == {0: 0.0, 1: hop, 2: hop + hop}
            assert result.path_to(2) == [0, 1, 2]
            assert result.predecessors == {0: None, 1: 0, 2: 1}

    def test_triangle_tightened_beta_forces_the_detour_away(self):
        # beta 0.5 drops the weak 0->2 edge (d = 0.9) but keeps the others
        hop = 1.0 - 0.7
        params = AggregationParams(1, 0.5)
        for result in all_strategies(triangle(), 0, params):
            assert result.lengths == {0: 0.0, 1: hop, 2: hop + hop}
        # beta 0.25 empties the graph entirely
        params = AggregationParams(1, 0.25)
        for result in all_strategies(triangle(), 0, params):
            assert result.lengths == {0: 0.0}

    def test_multi_layer_distances_feed_the_search(self):
        # absent layers dilute a pair's strength, so the strong three-layer
        # tie 1->2 plus the partial tie 0->1 still beat the weak direct edge
        net = build_net(
            ("a", "b", "c"),
            [
                (0, 1, "a", 0.8), (0, 1, "b", 0.5),
                (1, 2, "a", 0.9), (1, 2, "b", 0.9), (1, 2, "c", 0.9),
                (0, 2, "a", 0.1),
            ],
        )
        first = 1.0 - (0.0 + 0.8 + 0.5) / 3          # 17/30
        second = 1.0 - (0.0 + 0.9 + 0.9 + 0.9) / 3   # 0.1
        direct = 1.0 - (0.0 + 0.1) / 3               # about 0.97
        assert abs(first - 17 / 30) < 1e-15
        assert first + second < direct
        for result in all_strategies(net, 0, DEFAULTS):
            assert result.lengths[2] == first + second
            assert result.path_to(2) == [0, 1, 2]

    def test_equal_length_ties_settle_the_lower_node_id(self):
        net = build_net(
            ("a",),
            [
                (0, 2, "a", 0.5), (0, 1, "a", 0.5),   # two equal first hops
                (2, 3, "a", 0.5), (1, 3, "a", 0.5),   # two equal second hops
            ],
        )
        for result in all_strategies(net, 0, DEFAULTS):
            assert result.lengths[3] == 1.0
        # the Dijkstra variants pin the tie-break; the brute-force oracle
        # only promises lengths, its tree may route through 2
        assert dap_sssp(net, 0).predecessors[3] == 1
        assert mda_sssp(net, 0).predecessors[3] == 1

    def test_the_first_node_to_settle_at_the_final_length_is_the_predecessor(self):
        # 0->5->3 and 0->1->3 both have length 1.0; 5 settles first (at
        # 0.25, 1 at 0.5), so it is 3's predecessor although 1 is the lower
        # id, and although 1 also reaches 3 at 1.0 when it settles after 5
        net = build_net(
            ("a",),
            [(0, 5, "a", 0.75), (0, 1, "a", 0.5), (5, 3, "a", 0.25), (1, 3, "a", 0.5)],
            polarity=POSITIVE,
        )
        for result in (dap_sssp(net, 0), mda_sssp(net, 0)):
            assert result.lengths[3] == result.lengths[5] + 0.75 == result.lengths[1] + 0.5
            assert list(result.predecessors) == [0, 5, 1, 3]  # the settle order
            assert result.path_to(3) == [0, 5, 3]

    def test_negative_polarity_weights_act_as_distances(self):
        net = build_net(
            ("a", "b"),
            [(0, 1, "a", 0.4), (0, 1, "b", 0.2), (1, 2, "a", 1.0)],
            polarity=NEGATIVE,
        )
        d01 = (0.0 + 0.4 + 0.2) / 2  # summed in insertion order, no 1- flip
        d12 = 1.0 / 2
        for result in all_strategies(net, 0, DEFAULTS):
            assert result.lengths == {0: 0.0, 1: d01, 2: d01 + d12}


class TestResultShape:
    def test_source_is_its_own_zero_length_root(self):
        result = dap_sssp(triangle(), 0)
        assert result.source == 0
        assert result.lengths[0] == 0.0
        assert result.predecessors[0] is None
        assert result.path_to(0) == [0]

    def test_unreachable_nodes_are_absent_not_sentinel(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=(2,))
        result = dap_sssp(net, 0)
        assert 2 not in result.lengths
        assert result.length(2) == inf
        assert result.path_to(2) == []
        assert set(result.lengths) == {0, 1}

    def test_unknown_nodes_are_rejected(self):
        result = dap_sssp(triangle(), 0)
        with pytest.raises(UnknownNodeError):
            result.length(9)
        with pytest.raises(UnknownNodeError):
            result.path_to(9)
        with pytest.raises(UnknownNodeError):
            dap_sssp(triangle(), 9)
        with pytest.raises(UnknownNodeError):
            mda_sssp(triangle(), 9)

    def test_alpha_above_layer_count_leaves_only_the_source(self):
        result = dap_sssp(triangle(), 0, AggregationParams(2, 1.0))
        assert result.lengths == {0: 0.0}

    def test_params_are_recorded(self):
        params = AggregationParams(1, 0.5)
        assert dap_sssp(triangle(), 0, params).params == params
        assert mda_sssp(triangle(), 0, params).params == params

    def test_requires_seal(self):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_edge(0, 1, "a", 0.5)
        calls = (
            lambda: dap_sssp(net, 0),
            lambda: mda_sssp(net, 0),
            lambda: ml_floyd_warshall(net),
            lambda: apsp_repeated_dijkstra(net),
            lambda: edge_count_sweep(net, [1], [1.0]),
            lambda: benchmark(net, [0]),
        )
        for call in calls:
            with pytest.raises(UnsealedNetworkError):
                call()
        net.seal()
        for call in calls:
            call()

    def test_bad_arguments_raise_before_the_seal_check(self):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_edge(0, 1, "a", 0.5)
        for call in (
            lambda: ml_floyd_warshall(net, max_nodes=-1),
            lambda: apsp_repeated_dijkstra(net, max_nodes=-1),
            lambda: edge_count_sweep(net, [], [1.0]),
            lambda: benchmark(net, [0], reps=0),
        ):
            with pytest.raises(ParameterError):
                call()


class TestAllPairs:
    def test_matrix_matches_per_source_runs(self):
        net = build_net(
            ("a", "b"),
            [
                (0, 1, "a", 0.9), (1, 2, "b", 0.8), (2, 0, "a", 0.7),
                (0, 3, "a", 0.2), (3, 2, "b", 0.9),
            ],
        )
        matrix = ml_floyd_warshall(net)
        for source in sorted(net.nodes):
            lengths = dap_sssp(net, source).lengths
            for target in sorted(net.nodes):
                expected = lengths.get(target, inf)
                got = matrix.entry(source, target)
                if expected == inf:
                    assert got == inf
                else:
                    assert abs(got - expected) <= 1e-12

    def test_repeated_dijkstra_agrees_with_floyd_warshall(self):
        net = build_net(
            ("a",),
            [(i, (i + k) % 9, "a", (i * 7 % 10) / 10 or 0.5)
             for i in range(9) for k in (1, 3)],
        )
        fw = ml_floyd_warshall(net)
        seq = apsp_repeated_dijkstra(net)
        assert seq.order == fw.order
        both_finite = np.isfinite(fw.values) & np.isfinite(seq.values)
        assert np.array_equal(np.isfinite(fw.values), np.isfinite(seq.values))
        assert np.max(np.abs(fw.values[both_finite] - seq.values[both_finite]),
                      initial=0.0) <= 1e-12

    def test_single_node_network_yields_the_trivial_matrix(self):
        net = MultiLayeredNetwork(layers=("a",))
        net.add_node(0)
        net.seal()
        matrix = ml_floyd_warshall(net)
        assert matrix.order == [0]
        assert matrix.values.shape == (1, 1)
        assert matrix.entry(0, 0) == 0.0

    def test_diagonal_is_zero(self):
        matrix = ml_floyd_warshall(triangle())
        assert np.array_equal(np.diag(matrix.values), np.zeros(3))

    def test_size_guard(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=range(2, 12))
        with pytest.raises(SizeGuardExceededError):
            ml_floyd_warshall(net, max_nodes=10)
        with pytest.raises(SizeGuardExceededError):
            apsp_repeated_dijkstra(net, max_nodes=10)
        assert ml_floyd_warshall(net, max_nodes=12).values.shape == (12, 12)

    def test_matrix_entry_unknown_node(self):
        matrix = ml_floyd_warshall(triangle())
        with pytest.raises(UnknownNodeError):
            matrix.entry(0, 42)


def zero_distance_net(n, polarity, seed):
    """n nodes, about 3 pairs out of each over 1-3 of 3 layers, with isolated nodes.

    Weights come from a small set that holds the zero-distance weight (1.0
    under positive polarity, 0.0 under negative), so some pairs price at
    exactly 0.0, and every tenth node has no out-edges, so some pairs are
    unreachable.
    """
    rng = random.Random(seed)
    zero = 1.0 if polarity == POSITIVE else 0.0
    edges = []
    for src in range(n):
        if src % 10 == 9:
            continue
        for dst in rng.sample([v for v in range(n) if v != src], min(3, n - 1)):
            for layer in rng.sample(("a", "b", "c"), rng.randint(1, 3)):
                edges.append((src, dst, layer, rng.choice((zero, zero, 0.25, 0.5, 0.75))))
    return build_net(("a", "b", "c"), edges, polarity=polarity, extra_nodes=range(n))


def start_matrix(net, params):
    """Floyd-Warshall's input for a net over nodes 0..n-1: aggregated distances, 0 diagonal."""
    n = net.num_nodes
    start = np.full((n, n), inf)
    np.fill_diagonal(start, 0.0)
    for src, row in aggregate_graph(net, params).priced_pairs.items():
        for dst, _, dist in triples(row):
            start[src, dst] = dist
    return start


def forked_ranks(ranks):
    """Processes Floyd-Warshall forks to run ``ranks`` ranks: each rank, or none for one."""
    return ranks if ranks > 1 else 0


def mapped_rss_kb(address):
    """The ``Rss:`` of this process's mapping that holds ``address``, in kB."""
    with open("/proc/self/smaps", encoding="ascii") as smaps:
        inside = False
        for line in smaps:
            field = line.split(maxsplit=1)[0]
            if not field.endswith(":"):  # a mapping's first line: its address range
                start, stop = (int(end, 16) for end in field.split("-"))
                inside = start <= address < stop
            elif inside and field == "Rss:":
                return int(line.split()[1])
    raise LookupError(f"no mapping holds {address:#x}")


class TestBlockedFloydWarshall:
    @pytest.fixture
    def three_blocks_at_300(self, monkeypatch):
        """256 KB blocks: 109 rows, so a 300-node net has three, the last one short."""
        monkeypatch.setattr(paths, "_FW_BLOCK_BYTES", 256 * 1024)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("params", [AggregationParams(1, 1.0), AggregationParams(2, 0.75)])
    @pytest.mark.parametrize("polarity", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("n", [300, 40, 1])
    def test_bit_identical_to_the_textbook_loop(self, n, polarity, params, workers,
                                                force_fw_workers, three_blocks_at_300):
        forks = force_fw_workers(workers)
        height = _fw_block_height(n)
        blocks = -(-n // height)
        if n == 300:  # three or more blocks, the last one short
            assert blocks >= 3 and n % height != 0
        else:  # one block, so one phase, its own, does all the work
            assert height >= n
        net = zero_distance_net(n, polarity, seed=n)
        want = textbook_floyd_warshall(start_matrix(net, params))
        got = ml_floyd_warshall(net, params).values
        assert len(forks) == forked_ranks(min(workers, blocks))
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        if n > 1:  # the cases the test is for are really there
            off = ~np.eye(n, dtype=bool)
            assert np.isinf(got[off]).any()
            assert (got[off] == 0.0).any()
            assert ((got[off] > 0.0) & np.isfinite(got[off])).any()

    def test_bit_identical_on_generated_nets(self):
        for seed in range(4):
            net = random_network(150 + 37 * seed, 3, 0.01, seed=seed)
            for params in (AggregationParams(1, 1.0), AggregationParams(2, 0.75)):
                want = textbook_floyd_warshall(start_matrix(net, params))
                assert ml_floyd_warshall(net, params).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_more_blocks_than_a_byte_can_count(self, monkeypatch, force_fw_workers, workers):
        # one row a block: 300 blocks, as 2,900 nodes would have at the default size
        monkeypatch.setattr(paths, "_FW_BLOCK_BYTES", 8 * 300)
        forks = force_fw_workers(workers)
        assert _fw_block_height(300) == 1
        net = zero_distance_net(300, NEGATIVE, seed=5)
        want = textbook_floyd_warshall(start_matrix(net, DEFAULTS))
        assert ml_floyd_warshall(net).values.tobytes() == want.tobytes()
        assert len(forks) == forked_ranks(workers)

    @staticmethod
    def kill_rank_2(monkeypatch):
        """Rank 2 kills itself before it relaxes; rank 1 then waits on it until killed."""
        relax = paths._fw_relax

        def dies(values, slots, bounds, rank, *ring):
            if rank == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            relax(values, slots, bounds, rank, *ring)

        monkeypatch.setattr(paths, "_fw_relax", dies)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("killed", [False, True], ids=["finished", "killed"])
    def test_no_process_or_fd_is_left_behind(self, monkeypatch, force_fw_workers, killed,
                                             three_blocks_at_300):
        fds = len(os.listdir("/proc/self/fd"))
        if killed:
            self.kill_rank_2(monkeypatch)
        forks = force_fw_workers(3)
        net = zero_distance_net(300, POSITIVE, seed=300)
        if killed:
            with pytest.raises(RuntimeError, match="Floyd-Warshall worker"):
                ml_floyd_warshall(net)
        else:
            ml_floyd_warshall(net)
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("notice", ["ready", "through"])
    def test_a_rank_that_dies_mid_schedule_fails_the_run(self, monkeypatch, force_fw_workers,
                                                         notice):
        # ten rows a block: 30 phases. Rank 2 kills itself where it would
        # send its first own notice of one kind, after phase 0's rows are
        # in their slot; ranks 0 and 1 then wait on it for that notice, or
        # for one only it would pass on
        monkeypatch.setattr(paths, "_FW_BLOCK_BYTES", 8 * 300 * 10)
        relax = paths._fw_relax
        fds = len(os.listdir("/proc/self/fd"))
        died = os.pipe()  # rank 2 writes its notice's phase here just before it dies

        def dies(values, slots, bounds, rank, pipes):
            if rank == 2:
                send = workers.send

                def dying_send(fd, data):
                    # a notice is the phase, then 0 for "ready" or the sender's rank plus one
                    phase = int.from_bytes(data[:4], "little")
                    sender = int.from_bytes(data[4:], "little")
                    own = sender == 3 if notice == "through" else (sender, phase % 3) == (0, 2)
                    if own:
                        os.write(died[1], phase.to_bytes(4, "little"))
                        os.kill(os.getpid(), signal.SIGKILL)
                    send(fd, data)

                workers.send = dying_send  # in this forked rank only, which never returns
            relax(values, slots, bounds, rank, pipes)

        monkeypatch.setattr(paths, "_fw_relax", dies)
        forks = force_fw_workers(3)
        net = zero_distance_net(300, POSITIVE, seed=300)
        try:
            with pytest.raises(RuntimeError, match="^a Floyd-Warshall worker died$"):
                ml_floyd_warshall(net)
            phase = int.from_bytes(os.read(died[0], 4), "little")
        finally:
            for fd in died:
                os.close(fd)
        assert phase == (0 if notice == "through" else 2)
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("ranks", [1, 3])
    def test_the_rows_set_aside_do_not_grow_with_n(self, monkeypatch, force_fw_workers, ranks):
        # every map but the matrix is the slots: _FW_SLOTS blocks at most,
        # however many nodes; an n x n copy of the matrix would be 11.5 MB
        # at 1,200 nodes, against 1.56 MB of slots
        lengths = []
        real_mmap = mmap.mmap

        def recording(fileno, length, *args, **kwargs):
            lengths.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recording)
        forks = force_fw_workers(ranks)
        for n in (300, 1_200):  # two blocks, then 23
            lengths.clear()
            forks.clear()
            net = zero_distance_net(n, NEGATIVE, seed=n)
            assert ml_floyd_warshall(net).values.shape == (n, n)
            lengths.remove(8 * n * n)  # the matrix
            assert 0 < sum(lengths) <= paths._FW_SLOTS * paths._FW_BLOCK_BYTES
            assert len(forks) == forked_ranks(min(ranks, -(-n // _fw_block_height(n))))

    @pytest.mark.parametrize("n", [500, 800, 2_000])
    def test_the_temporary_never_shares_a_page_offset_with_its_block(self, monkeypatch, n):
        # every step's minimum reads a block row and the temporary's row
        # beside it; a plain np.empty sits at page offset 16 against offset
        # 0 for every block at 2,000 nodes and for block 0 at any size.
        # Only the operands are recorded, and no step runs, so the matrix
        # is not the answer here
        monkeypatch.setattr(workers, "available_cpus", lambda: 1)  # every block in process
        offsets = set()  # (block's first row, temporary's page offset less the block's)
        monkeypatch.setattr(np, "add", lambda *args, **kwargs: None)

        def recording(block, cand, out):
            assert block.strides == cand.strides and block.shape == cand.shape
            offsets.add((block.ctypes.data, (cand.ctypes.data - block.ctypes.data) % 4096))

        monkeypatch.setattr(np, "minimum", recording)
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=range(n))
        ml_floyd_warshall(net)
        height = _fw_block_height(n)
        assert len(offsets) == -(-n // height)  # every block, each at one offset
        assert {offset for _, offset in offsets} == {2048}

    @pytest.mark.parametrize("caller", [None, 1 << 16], ids=["default", "caller-set"])
    @pytest.mark.parametrize("run", ["in-process", "ranks", "killed"])
    def test_the_kernels_numpy_buffer_never_leaks(self, monkeypatch, force_fw_workers,
                                                  three_blocks_at_300, run, caller):
        # the kernel's steps run under a ufunc buffer below two rows, and
        # the caller's buffer size is back when ml_floyd_warshall returns or
        # raises, whether it was numpy's default or one the caller set
        n = 300
        minimum = np.minimum
        read, write = os.pipe()  # the buffer size at each step, from whichever process runs it

        def recording(*args, **kwargs):
            os.write(write, np.getbufsize().to_bytes(8, "little"))
            return minimum(*args, **kwargs)

        monkeypatch.setattr(np, "minimum", recording)
        forks = force_fw_workers(1 if run == "in-process" else 3)
        if run == "killed":
            self.kill_rank_2(monkeypatch)
        net = zero_distance_net(n, POSITIVE, seed=n)
        before = np.setbufsize(caller) if caller else np.getbufsize()
        try:
            if run == "killed":
                with pytest.raises(RuntimeError, match="Floyd-Warshall worker"):
                    ml_floyd_warshall(net)
            else:
                ml_floyd_warshall(net)
            after = np.getbufsize()
        finally:
            np.setbufsize(before)
            os.close(write)
            # 900 steps at most, 7.2 KB: the pipe's buffer holds them all
            with open(read, "rb") as steps:
                sizes = steps.read()
        seen = [int.from_bytes(sizes[i:i + 8], "little") for i in range(0, len(sizes), 8)]
        assert after == (caller or before)
        assert len(forks) == (0 if run == "in-process" else 3)
        assert seen and max(seen) < 2 * n

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    def test_the_caller_touches_no_page_of_the_forked_kernel(self, monkeypatch, force_fw_workers,
                                                             three_blocks_at_300):
        # on the forked path the ranks fill, relax and render the matrix, so
        # no page of it, nor of the slots, is ever mapped into this process;
        # in process the whole matrix is, so the check does see pages
        maps = []
        real_mmap = mmap.mmap

        def recording(fileno, length, *args, **kwargs):
            maps.append(real_mmap(fileno, length, *args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(mmap, "mmap", recording)
        net = zero_distance_net(300, POSITIVE, seed=300)
        force_fw_workers(1)
        values = ml_floyd_warshall(net).values
        assert mapped_rss_kb(values.ctypes.data) * 1024 >= values.nbytes
        maps.clear()
        forks = force_fw_workers(3)
        matrix = ml_floyd_warshall(net)
        assert len(forks) == 3
        rss = [mapped_rss_kb(np.frombuffer(m, np.uint8).ctypes.data) for m in maps]
        assert len(maps) == 2 and rss == [0, 0]  # the matrix and the slots
        out = io.BytesIO()
        workers.write_matrix(out, matrix, "csv")
        assert len(forks) == 6  # 24 blocks or more: three rendering ranks
        assert mapped_rss_kb(matrix.values.ctypes.data) == 0
        assert out.getvalue().count(b"\n") == 301


class TestBruteForceGuard:
    def test_node_cap(self):
        net = build_net(("a",), [(0, 1, "a", 0.5)], extra_nodes=range(2, 11))
        with pytest.raises(ValueError):
            brute_force_sp(net, 0, DEFAULTS)
        assert brute_force_sp(net, 0, DEFAULTS, max_nodes=11).lengths[1] == 0.5


@settings(max_examples=80, deadline=None)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
def test_strategies_agree_everywhere(net, thresholds):
    alpha, beta = thresholds
    params = AggregationParams(alpha, beta)
    for source in sorted(net.nodes):
        dap = dap_sssp(net, source, params)
        mda = mda_sssp(net, source, params)
        brute = brute_force_sp(net, source, params)
        assert dap.lengths == mda.lengths
        assert dap.predecessors == mda.predecessors
        assert brute.lengths.keys() == dap.lengths.keys()
        for v, length in dap.lengths.items():
            assert abs(brute.lengths[v] - length) <= 1e-12


def kept_distance(graph, x, y):
    """The distance of the aggregated pair (x, y), or None if the graph dropped it."""
    return next((dist for dst, _, dist in triples(graph.priced_pairs.get(x, ())) if dst == y), None)


@settings(max_examples=60, deadline=None)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
def test_predecessor_tree_is_consistent(net, thresholds):
    alpha, beta = thresholds
    params = AggregationParams(alpha, beta)
    graph = aggregate_graph(net, params)
    for source in sorted(net.nodes):
        result = aggregated_sssp(graph, source)
        assert result.lengths[source] == 0.0
        for v, length in result.lengths.items():
            assert length >= 0.0
            if v == source:
                continue
            pred = result.predecessors[v]
            dist = kept_distance(graph, pred, v)
            assert dist is not None, "predecessor must be a real aggregated edge"
            assert abs(result.lengths[pred] + dist - length) <= 1e-12
            path = result.path_to(v)
            assert path[0] == source and path[-1] == v
            assert len(path) == len(set(path)), "shortest paths are simple"


@settings(max_examples=60, deadline=None)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
# 2 is reached straight from 0 before 1 is, but its shortest path runs via 1
@example(build_net(("a",), [(0, 2, "a", 0.1), (0, 1, "a", 0.9), (1, 2, "a", 0.9)]), (1, 1.0))
# the brute-force search first reaches 2 via 0-3-1 at tiny + 0.25 == 0.25,
# then improves 1 to 0.0 through 0-1 without improving 2
@example(
    build_net(
        ("l1",),
        [
            (0, 3, "l1", float.fromhex("0x1.d7e02a0423fe4p-377")),
            (0, 1, "l1", 0.0),
            (1, 2, "l1", 0.25),
            (3, 1, "l1", 0.0),
        ],
        polarity=NEGATIVE,
    ),
    (1, 0.25),
)
def test_predecessors_list_every_node_after_its_predecessor(net, thresholds):
    # path_stats counts hops in one forward pass over this order
    params = AggregationParams(*thresholds)
    for source in sorted(net.nodes):
        for result in all_strategies(net, source, params):
            order = list(result.predecessors)
            assert order[0] == source and set(order) == set(result.lengths)
            position = {v: i for i, v in enumerate(order)}
            for v, pred in result.predecessors.items():
                if v != source:
                    assert position[pred] < position[v]


def _assert_lengths_are_path_sums(graph, result):
    # each node settles from the heap entry that set its final length, so
    # the left-to-right sum along its path reproduces that length exactly
    for v, length in result.lengths.items():
        path = result.path_to(v)
        total = 0.0
        for x, y in zip(path, path[1:]):
            total += kept_distance(graph, x, y)
        assert total == length, (result.source, v)


@settings(max_examples=60, deadline=None)
@given(layered_networks(polarities=(POSITIVE, NEGATIVE)), THRESHOLDS)
def test_lengths_are_left_to_right_path_sums(net, thresholds):
    params = AggregationParams(*thresholds)
    graph = aggregate_graph(net, params)
    for source in sorted(net.nodes):
        _assert_lengths_are_path_sums(graph, dap_sssp(net, source, params))
        _assert_lengths_are_path_sums(graph, mda_sssp(net, source, params))


def test_lengths_are_left_to_right_path_sums_on_a_generated_net():
    net = random_network(300, 3, 0.01, seed=17)
    for params in (AggregationParams(1, 1.0), AggregationParams(2, 0.75)):
        graph = aggregate_graph(net, params)
        for source in range(0, 300, 30):
            _assert_lengths_are_path_sums(graph, dap_sssp(net, source, params))
            _assert_lengths_are_path_sums(graph, mda_sssp(net, source, params))
