"""The fork primitive: task dealing, results in order as they come, and no leftovers on any path."""

import io
import marshal
import os
import signal
import time

import pytest

from layerpath import AggregationParams, cells, ml_floyd_warshall, workers
from layerpath.generate import random_network


def dies_in_a_rank(fn):
    """``fn``, except that in a process forked from this one it kills that process."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args)

    return wrapped


class TestDeal:
    def test_more_tasks_than_a_pipe_buffer_holds_indices(self, forks):
        # 4-byte indices: 16,384 fill a 64 KB pipe; a dealer that wrote them
        # all before the ranks read any would block
        tasks = 20_000
        done = workers.deal(2, tasks, lambda task: task.to_bytes(4, "little"))
        assert [int.from_bytes(d, "little") for d in done] == list(range(tasks))
        assert len(forks) == 2

    def test_a_slow_task_does_not_hold_up_the_rest(self, forks):
        def run(task):
            if task == 0:
                time.sleep(0.5)
            return str(os.getpid()).encode()

        done = [int(d) for d in workers.deal(2, 20, run)]
        assert set(done) == set(forks)
        # the rank that drew the slow task drew nothing else, or next to nothing
        assert done.count(done[0]) < 5

    def test_large_results_come_back_whole(self):
        done = list(workers.deal(3, 5, lambda task: bytes([task]) * (300_000 + task)))
        assert [len(d) for d in done] == [300_000 + task for task in range(5)]
        assert all(d == bytes([task]) * len(d) for task, d in enumerate(done))

    def test_a_rank_that_raises_fails_the_deal(self):
        def run(task):
            if task == 3:
                raise ValueError
            return b""

        with pytest.raises(RuntimeError, match="a worker process"):
            list(workers.deal(2, 8, run))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_are_yielded_in_task_order(self, forks, count):
        def run(b):
            return (f"{b}:" + "x" * (100_000 * (b % 3)) + "\n").encode()

        assert b"".join(workers.deal(count, 10, run)) == b"".join(map(run, range(10)))
        assert len(forks) == (count if count > 1 else 0)  # one rank runs in process

    def test_a_result_is_yielded_before_later_tasks_finish(self, tmp_path):
        # what bounds apsp's memory: the first row is written while the
        # last is still being rendered, not after every row is in
        first_out = tmp_path / "first-out"

        def run(task):
            if task < 5:
                return b"%d" % task
            deadline = time.monotonic() + 10
            while not first_out.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return b"after the first" if first_out.exists() else b"first held back"

        results = workers.deal(2, 6, run)
        assert next(results) == b"0"
        first_out.touch()
        assert list(results) == [b"1", b"2", b"3", b"4", b"after the first"]


class TestPlacement:
    def test_ranks_are_one_per_cpu_and_task_where_forking_pays(self, monkeypatch):
        monkeypatch.setattr(workers, "available_cpus", lambda: 3)
        assert [workers.ranks(tasks, True) for tasks in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 3]
        assert [workers.ranks(tasks, False) for tasks in (0, 1, 9)] == [1, 1, 1]
        monkeypatch.setattr(workers, "available_cpus", lambda: 1)
        assert workers.ranks(9, True) == 1

    def test_deal_forks_one_rank_a_task_at_most(self, forks):
        assert list(workers.deal(3, 2, lambda task: b"%d" % task)) == [b"0", b"1"]
        assert len(forks) == 2

    def test_one_rank_deals_in_process(self, forks):
        parent = str(os.getpid()).encode()
        assert list(workers.deal(1, 3, lambda task: parent)) == [parent] * 3
        assert list(workers.deal(5, 0, lambda task: parent)) == []
        assert forks == []

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_a_ring_passes_round_every_rank(self, forks, count):
        read, write = os.pipe()  # each rank writes here what came round the ring

        def main(rank, pipes):
            assert len(pipes) == (count if count > 1 else 0)
            if rank == 0 and pipes:
                workers.send(pipes[0][1], b"0")
            got = bytes(workers.recv(pipes[rank - 1][0])) if pipes else b""
            if pipes and rank:
                workers.send(pipes[rank][1], got + b"%d" % rank)
            os.write(write, b"%d:%s;" % (rank, got))

        try:
            workers.ring(count, main)
        finally:
            os.close(write)
            with open(read, "rb") as heard:
                notes = set(heard.read().split(b";")) - {b""}
        if count == 1:
            assert notes == {b"0:"} and forks == []
        else:
            want = b"".join(b"%d" % rank for rank in range(count))
            assert notes == {b"%d:%s" % (rank, want[:rank]) for rank in range(1, count)} | {b"0:" + want}
            assert len(forks) == count


class TestRunCells:
    def test_one_cpu_returns_the_very_texts_its_tasks_built(self, monkeypatch, forks):
        # in process nothing is encoded and decoded, so no task's texts are
        # held twice
        monkeypatch.setattr(cells, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(workers, "available_cpus", lambda: 1)
        built = []
        cell_task = cells._cell_task

        def building(*args):
            built.extend(done := cell_task(*args))
            return done

        monkeypatch.setattr(cells, "_cell_task", building)
        net = random_network(60, 3, 0.05, seed=2)
        grid = [AggregationParams(a, b) for a in (1, 2) for b in (0.5, 1.0)]
        per_cell = cells.run_cells(net, grid, [0, 1, 2], "dap", targets=sorted(net.nodes))
        got = [slot for slots in per_cell for slot in slots]
        assert forks == [] and len(got) == len(built) == 12
        assert all(text is text_built and stats is stats_built
                   for (stats, text), (stats_built, text_built) in zip(got, built))


class TestWriteMatrix:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_row_short_of_the_edge_renders_in_process_and_the_edge_forks(
            self, monkeypatch, forks, fmt):
        edge = workers._EMIT_FORK_MIN_ROWS
        for n, ranks in ((edge - 1, 0), (edge, 3)):
            matrix = ml_floyd_warshall(random_network(n, 3, 0.01, seed=2))
            assert len(matrix.order) == n
            outputs = []
            for cpus in (1, 3):
                monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
                out = io.BytesIO()
                del forks[:]
                workers.write_matrix(out, matrix, fmt)
                assert len(forks) == (ranks if cpus == 3 else 0)
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_the_caller_holds_one_block_at_a_time(self, monkeypatch, forks, fmt):
        # each row waits in its rank's pipe until every lower one is
        # written, so what has come in and is not yet written never exceeds
        # one row's bytes, the row being written, on any number of ranks
        matrix = ml_floyd_warshall(random_network(60, 3, 0.05, seed=2))
        monkeypatch.setattr(workers, "available_cpus", lambda: 1)
        workers.write_matrix(alone := io.BytesIO(), matrix, fmt)
        header = len(marshal.dumps(b""))  # a row goes as marshal's bytes: type and length
        received = []  # each row's bytes, less marshal's header
        held = [0]  # bytes received less bytes written, after each row in and each write
        recv = workers.recv

        def receiving(fd):
            data = recv(fd)
            received.append(len(data) - header)
            held.append(held[-1] + received[-1])
            return data

        class Out(io.BytesIO):
            def write(self, data):
                if received:  # the head goes out before any row comes in
                    held.append(held[-1] - len(data))
                return super().write(data)

        monkeypatch.setattr(workers, "recv", receiving)
        monkeypatch.setattr(workers, "_EMIT_FORK_MIN_ROWS", 2)
        monkeypatch.setattr(workers, "available_cpus", lambda: 3)
        workers.write_matrix(out := Out(), matrix, fmt)
        assert len(forks) == 3 and len(received) == 60
        assert 0 < max(held) <= max(received)
        assert out.getvalue() == alone.getvalue()

    def test_800_nodes_fork_and_239_do_not(self):
        assert 800 >= workers._EMIT_FORK_MIN_ROWS
        assert 239 < workers._EMIT_FORK_MIN_ROWS <= 240


class ClosesAfter:
    """A stdout whose reader leaves after ``writes`` writes."""

    def __init__(self, writes):
        self.writes = writes

    def write(self, data):
        self.writes -= 1
        if self.writes < 0:
            raise BrokenPipeError


def cells_run(monkeypatch, outcome):
    monkeypatch.setattr(cells, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(workers, "available_cpus", lambda: 3)
    if outcome == "killed":
        monkeypatch.setattr(cells, "_cell_task", dies_in_a_rank(cells._cell_task))
    net = random_network(60, 3, 0.05, seed=2)
    grid = [AggregationParams(a, b) for a in (1, 2) for b in (0.5, 1.0)]
    cells.run_cells(net, grid, [0, 1, 2], "dap", targets=sorted(net.nodes))


def emitter_run(monkeypatch, outcome):
    net = random_network(60, 3, 0.05, seed=2)
    matrix = ml_floyd_warshall(net)
    monkeypatch.setattr(workers, "_EMIT_FORK_MIN_ROWS", 2)
    monkeypatch.setattr(workers, "available_cpus", lambda: 3)
    if outcome == "killed":
        monkeypatch.setattr(workers, "send", dies_in_a_rank(workers.send))
    out = ClosesAfter(3) if outcome == "closed" else io.BytesIO()
    workers.write_matrix(out, matrix, "csv")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "run, outcome, raises",
    [
        (cells_run, "finished", None),
        (cells_run, "killed", RuntimeError),
        (emitter_run, "finished", None),
        (emitter_run, "killed", RuntimeError),
        (emitter_run, "closed", BrokenPipeError),
    ],
    ids=["cells-finished", "cells-killed", "emitter-finished", "emitter-killed",
         "emitter-closed"],
)
def test_no_process_or_fd_is_left_behind(monkeypatch, forks, run, outcome, raises):
    # Floyd-Warshall's ranks are checked the same way in test_paths.py; on
    # three CPUs the cells and the emitter each fork three ranks
    fds = len(os.listdir("/proc/self/fd"))
    if raises:
        # held to the end: the traceback keeps the failed call's frames alive,
        # so the ranks must be reaped before the call raises, not when its
        # frames are freed
        with pytest.raises(raises) as caught:
            run(monkeypatch, outcome)
    else:
        run(monkeypatch, outcome)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):  # every rank is reaped
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds
