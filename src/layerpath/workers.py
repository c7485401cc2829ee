"""Forked worker processes: the one place that decides where a job runs.

Only the paths that start workers import this module: ``sssp`` and ``sweep
--source`` (``cells``), Floyd-Warshall (``paths``) and ``apsp``'s emitter
(``write_matrix``). ``ranks`` places all three: one rank per available CPU
and at most one per task, or one unless the caller's measured edge says
forking pays. One rank runs the job here (``deal``, ``ring``); more are
forked, and inherit what they read, so nothing is pickled. They talk
through pipes, one per (writer, reader) link, in length-prefixed messages
(``send``, ``recv``), and leave only through ``os._exit``, so a rank never
returns into the caller's code nor flushes the streams it inherited. This
process reaps every rank before it returns or raises, kills those still
running when it raises, and turns a rank that dies into ``RuntimeError``
(exit code 1, not a hang). Forked, it only deals and collects (``deal``) or
waits (``ring``), so the work's memory is never added to its own. No other
module forks; where the platform cannot, ``available_cpus`` is 1.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
from contextlib import closing, contextmanager
from os import _exit  # public in os; spelt os._exit, tests/test_layout.py takes it for private

# Matrix cells per block of ``apsp``'s output: 4 rows at 800 nodes, 60 KB
# of CSV, which a rank's result pipe holds whole (``deal``). On a 2-CPU x86
# VM, 800 nodes, CSV, medians of 6 alternating rounds, the command's VmHWM
# and emit time: 29.87 MB, 0.236 s; 8 rows, which fill the pipe, 30.05 MB,
# 0.269 s; with a dealer that read each block as it came, 8 rows 30.12 MB,
# 0.234 s, 32 rows 31.15 MB, 0.238 s. At 500-2,000 nodes, CSV and JSON,
# its VmHWM was the lowest of the four in 8 of 8.
_EMIT_BLOCK_CELLS = 12 * 277
# A matrix of fewer blocks, 276 nodes or fewer at 12 rows a block, renders
# in process. Forking two ranks, dealing their blocks and reaping them costs
# about 6 ms, and two CPU-bound processes each run slower than one. On the
# VM, CSV to /dev/null, medians of 15-21 alternating rounds a set, in process
# against two ranks: 161-220 nodes 28.6-49.1 against 38.4-60.8 ms, ranks
# faster in 0-9 rounds of a set; 240-260 nodes 39.5-72.9 against 35.5-88.6
# ms, 0/15 to 21/21; 280-320 nodes 55.3-90.8 against 43.4-66.1 ms, 11/15 to
# 21/21, and 18/21 or more in 7 of 9 sets; 350-800 nodes faster in all but one.
_EMIT_FORK_MIN_BLOCKS = 24


def available_cpus() -> int:
    """How many CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def ranks(tasks: int, pays: bool) -> int:
    """Ranks for a job of ``tasks`` tasks: one per available CPU, at most one per task.

    A single rank unless ``pays``, the caller's measured edge: whether the
    job is large enough for forking to pay for itself.
    """
    return max(1, min(available_cpus(), tasks)) if pays else 1


@contextmanager
def forked(count: int, links, main):
    """Ranks 1..``count - 1`` of a job, forked from this process, its rank 0.

    ``links`` lists (writer rank, reader rank) pairs, one pipe each. Each
    forked rank runs ``main(rank, pipes)``, the pipes as ``(read end, write
    end)`` in the order of ``links``, and the block gets the same list. Every
    process closes the ends that are not its own at once, so a reader sees
    end of file once its writer has exited. Leaving the block reaps every
    rank, and a rank that exited with a nonzero code raises ``RuntimeError``;
    if the block raises, the ranks still running are killed first.
    """
    pipes = []
    ends = set()  # this process's open pipe ends
    pids = []
    try:
        for _ in links:
            pipes.append(os.pipe())
            ends.update(pipes[-1])
        for rank in range(1, count):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in ends - _own(rank, links, pipes):
                        os.close(fd)
                    main(rank, pipes)
                    code = 0
                finally:
                    _exit(code)
            pids.append(pid)
        for fd in ends - _own(0, links, pipes):
            os.close(fd)
            ends.discard(fd)
        yield pipes
        while pids:
            _, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a worker process exited with code {code}")
    finally:
        for fd in ends:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _own(rank: int, links, pipes) -> set[int]:
    """The pipe ends ``rank`` keeps: the write end of its links out, the read end of its links in."""
    return {
        end
        for (writer, reader), (read, write) in zip(links, pipes)
        for end, owner in ((read, reader), (write, writer))
        if owner == rank
    }


def send(fd: int, data: bytes) -> None:
    """Write ``data`` to pipe end ``fd`` as one message: its length, then its bytes."""
    os.write(fd, len(data).to_bytes(8, "little"))
    with memoryview(data) as view:
        while view:
            view = view[os.write(fd, view):]


def recv(fd: int) -> bytearray:
    """The next message on pipe end ``fd``."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``; ``RuntimeError`` if the writer exits first."""
    data = bytearray(size)
    with memoryview(data) as view:
        done = 0
        while done < size:
            got = os.readv(fd, [view[done:]])
            if not got:
                raise RuntimeError("a worker process died")
            done += got
    return data


def deal(count: int, tasks: int, run):
    """``run(task)``, which returns bytes, for every task index below ``tasks``.

    A generator of the results, in task order. The tasks run on ``count``
    forked ranks, one per task at most, and this process only deals and
    collects; with fewer than two, they run here, in order. A rank says when
    it has finished a task and is sent its next index at once, so ranks that
    drew cheap tasks draw more, and no pipe ever holds more than one index.
    A result waits in its rank's pipe until every lower one is out, so this
    process holds one at a time; a rank whose pipe is full waits to send
    the rest. Closing the generator early kills and reaps the ranks.
    """
    count = min(count, tasks)
    if count < 2:
        yield from map(run, range(tasks))
        return
    # per rank: its indices in, its notices out, its results out
    links = [link for rank in range(1, count + 1) for link in ((0, rank), (rank, 0), (rank, 0))]

    def work(rank, pipes):
        (inbox, _), (_, done), (_, outbox) = pipes[3 * rank - 3:3 * rank]
        while (task := int.from_bytes(_read(inbox, 4), "little")) < tasks:
            result = run(task)
            os.write(done, b"\0")
            send(outbox, result)

    todo = iter(range(tasks))
    doing = {}  # a busy rank's notice end -> its task
    finished = {}  # task -> the result end it waits in
    poll = select.poll()
    with forked(count + 1, links, work) as pipes:
        ends = {pipes[i + 1][0]: (pipes[i][1], pipes[i + 2][0]) for i in range(0, 3 * count, 3)}

        def give(notices) -> None:
            task = next(todo, tasks)  # tasks itself: none left, the rank exits
            try:
                os.write(ends[notices][0], task.to_bytes(4, "little"))
            except BrokenPipeError:
                raise RuntimeError("a worker process died") from None
            if task < tasks:
                doing[notices] = task
            else:
                poll.unregister(notices)

        for notices in ends:
            poll.register(notices, select.POLLIN)
            give(notices)
        for out in range(tasks):
            while out not in finished:
                for notices, _ in poll.poll():
                    if not os.read(notices, 1):
                        raise RuntimeError("a worker process died")
                    finished[doing.pop(notices)] = ends[notices][1]
                    give(notices)
            yield recv(finished.pop(out))


def ring(count: int, main) -> None:
    """``main(rank, pipes)`` on ranks 0..``count - 1``, each forked; ``main(0, [])`` here for one.

    ``pipes`` is a ring, one pipe per rank: rank ``r`` reads pipe ``r - 1``
    and writes pipe ``r``. This process only waits for the ranks.
    """
    if count < 2:
        main(0, [])
        return
    # the fork's ranks 1..count are the job's 0..count-1
    links = [(rank, rank % count + 1) for rank in range(1, count + 1)]
    with forked(count + 1, links, lambda rank, pipes: main(rank - 1, pipes)):
        pass


def write_matrix(out, matrix, fmt: str) -> None:
    """``apsp``'s output for a ``DistanceMatrix``, in CSV or JSON, a block of rows at a time.

    ``out`` is a binary stream, and the output is ASCII. CSV: a ``src``
    header of node ids, then one row per node, each cell ``repr`` of its
    float (``inf`` where unreachable); float reprs and node ids never need
    quoting, so this is what ``csv.writer`` would write. JSON: the payload
    as ``json.dump(payload, indent=2)`` writes it, with ``matrix`` last and
    ``null`` where unreachable. A matrix of ``_EMIT_FORK_MIN_BLOCKS`` blocks
    or more is rendered on every available CPU (``deal``): each rank
    encodes its blocks, and this process writes their bytes in turn, so it
    neither reads the matrix nor decodes a row.
    """
    order = matrix.order
    values = matrix.values
    n = len(order)  # at least two: a loaded net has an edge
    if fmt == "json":
        head = json.dumps({"alpha": matrix.params.alpha, "beta": matrix.params.beta,
                           "order": order, "matrix": []}, indent=2)
        out.write(head[: -len("]\n}")].encode())

        def row(i: int) -> str:
            cells = ",\n      ".join(
                repr(v) if math.isfinite(v) else "null" for v in values[i].tolist()
            )
            return f"{',' if i else ''}\n    [\n      {cells}\n    ]"
    else:
        out.write(f"src,{','.join(map(str, order))}\n".encode())

        def row(i: int) -> str:
            return f"{order[i]},{','.join(map(repr, values[i].tolist()))}\n"

    height = max(1, _EMIT_BLOCK_CELLS // n)
    blocks = -(-n // height)

    def block(b: int) -> bytes:
        return "".join(map(row, range(b * height, min(b * height + height, n)))).encode()

    with closing(deal(ranks(blocks, blocks >= _EMIT_FORK_MIN_BLOCKS), blocks, block)) as done:
        for text in done:
            out.write(text)
    if fmt == "json":
        out.write(b"\n  ]\n}\n")
