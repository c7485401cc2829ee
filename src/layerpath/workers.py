"""Forked worker processes: the one place that decides where a job runs.

Only the paths that start workers import this module: the grid searches of
``sssp`` and ``sweep --source`` (``cells``), Floyd-Warshall (``paths``) and
``apsp``'s emitter (``write_matrix``). ``ranks`` places all three: one rank
per available CPU and at most one per task, or one rank unless the caller's
measured edge says forking pays. One rank runs the job's calls in this
process (``deal``, ``ring``); more are forked ranks, which inherit the
sealed network, or the aggregated graph and the shared matrix they fill,
or the finished matrix, so nothing is pickled. They talk through pipes, one
per (writer, reader) link, and send results back as length-prefixed byte
messages (``send``, ``recv``). A rank leaves only through ``os._exit``, so
it never returns into the caller's code nor flushes the std streams it
inherited. This process reaps every rank before it returns or raises, kills
the ranks still running when it raises, and turns a rank that dies into
``RuntimeError``, so a command ends with a traceback and exit code 1
instead of waiting forever. Forked, this process does none of the work: it
deals and collects (``deal``) or waits (``ring``), so the work's memory is
never added to what it holds. No other module forks, and where the
platform cannot, ``available_cpus`` is 1.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
from contextlib import closing, contextmanager
from os import _exit  # public in os; spelt os._exit, tests/test_layout.py takes it for private

# Matrix cells per block of ``apsp``'s output: 32 rows at 800 nodes, about
# 0.5 MB of CSV. On a 2-CPU x86 VM, two ranks wrote the 800-node matrix in
# 0.367-0.390 s (medians of 11 rounds, two sets) with 8-, 16-, 32- or 64-row
# blocks. The blocks are dealt to forked ranks (``deal``), and this process
# holds the block it is writing plus any that arrived ahead of a lower one.
_EMIT_BLOCK_CELLS = 32 * 800
# A matrix of fewer blocks is rendered in process: at this block size, a
# matrix forks from 277 nodes on. Forking two ranks, dealing them their
# blocks and reaping them costs about 6 ms, and two CPU-bound processes each
# run slower than one alone. On the 2-CPU VM, CSV to /dev/null, medians of
# 15-21 alternating rounds a set, in process against two ranks: two blocks
# (161-220 nodes) 28.6-49.1 ms against 38.4-60.8 ms, ranks faster in 0 to 9
# rounds of a set; three blocks (240-260 nodes) 39.5-72.9 ms against
# 35.5-88.6 ms, faster in 0/15 to 21/21; four blocks (280-320 nodes)
# 55.3-90.8 ms against 43.4-66.1 ms, faster in 11/15 to 21/21 and in 18/21
# or more in 7 of 9 sets; from five blocks (350-800 nodes) faster in all
# but one round, at 800 nodes 373-556 ms against 242-307 ms.
_EMIT_FORK_MIN_BLOCKS = 4


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
    collects; with fewer than two, they run here, in order. A rank is sent
    its next index when its last result arrives, so ranks that drew cheap
    tasks draw more, and no pipe ever holds more than one index. Each
    result is yielded as soon as every lower one is out; one that arrives
    early waits here. Closing the generator early kills and reaps the ranks.
    """
    count = min(count, tasks)
    if count < 2:
        yield from map(run, range(tasks))
        return
    links = [(0, rank) for rank in range(1, count + 1)]
    links += [(rank, 0) for rank in range(1, count + 1)]

    def work(rank, pipes):
        inbox, outbox = pipes[rank - 1][0], pipes[count + rank - 1][1]
        while (task := int.from_bytes(_read(inbox, 4), "little")) < tasks:
            send(outbox, run(task))

    todo = iter(range(tasks))
    doing = {}  # a busy rank's result end -> its task
    ready = {}  # task -> its result, until every lower one is out
    out = 0  # the next task to yield
    poll = select.poll()
    with forked(count + 1, links, work) as pipes:
        outbox = {pipes[count + i][0]: pipes[i][1] for i in range(count)}

        def give(inbox) -> None:
            task = next(todo, tasks)  # tasks itself: none left, the rank exits
            try:
                os.write(outbox[inbox], task.to_bytes(4, "little"))
            except BrokenPipeError:
                raise RuntimeError("a worker process died") from None
            if task < tasks:
                doing[inbox] = task
            else:
                poll.unregister(inbox)

        for inbox in outbox:
            poll.register(inbox, select.POLLIN)
            give(inbox)
        while doing:
            for inbox, _ in poll.poll():
                ready[doing.pop(inbox)] = recv(inbox)
                give(inbox)
            while out in ready:
                yield ready.pop(out)
                out += 1


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
    encodes its blocks, and this process writes the bytes as they come, so
    it neither reads the matrix nor decodes a row.
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
