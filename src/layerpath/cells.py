"""Single-source searches over a grid of threshold cells, on every available CPU.

``sssp`` and ``sweep --source`` search from each source under each (alpha,
beta) cell of a grid, and each (cell, source) search is independent of the
others. ``run_cells`` cuts the work into (cell, block of sources) tasks.
On a machine with more than one CPU, and when the work pays for it, the
tasks run in worker processes forked from the command after the load: the
sealed network reaches them by fork inheritance and is never pickled. Each
task returns, per source, its statistics row and its ``--paths`` rows
already rendered as text, so the command only writes them out.

Only the commands that search grids import this module, and only the pool
imports ``multiprocessing``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

from .aggregate import aggregate_graph
from .analytics import path_stats
from .paths import aggregated_sssp, mda_sssp

# Below this much work, in edge scans, the searches run in process. On a
# 2-CPU x86 VM a pool of two forked workers cost 45-75 ms of wall time:
# importing the pool, forking, handing out and collecting the tasks, joining
# and exiting. A search scans each layered edge at most once. That took
# 0.28 us an edge on the 10k-node perfbench net, where most searches reach
# most nodes, but only 0.1 us on a 3,000-node `generate` net, where searches
# at alpha >= 2 reach almost nothing. There 1.3 million edge scans ran in
# 0.14 s in process, and 30-45 ms slower in two workers. So the pool starts
# only at 1.5 million edge scans: 0.15 s even at 0.1 us a scan.
_POOL_MIN_WORK = 1_500_000
# One `--paths` row (the length, the walk up the predecessors and the text)
# took 11-28 us on the 10k net: at least 100 edge scans at 0.1 us.
_TARGET_WORK = 100


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _paths_text(result, targets, fmt: str) -> str:
    """``result``'s rows of the ``--paths`` section, as the CLI writes them.

    CSV lines, or JSON records as ``json.dump(payload, indent=2)`` writes them
    inside the payload's ``paths`` list, a comma and a newline between two;
    empty when there are no targets. Unreachable targets get an ``inf`` (CSV)
    or ``null`` (JSON) length and an empty path.
    """
    source = result.source
    alpha, beta = result.params.alpha, result.params.beta
    rows = (
        (source, alpha, beta, target, result.length(target), result.path_to(target))
        for target in targets
        if target != source
    )
    if fmt == "json":
        # a record at a time: the encoder holds every piece of what it is given
        encode = json.JSONEncoder(indent=2).encode
        return ",\n".join(
            "    " + encode({"source": src, "alpha": a, "beta": b, "target": target,
                             "length": length if math.isfinite(length) else None,
                             "path": path}).replace("\n", "\n    ")
            for src, a, b, target, length, path in rows
        )
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        (src, a, b, target, length, "->".join(map(str, path)))
        for src, a, b, target, length, path in rows
    )
    return text.getvalue()


def _cell_task(net, strategy, targets, fmt, params, sources) -> list[tuple[tuple, str]]:
    """(stats row, paths text) per source of ``sources`` under one threshold cell.

    dap aggregates once for the task's sources. A result holds the rows it
    searched, so no result outlives the call: the next task's graph is built
    only after this one is freed.
    """
    if strategy == "mda":
        results = (mda_sssp(net, source, params) for source in sources)
    else:
        graph = aggregate_graph(net, params)
        results = (aggregated_sssp(graph, source) for source in sources)
    return [
        (path_stats(result).as_row(), _paths_text(result, targets, fmt))
        for result in results
    ]


_worker_job: tuple = ()  # set in each pool worker only: (net, strategy, targets, fmt)


def _init_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _worker_task(task: tuple) -> list[tuple[tuple, str]]:
    return _cell_task(*_worker_job, *task)


def _pool_map(job: tuple, tasks: list[tuple], workers: int) -> list:
    """``_cell_task(*job, *task)`` for every task, in ``workers`` forked processes.

    The job, and the network in it, reaches the workers by fork inheritance
    and is never pickled; only the tasks' thresholds and sources go out and
    their rows and texts come back. The workers fork before the pool starts
    its threads. A worker that dies (say, killed for memory) raises
    ``BrokenProcessPool`` here; ``multiprocessing.Pool`` would wait forever
    for its task.
    """
    # only the pool pays for these imports
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a worker flushes the std streams as it exits, so bytes still buffered
    # here would be written once more by each worker; multiprocessing's fork
    # launcher flushes them too, but only as a detail of its internals
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _init_worker, job) as pool:
        return list(pool.map(_worker_task, tasks))


def run_cells(net, cells, sources, strategy, targets=(), fmt="csv") -> list[list]:
    """Per cell, per source: (stats row, paths text), in the order given.

    ``strategy`` is ``"dap"`` or ``"mda"``; the paths text covers
    ``targets`` in ``fmt`` (``"csv"`` or ``"json"``). Each cell's sources
    are cut into as many blocks as it takes to give every available CPU a
    task. The tasks run in forked worker processes, one per CPU at most,
    unless there is one worker or one task, the platform cannot fork, or
    the searches are too small to pay for the pool (``_POOL_MIN_WORK``).
    """
    cpus = _available_cpus()
    blocks = min(len(sources), math.ceil(cpus / len(cells)))
    size = math.ceil(len(sources) / blocks)
    tasks = [
        (params, sources[start:start + size])
        for params in cells
        for start in range(0, len(sources), size)
    ]
    job = (net, strategy, targets, fmt)
    workers = min(cpus, len(tasks))
    work = len(cells) * len(sources) * (net.num_edges + _TARGET_WORK * len(targets))
    if workers < 2 or not hasattr(os, "fork") or work < _POOL_MIN_WORK:
        done = [_cell_task(*job, *task) for task in tasks]
    else:
        done = _pool_map(job, tasks, workers)
    flat = [slot for part in done for slot in part]  # cell-major, as the tasks
    return [flat[start:start + len(sources)] for start in range(0, len(flat), len(sources))]
