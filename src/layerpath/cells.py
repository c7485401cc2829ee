"""Single-source searches over a grid of threshold cells, on every available CPU.

``sssp`` and ``sweep --source`` search from each source under each (alpha,
beta) cell of a grid, and each (cell, source) search is independent of the
others. ``run_cells`` cuts the work into (cell, block of sources) tasks and
hands them to ``workers.deal``, which runs them in worker processes forked
from the command after the load when ``workers.ranks`` gives more than one,
and in process otherwise. Forked, the sealed network reaches the workers by
fork inheritance and is never pickled, and each worker is sent its next
task when it returns its last. Each task returns, per source, its
statistics row and its ``--paths`` rows already rendered as text, so the
command only writes them out.

Only the commands that search grids import this module.
"""

from __future__ import annotations

import csv
import io
import json
import marshal
import math

from .aggregate import aggregate_graph
from .analytics import PathStats, path_stats
from .paths import aggregated_sssp, mda_sssp
from .workers import deal, ranks

# Below this much work, in edge scans, the searches run in process. On a
# 2-CPU x86 VM, forking two ranks, dealing them six empty tasks and reaping
# them took 3.4-4.1 ms. A rank's first pass over the network also pays a
# copy-on-write fault per page whose objects it touches: two aggregations
# of the 10k-node perfbench net took 26 ms in process, and 30 ms at one per
# rank. A search scans each layered edge at most once. Medians of 9 rounds,
# two ranks against in process, two sets: on the 10k net at 0.41 million
# edge scans (1 source, 6 cells) 87-161 ms against 108-122 ms, faster in
# 2/9 and 8/9; at 0.82 million 121-137 ms against 170-260 ms, faster in 9/9
# twice. On a 3,000-node `generate` net, where one cell holds most of the
# work, 0.65 to 2.6 million scans were within 30 ms either way. So the
# ranks start at 0.8 million edge scans.
_POOL_MIN_WORK = 800_000
# One `--paths` row (the length, the walk up the predecessors and the text)
# took 11-28 us on the 10k net: at least 100 edge scans at 0.1 us.
_TARGET_WORK = 100


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
        (path_stats(result), _paths_text(result, targets, fmt))
        for result in results
    ]


def run_cells(net, cells, sources, strategy, targets=(), fmt="csv") -> list[list]:
    """Per cell, per source: (stats row, paths text), in the order given.

    ``strategy`` is ``"dap"`` or ``"mda"``; the paths text covers
    ``targets`` in ``fmt`` (``"csv"`` or ``"json"``). Each cell's sources
    are cut into as many blocks as it takes to give every rank a task
    (``workers.ranks``: one rank unless the searches are large enough to
    pay for the forks, ``_POOL_MIN_WORK``). Each task's rows and texts come
    back marshalled, in process too (``marshal`` takes plain tuples, not
    ``PathStats``). Forked, this process only deals and collects: a search
    here would add its memory to the load's, which sets the command's peak.
    """
    work = len(cells) * len(sources) * (net.num_edges + _TARGET_WORK * len(targets))
    count = ranks(len(cells) * len(sources), work >= _POOL_MIN_WORK)
    blocks = min(len(sources), math.ceil(count / len(cells)))
    size = math.ceil(len(sources) / blocks)
    tasks = [
        (params, sources[start:start + size])
        for params in cells
        for start in range(0, len(sources), size)
    ]

    def run(task: int) -> bytes:
        done = _cell_task(net, strategy, targets, fmt, *tasks[task])
        return marshal.dumps([(tuple(stats), text) for stats, text in done])

    flat = [  # cell-major, as the tasks
        (PathStats(*stats), text)
        for done in deal(count, len(tasks), run)
        for stats, text in marshal.loads(done)
    ]
    return [flat[start:start + len(sources)] for start in range(0, len(flat), len(sources))]
