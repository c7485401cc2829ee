"""Traced child process for the benchmark's per-layer run.

    python3 traced.py main SPANS_JSON -- CLI_ARGV...
        Times ``import layerpath.cli``, wraps the public functions of the
        program's modules in timing spans, runs ``layerpath.cli.main(argv)``
        in this process (its output goes to this process's stdout) and
        writes the spans and counters to SPANS_JSON.

    python3 traced.py layers EDGE_CSV OUT_JSON [--heap]
        Parses the edge list itself, then times ``MultiLayeredNetwork``
        build (``add_edge`` per row) and ``seal``. With ``--heap`` it builds
        the network a second time under tracemalloc and reports the bytes
        it holds per layered edge.

The program must be importable (``PYTHONPATH`` names its ``src``). Spans are
kept in memory and written once at the end, so the traced run pays only a
clock read and a list append per call into a layer.
"""

from __future__ import annotations

import csv
import functools
import gc
import inspect
import json
import sys
import time
from collections import Counter

# modules whose public functions are layer boundaries, by span prefix
LAYER_MODULES = ("edgelist", "aggregate", "paths", "analytics")


class Tracer:
    """Spans as (name, start, end, parent index), plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "aggregate.aggregate_graph":
            self.counts["aggregate.calls"] += 1
            self.counts["aggregate.edges_out"] += result.num_edges
        elif name in ("paths.aggregated_sssp", "paths.mda_sssp"):
            kind = "dap" if name == "paths.aggregated_sssp" else "mda"
            self.counts[f"paths.{kind}_searches"] += 1
            self.counts["paths.nodes_settled"] += len(result.lengths)
        elif name == "analytics.path_stats":
            self.counts["analytics.calls"] += 1


def install(tracer: Tracer, package) -> None:
    """Swap every public layer function for a traced one, wherever bound.

    Modules import each other's functions by name (``from .paths import
    mda_sssp``), so each module's own binding is replaced, not just the
    defining one.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(package.__name__)]
    swaps = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ == module.__name__:
                swaps[fn] = tracer.wrap(f"{short}.{name}", fn)
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in swaps:
                setattr(module, name, swaps[value])


def run_main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    index = tracer.begin("import.layerpath")
    import layerpath
    import layerpath.cli

    tracer.end(index)
    install(tracer, layerpath)
    index = tracer.begin("cli.main")
    try:
        code = layerpath.cli.main(argv)
    finally:
        tracer.end(index)
        sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, out)
    return code


def _rows(path: str) -> list[tuple[int, int, str, float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(int(s), int(d), layer, float(w)) for s, d, layer, w in reader]


def _build(network_class, rows, labels):
    net = network_class(layers=labels)
    add_edge = net.add_edge
    for src, dst, layer, weight in rows:
        add_edge(src, dst, layer, weight)
    return net


def run_layers(edge_csv: str, out_path: str, heap: bool) -> int:
    from layerpath.core import MultiLayeredNetwork

    rows = _rows(edge_csv)
    labels = list(dict.fromkeys(row[2] for row in rows))
    gc.collect()
    start = time.perf_counter()
    net = _build(MultiLayeredNetwork, rows, labels)
    built = time.perf_counter()
    net.seal()
    sealed = time.perf_counter()
    report = {"core.build_s": built - start, "core.seal_s": sealed - built}
    if heap:
        import tracemalloc

        del net
        gc.collect()
        tracemalloc.start()
        net = _build(MultiLayeredNetwork, rows, labels).seal()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        report["core.heap_bytes_per_edge"] = held / net.num_edges
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "main" and argv[2] == "--":
        return run_main(argv[1], argv[3:])
    if len(argv) in (3, 4) and argv[0] == "layers" and argv[3:] in ([], ["--heap"]):
        return run_layers(argv[1], argv[2], heap=len(argv) == 4)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
