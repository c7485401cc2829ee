"""End-to-end and per-layer benchmark of the ``layerpath`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with nothing to build. Each run generates its input from ``--seed``
(see ``inputs.py``), then drives the CLI in a closed loop with one client:
one subprocess at a time, the next started when the last has exited, for
``--seconds`` seconds. Every output is checked against ``oracle.py`` outside
the timed window, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` alternates the workload's CLI run with ``layerpath
load-summary`` on the same input and reports, as medians over the loop:

    wall_s       workload subprocess, spawn to exit
    setup_s      load-summary subprocess: interpreter start, import, CSV
                 parse, build and seal
    peak_rss_mb  the workload subprocess's own peak RSS, from wait4

``--trace 1`` alternates an untraced run, a traced run of the same argv
(``traced.py main``: spans around each module's public functions, counters
from their results) and a build/seal pass (``traced.py layers``), and
reports the per-layer metrics named in ``BENCHMARK.json``, each a layer's
self time (its spans minus their child spans) or an exact count.
``trace.overhead_s`` is the traced wall time minus the untraced one, paired
within each round.

Workloads, and the end-to-end metric each per-layer one should move:

    sssp-dap       sssp --strategy dap: one aggregate_graph call per
                   (source, alpha, beta), then Dijkstra. aggregate.* and
                   paths.dap_* move wall_s here.
    sssp-mda       the same input and argv with --strategy mda. No
                   aggregation at all, so aggregate.* changes should leave it
                   unchanged. Its stdout must equal sssp-dap's byte for byte,
                   and paths.nodes_settled must equal sssp-dap's.
    apsp-fw        apsp with Floyd-Warshall: the O(n^3) numpy kernel and a
                   dense CSV matrix; paths.floyd_warshall_s and cli.self_s.
    ingest-export  aggregate-export on the largest net: a bulk build and
                   seal, one aggregation over every pair, and many rows
                   written. core.* and edgelist.* move setup_s everywhere
                   and wall_s here; core.heap_bytes_per_edge moves
                   peak_rss_mb here.

Each record, with the machine, the input shape, the CPU steal time and every
sample, is also written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from inputs import NetSpec, generate, pick_sources, write_csv  # noqa: E402
from oracle import Oracle, check_apsp, check_export, check_sssp  # noqa: E402

SPAWN_TIMEOUT_S = 120.0
MIN_ROUNDS = 3
# stop starting rounds here, so a slow machine still exits within 180 s
HARD_STOP_S = 130.0

SOCIAL_10K = NetSpec("social-10k", 10_000, 4)
SOCIAL_800 = NetSpec("social-800", 800, 15)
SOCIAL_20K = NetSpec("social-20k", 20_000, 4)

SSSP_SOURCES = 8
ALPHAS = (1, 2, 3)
BETAS = (0.75, 1.0)


def _sssp_argv(strategy: str):
    def argv(csv_path: str, sources: list[int]) -> list[str]:
        return [
            "sssp", csv_path,
            "--source", ",".join(map(str, sources)),
            "--alphas", ",".join(map(str, ALPHAS)),
            "--betas", ",".join(map(str, BETAS)),
            "--strategy", strategy,
        ]

    return argv


def _check_sssp(text, oracle, sources):
    return check_sssp(text, oracle, sources, ALPHAS, BETAS)


@dataclass(frozen=True)
class Workload:
    spec: NetSpec
    argv: Callable[[str, list[int]], list[str]]
    check: Callable[[str, Oracle, list[int]], list[str]]
    sources: int = 0
    # a workload whose stdout must match this one's byte for byte
    twin: str | None = None


WORKLOADS = {
    "sssp-dap": Workload(SOCIAL_10K, _sssp_argv("dap"), _check_sssp, SSSP_SOURCES, "sssp-mda"),
    "sssp-mda": Workload(SOCIAL_10K, _sssp_argv("mda"), _check_sssp, SSSP_SOURCES, "sssp-dap"),
    "apsp-fw": Workload(
        SOCIAL_800,
        lambda path, _: ["apsp", path],
        lambda text, oracle, _: check_apsp(text, oracle, 1, 1.0),
    ),
    "ingest-export": Workload(
        SOCIAL_20K,
        lambda path, _: ["aggregate-export", path, "--alpha", "2", "--beta", "1.0"],
        lambda text, oracle, _: check_export(text, oracle, 2, 1.0),
    ),
}


# -- subprocesses -----------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


class Runner:
    """Runs one child at a time through ``launcher.py``; counts failures."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=work,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            text=True,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def spawn(self, argv: list[str], stdout: Path) -> Sample:
        """Run ``argv`` to completion: wall time and this child's peak RSS."""
        request = {"argv": argv, "stdout": str(stdout), "timeout_s": SPAWN_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        return Sample(**json.loads(self._launcher.stdout.readline()))

    def cli(self, argv: list[str], stdout: Path) -> Sample:
        return self.spawn([sys.executable, "-m", "layerpath.cli", *argv], stdout)

    def traced(self, mode_argv: list[str], stdout: Path) -> Sample:
        return self.spawn([sys.executable, str(HERE / "traced.py"), *mode_argv], stdout)

    def record(self, sample: Sample, what: str, problems: list[str] = ()) -> bool:
        """Count one attempted operation; True when it succeeded."""
        self.attempted += 1
        if not sample.ok:
            problems = [f"{what}: exit code {sample.code}" + (" (timeout)" if sample.timed_out else "")]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return False
        return True


class OutputCheck:
    """Checks one workload's stdout: oracle once, then sha256 equality."""

    def __init__(self, workload: Workload, oracle: Oracle, sources: list[int]) -> None:
        self.workload = workload
        self.oracle = oracle
        self.sources = sources
        self.sha256: str | None = None
        self.verdict: list[str] = []

    def __call__(self, path: Path) -> list[str]:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256 is None:
            self.sha256 = digest
            self.verdict = self.workload.check(data.decode("utf-8"), self.oracle, self.sources)
            return self.verdict
        if digest != self.sha256:
            return [f"stdout sha256 {digest} differs from this run's first {self.sha256}"]
        return self.verdict


def summary_check(shape: dict) -> Callable[[Path], list[str]]:
    want = [f"nodes: {shape['nodes']}", f"edges: {shape['layered_edges']}"]

    def check(path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        missing = [w for w in want if w not in lines]
        return [f"load-summary: missing {missing}"] if missing else []

    return check


# -- the two kinds of run ---------------------------------------------------


def rounds(seconds: float, started: float):
    """Yield round numbers for a closed loop lasting ``seconds``."""
    count = 0
    while True:
        yield count
        count += 1
        elapsed = time.perf_counter() - started
        if count >= MIN_ROUNDS and elapsed >= seconds or elapsed >= HARD_STOP_S:
            return


def timed_run(runner: Runner, argv, check: OutputCheck, csv_path: str, shape, seconds):
    """Alternate the workload and load-summary; returns per-metric samples."""
    out = runner.work / "stdout.txt"
    summary_out = runner.work / "summary.txt"
    check_summary = summary_check(shape)
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    started = time.perf_counter()
    for _ in rounds(seconds, started):
        sample = runner.cli(argv, out)
        if runner.record(sample, "workload", check(out) if sample.ok else []):
            samples["wall_s"].append(sample.wall_s)
            samples["peak_rss_mb"].append(sample.rss_mb)
        sample = runner.cli(["load-summary", csv_path], summary_out)
        if runner.record(sample, "load-summary", check_summary(summary_out) if sample.ok else []):
            samples["setup_s"].append(sample.wall_s)
    return samples


def self_times(spans: list[list]) -> dict[str, float]:
    """Each span name's total duration minus what its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


LAYER_SPANS = {
    "import.layerpath_s": ("import.layerpath",),
    "edgelist.load_edge_list_s": ("edgelist.load_edge_list",),
    "aggregate.aggregate_graph_s": ("aggregate.aggregate_graph",),
    "paths.dap_search_s": ("paths.aggregated_sssp",),
    "paths.mda_search_s": ("paths.mda_sssp",),
    "paths.floyd_warshall_s": ("paths.ml_floyd_warshall",),
    "analytics.path_stats_s": ("analytics.path_stats",),
    "cli.self_s": ("cli.main",),
}
COUNTS = (
    "aggregate.calls",
    "paths.dap_searches",
    "paths.mda_searches",
    "paths.nodes_settled",
    "analytics.calls",
)


def traced_once(runner: Runner, argv: list[str], stdout: Path) -> tuple[Sample, dict | None]:
    spans_path = runner.work / "spans.json"
    spans_path.unlink(missing_ok=True)
    sample = runner.traced(["main", str(spans_path), "--", *argv], stdout)
    if not sample.ok or not spans_path.exists():
        return sample, None
    return sample, json.loads(spans_path.read_text(encoding="utf-8"))


def traced_run(runner: Runner, argv, check: OutputCheck, csv_path: str, pairs: int, seconds):
    """Alternate untraced, traced and build/seal runs; per-layer samples."""
    out = runner.work / "stdout.txt"
    traced_out = runner.work / "traced_stdout.txt"
    layers_path = runner.work / "layers.json"
    samples: dict[str, list[float]] = {}
    untraced_walls, traced_walls = [], []
    counts = None
    output_bytes = 0

    def add(name, value):
        samples.setdefault(name, []).append(value)

    started = time.perf_counter()
    for index in rounds(seconds, started):
        sample = runner.cli(argv, out)
        untraced = sample if runner.record(sample, "workload", check(out) if sample.ok else []) else None
        if untraced:
            untraced_walls.append(untraced.wall_s)

        sample, trace = traced_once(runner, argv, traced_out)
        problems = check(traced_out) if sample.ok else []
        if sample.ok and trace is None:
            problems = ["traced run wrote no spans"]
        if trace is not None and counts is not None and trace["counts"] != counts:
            problems = problems + [f"counters changed between rounds: {trace['counts']}"]
        if runner.record(sample, "traced workload", problems):
            counts = trace["counts"]
            traced_walls.append(sample.wall_s)
            times = self_times(trace["spans"])
            for metric, names in LAYER_SPANS.items():
                add(metric, sum(times.get(name, 0.0) for name in names))
            output_bytes = traced_out.stat().st_size
            if untraced:
                # paired within a round, so slow drift in machine speed cancels
                add("trace.overhead_s", sample.wall_s - untraced.wall_s)

        layer_argv = ["layers", csv_path, str(layers_path)] + (["--heap"] if index == 0 else [])
        sample = runner.traced(layer_argv, runner.work / "layers_stdout.txt")
        if runner.record(sample, "build/seal pass"):
            for metric, value in json.loads(layers_path.read_text(encoding="utf-8")).items():
                add(metric, value)

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    for name in ("edgelist.load_edge_list_s", "core.build_s", "core.seal_s"):
        metrics.setdefault(name, 0.0)
    metrics["edgelist.parse_s"] = (
        metrics["edgelist.load_edge_list_s"] - metrics["core.build_s"] - metrics["core.seal_s"]
    )
    counts = counts or {}
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    calls = metrics["aggregate.calls"]
    metrics["aggregate.kept_ratio"] = (
        counts.get("aggregate.edges_out", 0) / (calls * pairs) if calls else 0.0
    )
    metrics["cli.output_bytes"] = output_bytes
    samples["wall_s (untraced)"] = untraced_walls
    samples["wall_s (traced)"] = traced_walls
    return metrics, samples, counts


# -- run bookkeeping ---------------------------------------------------------


def cpu_steal_s() -> float | None:
    """Machine-wide CPU steal time so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def source_tree_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def pinned_sha(store: Path, key: str, sha: str | None) -> list[str]:
    """The first stdout sha256 seen for ``key`` must repeat on later runs."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if sha is None:
        return []
    if known.setdefault(key, sha) != sha:
        return [f"stdout sha256 {sha} differs from {known[key]}, seen earlier for {key}"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return []


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} values={values}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median={q2:.6g} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g} n={len(values)}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workload: Workload, work: Path, runner: Runner) -> dict:
    """One benchmark run: inputs, closed loop, output checks; the record."""
    net = generate(workload.spec, args.seed)
    csv_path = work / "input.csv"
    write_csv(net, csv_path)
    shape = net.shape()
    oracle = Oracle(net)
    sources = []
    if workload.sources:
        # sources from one strongly connected core, so that every seed's
        # searches settle about as many nodes; outside it a source can reach
        # almost nothing at alpha >= 2
        core = oracle.core_nodes(max(ALPHAS) - 1, min(BETAS))
        sources = pick_sources(core, workload.sources, args.seed)
    argv = workload.argv(str(csv_path), sources)
    check = OutputCheck(workload, oracle, sources)

    # warm-up, untimed: byte-compiles the sources and fills the page cache
    warm = runner.cli(["load-summary", str(csv_path)], work / "summary.txt")
    runner.record(warm, "warm-up load-summary", summary_check(shape)(work / "summary.txt") if warm.ok else [])

    steal_before = cpu_steal_s()
    if args.trace:
        metrics, samples, counts = traced_run(runner, argv, check, str(csv_path), net.num_pairs, args.seconds)
    else:
        samples = timed_run(runner, argv, check, str(csv_path), shape, args.seconds)
        metrics = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
        counts = None
    steal_after = cpu_steal_s()

    if workload.twin is not None:
        # the twin strategy, untimed: stdout byte for byte, same nodes settled
        twin_argv = WORKLOADS[workload.twin].argv(str(csv_path), sources)
        twin_out = work / "twin_stdout.txt"
        sample, trace = traced_once(runner, twin_argv, twin_out)
        problems = []
        if sample.ok:
            if hashlib.sha256(twin_out.read_bytes()).hexdigest() != check.sha256:
                problems.append(f"{workload.twin} stdout differs from {args.workload}")
            settled = trace["counts"].get("paths.nodes_settled") if trace else None
            if counts is not None and settled != counts.get("paths.nodes_settled"):
                problems.append(f"{workload.twin} settled {settled} nodes, not {counts.get('paths.nodes_settled')}")
        runner.record(sample, f"{workload.twin} cross-check", problems)

    tree = source_tree_sha256()
    pin = pinned_sha(
        work.parent / "stdout_sha256.json", f"{tree[:16]}/{args.workload}/seed={args.seed}", check.sha256
    )
    if pin:
        runner.failed += 1
        runner.problems.extend(pin)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "argv": ["layerpath", *argv[:1], "<input.csv>", *argv[2:]],
        "input": {"net": workload.spec.name, **shape},
        "machine": machine(),
        "cpu_steal_s": {
            "before": steal_before,
            "after": steal_after,
            "during": None if steal_before is None or steal_after is None else steal_after - steal_before,
        },
        "stdout_sha256": check.sha256,
        "source_sha256": tree,
        "counts": counts,
        "samples": samples,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "layerpath" / "cli.py").is_file() or not bench.is_file():
        print(f"error: no layerpath source tree under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(bench.read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".bench_build" / "perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    try:
        record = measure(args, WORKLOADS[args.workload], work, runner)
    finally:
        runner.close()
    results = work.parent / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    metrics = record["metrics"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {args.seconds:g} s")
    print("input " + json.dumps(record["input"]))
    print("machine " + json.dumps(record["machine"]) + " cpu_steal_s " + json.dumps(record["cpu_steal_s"]))
    for name, values in record["samples"].items():
        print(f"  {name}: {quartiles(values)}")
    for spec in declared:
        print(f"  {spec['name']} = {metrics.get(spec['name'], 0.0)!r} {spec['unit']}")
    print(f"  fail_ratio = {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted!r}")
    for problem in runner.problems[:20]:
        print(f"  FAILED: {problem}")
    print(f"stdout sha256 {record['stdout_sha256']}; record {record_path.relative_to(ROOT)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            spec["name"]: {"value": metrics.get(spec["name"], 0.0), "unit": spec["unit"]}
            for spec in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
