"""The commands checked against each other on drawn edge lists, in process and on forced ranks.

Each example writes a small edge list and runs ``sssp`` (dap and mda,
``--paths``, CSV and JSON), ``sweep --source`` and ``apsp`` (both
strategies) through ``cli.main`` twice: on one CPU, where every job runs in
process, and with every job forced onto two forked ranks. The two runs must
write the same stdout, and so must dap and mda; both runs' Floyd-Warshall
entries must be the repeated-Dijkstra ones within criterion 4's tolerance,
their rows in the header's order. In process only, since
the forced runs above already tie each command to its in-process bytes,
``aggregate-export`` must keep as many pairs at each cell as ``sweep``
counts there, each at ``aggregate.distance``, every ``sssp --paths``
length must be the ``apsp --strategy repeated-dijkstra`` entry, and every
path, CSV and JSON, must run from its source to its target over pairs
``aggregate-export`` keeps at its cell, their distances adding up, left to
right from 0.0, to its length exactly.
"""

import csv
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from layerpath import cells, distance, paths, workers
from layerpath.cli import main
from layerpath.edgelist import load_edge_list

# labels the edge list must quote: a comma, a quote, a line break
LABELS = ("a", "b,c", 'say "d"', "e\nf")
# exact in binary, so distinct paths often add up to the same length; 1.0
# (positive) and 0.0 (negative) give pairs of length 0.0
WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)
ALPHAS, BETAS = ("1", "2"), ("1.0", "0.5")
GRID = ("--alphas", ",".join(ALPHAS), "--betas", ",".join(BETAS))
TOL = 1e-12  # criterion 4's (test_acceptance.py): Floyd-Warshall against Dijkstra


@st.composite
def edge_lists(draw):
    """(polarity, edges): up to 14 ``(src, dst, label, weight)`` rows over 2-6 nodes."""
    nodes = draw(st.integers(2, 6))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    pairs = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    rows = st.tuples(pairs, st.sampled_from(labels), st.sampled_from(WEIGHTS))
    edges = draw(st.lists(rows, min_size=1, max_size=14))
    return draw(st.sampled_from(("positive", "negative"))), [
        (src, dst, label, weight) for (src, dst), label, weight in edges
    ]


def load_args(path, polarity):
    return (str(path), "--polarity", polarity, "--on-duplicate", "keep-max")


def write_edges(path, edges):
    with open(path, "w", encoding="utf-8", newline="") as out:
        csv.writer(out, lineterminator="\n").writerows([("src", "dst", "layer", "weight"), *edges])


def sources_of(edges):
    return ",".join(map(str, sorted({v for src, dst, _, _ in edges for v in (src, dst)})))


def argvs(path, polarity, sources):
    """name -> argv of every command the check runs on ``path``."""
    load = load_args(path, polarity)
    sssp = ("sssp", *load, "--source", sources, *GRID, "--paths")
    return {
        **{
            f"sssp-{strategy}-{fmt}": (*sssp, "--strategy", strategy, "--format", fmt)
            for strategy in ("dap", "mda")
            for fmt in ("csv", "json")
        },
        "sweep": ("sweep", *load, *GRID, "--source", sources),
        "apsp-fw": ("apsp", *load),
        "apsp-rd": ("apsp", *load, "--strategy", "repeated-dijkstra"),
    }


# the processes each command forks when every job is forced onto two ranks:
# a pool of two for the grid searches and for apsp's emitter, and a ring of
# two for Floyd-Warshall
FORCED_FORKS = {"sweep": 2, "apsp-fw": 4, "apsp-rd": 2} | {
    f"sssp-{strategy}-{fmt}": 2 for strategy in ("dap", "mda") for fmt in ("csv", "json")
}


def stdout_of(capsys, monkeypatch, argv, cpus):
    """(stdout, processes forked) of ``argv`` on ``cpus`` CPUs, every job forced to fork on two."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", fork)
        patch.setattr(workers, "available_cpus", lambda: cpus)  # where every job runs
        # every measured edge at its lowest, one row a block: forking always pays
        patch.setattr(cells, "_POOL_MIN_WORK", 0)
        patch.setattr(paths, "_FW_FORK_MIN_NODES", 0)
        patch.setattr(paths, "_FW_BLOCK_BYTES", 8)
        patch.setattr(workers, "_EMIT_FORK_MIN_ROWS", 0)
        code = main(list(argv))
        out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out, len(forks)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(edge_lists())
# 0->5->3 ties 0->1->3 at 1.0, and 5 settles first (test_paths.py)
@example(("positive", [(0, 5, "a", 0.75), (0, 1, "a", 0.5), (5, 3, "a", 0.25),
                       (1, 3, "a", 0.5)]))
def test_in_process_and_forced_ranks_write_the_same_bytes(capsys, monkeypatch, drawn):
    polarity, edges = drawn
    sources = sources_of(edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.csv")
        write_edges(path, edges)
        outputs = {}
        for name, argv in argvs(path, polarity, sources).items():
            alone, none = stdout_of(capsys, monkeypatch, argv, cpus=1)
            forced, forked = stdout_of(capsys, monkeypatch, argv, cpus=2)
            assert (none, forked) == (0, FORCED_FORKS[name]), name
            outputs[name] = alone, forced
    for name, (alone, forced) in outputs.items():
        assert forced == alone, name
    for fmt in ("csv", "json"):
        assert outputs[f"sssp-dap-{fmt}"] == outputs[f"sssp-mda-{fmt}"]
    for fw, rd in zip(outputs["apsp-fw"], outputs["apsp-rd"]):
        assert_within_tolerance(fw, rd)


def assert_within_tolerance(fw, rd):
    """Floyd-Warshall's CSV matrix ``fw`` is repeated Dijkstra's ``rd`` within ``TOL``."""
    (head, *rows), (rd_head, *rd_rows) = (list(csv.reader(io.StringIO(text))) for text in (fw, rd))
    assert head == rd_head
    assert [src for src, *_ in rows] == [src for src, *_ in rd_rows] == head[1:]
    for (src, *row), (_, *rd_row) in zip(rows, rd_rows):
        for dst, got, want in zip(head[1:], map(float, row), map(float, rd_row)):
            if math.isinf(got) or math.isinf(want):
                assert got == want, (src, dst)
            else:
                assert abs(got - want) <= TOL, (src, dst)


def stdout(capsys, *argv):
    """What ``argv`` writes to stdout, in process."""
    assert main(list(argv)) == 0, argv
    out, err = capsys.readouterr()
    assert err == ""
    return out


def csv_rows(capsys, *argv):
    """The CSV rows ``argv`` writes to stdout, in process."""
    return list(csv.reader(io.StringIO(stdout(capsys, *argv))))


def assert_paths_walk_kept_pairs(paths_rows, kept):
    """Each (source, alpha, beta, target, length, path) row's path adds up to its length.

    ``kept`` maps each cell (alpha, beta) to its kept pairs' distances. A
    path is empty exactly when its length is ``inf``; otherwise it runs from
    the source to the target over kept pairs, and their distances, added
    left to right from 0.0, are its length.
    """
    for src, alpha, beta, target, length, path in paths_rows:
        if not path:
            assert length == math.inf, (src, target)
            continue
        assert (path[0], path[-1]) == (src, target)
        total = 0.0
        for hop in zip(path, path[1:]):
            total += kept[alpha, beta][hop]
        assert total == length, (src, target)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(edge_lists())
@example(("positive", [(0, 5, "a", 0.75), (0, 1, "a", 0.5), (5, 3, "a", 0.25),
                       (1, 3, "a", 0.5)]))
def test_exports_counts_and_lengths_agree_across_commands(capsys, monkeypatch, drawn):
    polarity, edges = drawn
    monkeypatch.setattr(workers, "available_cpus", lambda: 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.csv")
        write_edges(path, edges)
        load = load_args(path, polarity)
        net = load_edge_list(path, polarity=polarity, on_duplicate="keep-max")
        counts = {(a, b): int(count)
                  for a, b, count in csv_rows(capsys, "sweep", *load, *GRID)[1:]}
        sssp = ("sssp", *load, "--source", sources_of(edges), *GRID, "--paths")
        rows = csv_rows(capsys, *sssp)
        paths_rows = [(*row[:4], float(row[4]), row[5].split("->") if row[5] else [])
                      for row in rows[rows.index([]) + 2:]]
        lengths = {tuple(row[:4]): row[4] for row in paths_rows}
        paths_rows += [
            (*map(str, (r["source"], r["alpha"], r["beta"], r["target"])),
             math.inf if r["length"] is None else r["length"], list(map(str, r["path"])))
            for r in json.loads(stdout(capsys, *sssp, "--format", "json"))["paths"]
        ]
        kept = {}
        checked = 0
        for alpha in ALPHAS:
            for beta in BETAS:
                cell = ("--alpha", alpha, "--beta", beta)
                export = csv_rows(capsys, "aggregate-export", *load, *cell)[1:]
                assert len(export) == counts[alpha, beta]
                for src, dst, dist, _ in export:
                    assert float(dist) == distance(net, int(src), int(dst))
                kept[alpha, beta] = {(src, dst): float(dist) for src, dst, dist, _ in export}
                head, *matrix = csv_rows(capsys, "apsp", *load, *cell,
                                         "--strategy", "repeated-dijkstra")
                for src, *row in matrix:
                    for dst, entry in zip(head[1:], row):
                        if src != dst:
                            assert lengths[src, alpha, beta, dst] == float(entry)
                            checked += 1
        n = len(net.nodes)
        assert checked == len(ALPHAS) * len(BETAS) * n * (n - 1)
        assert len(paths_rows) == 2 * checked
        assert_paths_walk_kept_pairs(paths_rows, kept)
