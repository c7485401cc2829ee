"""Command line front end.

Commands: ``load-summary``, ``sssp``, ``apsp``, ``sweep``, ``bench``,
``generate``, ``aggregate-export``. Every command reads one edge-list CSV
(except ``generate``, which writes one) and emits CSV, JSON, or plain text to
stdout or ``-o``. Emissions are deterministic for identical inputs and
flags: rows are keyed by ascending node id, grids keep the order they were
given in.

Exit codes: 0 success; 1 stdout closed before the output was written (e.g.
piped into ``head``), with no message, or a worker process of ``sssp`` or
``sweep`` died, with a traceback; 2 usage errors (bad flags, unknown
source node, invalid thresholds); 3 input errors (unreadable, malformed, or
rule-breaking edge lists); 4 size-guard refusals.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager

from .aggregate import AggregationParams, aggregate_graph
from .analytics import STATS_COLUMNS, edge_count_sweep
from .bench import benchmark, format_bench_report
from .core import NEGATIVE, POSITIVE, MultiLayeredNetwork, parse_natural, parse_real
from .edgelist import (
    ON_DUPLICATE_ERROR,
    ON_DUPLICATE_KEEP_MAX,
    format_load_summary,
    load_edge_list,
    write_edge_csv,
)
from .errors import (
    GraphError,
    ParameterError,
    ParseError,
    SizeGuardExceededError,
    UnknownNodeError,
)
from .generate import random_network
from .paths import DEFAULT_APSP_NODE_CAP, apsp_repeated_dijkstra, ml_floyd_warshall

FLOYD_WARSHALL = "floyd-warshall"
REPEATED_DIJKSTRA = "repeated-dijkstra"


# -- small plumbing --------------------------------------------------------


def _text_of(parse, what: str):
    """argparse type for one ``what`` parsed by ``core.parse_natural``/``parse_real``."""
    def value(text: str):
        try:
            return parse(text.strip(), what)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return value


def _list_of(parse, what: str):
    """argparse type for a comma-separated list of ``what``; blank parts are skipped."""
    one = _text_of(parse, what)
    return lambda text: [one(part) for part in text.split(",") if part.strip() != ""]


@contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _json_length(value: float):
    return value if math.isfinite(value) else None


def _load(args) -> MultiLayeredNetwork:
    return load_edge_list(
        args.path, polarity=args.polarity, on_duplicate=args.on_duplicate
    )


def _sources_from(args, net: MultiLayeredNetwork) -> list[int]:
    flat: list[int] = []
    for group in args.source or []:
        flat.extend(group)
    sources = sorted(set(flat))
    for source in sources:
        if not net.has_node(source):
            raise UnknownNodeError(f"unknown source node {source}")
    return sources


# -- commands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    net = random_network(
        args.nodes,
        args.layers,
        args.density,
        seed=args.seed,
        polarity=args.polarity,
    )
    if not net.num_edges:  # an edge list needs at least one edge to load
        raise ParameterError(
            f"--density {args.density} gives no edges on {args.nodes} nodes; "
            "raise --density"
        )
    with _out_stream(args.output) as out:
        write_edge_csv(net, out)
    return 0


def cmd_load_summary(args) -> int:
    net = _load(args)
    with _out_stream(args.output) as out:
        out.write(format_load_summary(net, name=args.path) + "\n")
    return 0


def cmd_sssp(args) -> int:
    net = _load(args)
    sources = _sources_from(args, net)
    if not sources:
        raise ParameterError("sssp requires at least one --source")
    alphas = args.alphas if args.alphas is not None else [args.alpha]
    betas = args.betas if args.betas is not None else [args.beta]
    if not alphas or not betas:
        raise ParameterError("sssp requires non-empty --alphas and --betas grids")
    cells = [AggregationParams(alpha, beta) for alpha in alphas for beta in betas]
    targets = sorted(net.nodes) if args.paths else []

    from .cells import run_cells  # loaded by the grid searches alone

    # computed cell by cell, read out source-major
    per_cell = run_cells(net, cells, sources, args.strategy, targets, args.format)
    per_source = [slot for slots in zip(*per_cell) for slot in slots]
    stats_rows = [stats for stats, _ in per_source]

    with _out_stream(args.output) as out:
        if args.format == "json":
            stats = json.dumps(
                {"stats": [dict(zip(STATS_COLUMNS, row)) for row in stats_rows]}, indent=2
            )
            if args.paths:
                # go on as json.dump would, with "paths" after "stats"; no
                # text is empty, since a loaded net has two nodes at least
                out.write(stats[: -len("\n}")] + ',\n  "paths": [\n')
                for i, (_, paths) in enumerate(per_source):
                    if i:
                        out.write(",\n")
                    out.write(paths)
                out.write("\n  ]\n}\n")
            else:
                out.write(stats + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(STATS_COLUMNS)
            writer.writerows(stats_rows)
            if args.paths:
                out.write("\n")
                writer.writerow(("source", "alpha", "beta", "target", "length", "path"))
                out.writelines(paths for _, paths in per_source)
    return 0


def cmd_apsp(args) -> int:
    net = _load(args)
    params = AggregationParams(args.alpha, args.beta)
    if args.strategy == REPEATED_DIJKSTRA:
        matrix = apsp_repeated_dijkstra(net, params, max_nodes=args.max_nodes)
    else:
        matrix = ml_floyd_warshall(net, params, max_nodes=args.max_nodes)

    with _out_stream(args.output) as out:
        if args.format == "json":
            payload = {
                "alpha": params.alpha,
                "beta": params.beta,
                "order": matrix.order,
                "matrix": [
                    [_json_length(v) for v in row.tolist()] for row in matrix.values
                ],
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            # one string per row: float reprs and node ids never need CSV
            # quoting, so this is what csv.writer would write; a row at a
            # time, since the whole matrix as lists holds n*n float objects
            out.write(f"src,{','.join(map(str, matrix.order))}\n")
            for node, row in zip(matrix.order, matrix.values):
                out.write(f"{node},{','.join(map(repr, row.tolist()))}\n")
    return 0


def cmd_sweep(args) -> int:
    net = _load(args)
    sources = _sources_from(args, net)  # before the sweep, which reads every pair
    report = edge_count_sweep(net, args.alphas, args.betas)

    stats_rows = []
    if sources:  # cell-major, unlike sssp
        from .cells import run_cells

        cells = [AggregationParams(a, b) for a in report.alphas for b in report.betas]
        for slots in run_cells(net, cells, sources, "dap"):
            stats_rows.extend(stats for stats, _ in slots)

    with _out_stream(args.output) as out:
        if args.format == "json":
            payload: dict = {
                "alphas": list(report.alphas),
                "betas": list(report.betas),
                "counts": [list(row) for row in report.counts],
            }
            if sources:
                payload["stats"] = [
                    dict(zip(STATS_COLUMNS, row)) for row in stats_rows
                ]
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("alpha", "beta", "num_edges"))
            for i, alpha in enumerate(report.alphas):
                for j, beta in enumerate(report.betas):
                    writer.writerow((alpha, beta, report.counts[i][j]))
            if sources:
                out.write("\n")
                writer.writerow(STATS_COLUMNS)
                writer.writerows(stats_rows)
    return 0


def cmd_bench(args) -> int:
    # flags first: a bad one should not wait for a large file to load
    if args.reps < 3:
        raise ParameterError(f"bench requires --reps >= 3, got {args.reps}")
    if args.default_sources < 1:
        raise ParameterError(
            f"bench requires --default-sources >= 1, got {args.default_sources}"
        )
    net = _load(args)
    # a loaded network has at least one edge, so this is never empty
    sources = _sources_from(args, net) or sorted(net.nodes)[: args.default_sources]
    params = AggregationParams(args.alpha, args.beta)
    report = benchmark(net, sources, params, reps=args.reps)
    with _out_stream(args.output) as out:
        out.write(format_bench_report(report) + "\n")
    return 0


def cmd_aggregate_export(args) -> int:
    net = _load(args)
    rows = aggregate_graph(net, AggregationParams(args.alpha, args.beta)).priced_pairs
    # by (src, dst), source by source: dst is unique within a row, so the
    # row's (dst, count, distance) tuples sort by dst
    edges = (
        (src, dst, dist, count)
        for src in sorted(rows)
        for dst, count, dist in sorted(rows[src])
    )
    with _out_stream(args.output) as out:
        if args.format == "json":
            payload = [
                {"src": src, "dst": dst, "distance": dist, "layer_count": count}
                for src, dst, dist, count in edges
            ]
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("src", "dst", "distance", "layer_count"))
            writer.writerows(edges)
    return 0


# -- parser -----------------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="edge-list CSV (header src,dst,layer,weight)")
    p.add_argument(
        "--polarity",
        choices=(POSITIVE, NEGATIVE),
        default=POSITIVE,
        help="how raw weights are read (default: positive)",
    )
    p.add_argument(
        "--on-duplicate",
        choices=(ON_DUPLICATE_ERROR, ON_DUPLICATE_KEEP_MAX),
        default=ON_DUPLICATE_ERROR,
        help="duplicate (src,dst,layer) policy (default: error)",
    )


def _add_output_args(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    if formats:
        p.add_argument(
            "--format", choices=formats, default=formats[0],
            help=f"output format (default: {formats[0]})",
        )
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")


def _add_threshold_args(p: argparse.ArgumentParser, grids: bool = False) -> None:
    p.add_argument("--alpha", type=_text_of(parse_natural, "alpha"), default=1,
                   help="layer-count threshold (default: 1)")
    p.add_argument("--beta", type=_text_of(parse_real, "beta"), default=1.0,
                   help="distance threshold (default: 1.0)")
    if grids:
        p.add_argument("--alphas", type=_list_of(parse_natural, "alpha"), default=None,
                       help="comma-separated alpha grid, overrides --alpha")
        p.add_argument("--betas", type=_list_of(parse_real, "beta"), default=None,
                       help="comma-separated beta grid, overrides --beta")


def _add_source_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--source", action="append", type=_list_of(parse_natural, "node id"), default=None,
        metavar="NODES",
        help="source node id(s); repeatable, comma lists allowed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerpath",
        description="Shortest paths in multi-layered directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random multi-layer edge list")
    p.add_argument("--nodes", type=_text_of(parse_natural, "node count"), required=True)
    p.add_argument("--layers", type=_text_of(parse_natural, "layer count"), required=True)
    p.add_argument("--density", type=_text_of(parse_real, "density"), required=True,
                   help="per-layer edge density in [0,1]")
    p.add_argument("--seed", type=_text_of(parse_natural, "seed"), default=None)
    p.add_argument("--polarity", choices=(POSITIVE, NEGATIVE), default=POSITIVE)
    _add_output_args(p, formats=())
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("load-summary", help="parse an edge list and print its shape")
    _add_input_args(p)
    _add_output_args(p, formats=())
    p.set_defaults(func=cmd_load_summary)

    p = sub.add_parser("sssp", help="single-source shortest paths and stats")
    _add_input_args(p)
    _add_threshold_args(p, grids=True)
    _add_source_arg(p)
    p.add_argument("--strategy", choices=("dap", "mda"), default="dap",
                   help="preprocessing (dap) or on-the-fly (mda) search")
    p.add_argument("--paths", action="store_true",
                   help="also emit the full per-target path dump")
    _add_output_args(p)
    p.set_defaults(func=cmd_sssp)

    p = sub.add_parser("apsp", help="all-pairs shortest path matrix")
    _add_input_args(p)
    _add_threshold_args(p)
    p.add_argument("--strategy", choices=(FLOYD_WARSHALL, REPEATED_DIJKSTRA),
                   default=FLOYD_WARSHALL)
    p.add_argument("--max-nodes", type=_text_of(parse_natural, "node cap"),
                   default=DEFAULT_APSP_NODE_CAP,
                   help=f"size guard (default: {DEFAULT_APSP_NODE_CAP})")
    _add_output_args(p)
    p.set_defaults(func=cmd_apsp)

    p = sub.add_parser("sweep", help="aggregated edge counts over a threshold grid")
    _add_input_args(p)
    p.add_argument("--alphas", type=_list_of(parse_natural, "alpha"), required=True,
                   help="comma-separated alpha grid")
    p.add_argument("--betas", type=_list_of(parse_real, "beta"), required=True,
                   help="comma-separated beta grid")
    _add_source_arg(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time preprocessing vs on-the-fly search")
    _add_input_args(p)
    _add_threshold_args(p)
    _add_source_arg(p)
    p.add_argument("--reps", type=_text_of(parse_natural, "repetition count"), default=3,
                   help="repetitions, >= 3")
    p.add_argument("--default-sources", type=_text_of(parse_natural, "source count"),
                   default=10,
                   help="how many lowest node ids to use when --source is absent")
    _add_output_args(p, formats=())
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("aggregate-export", help="export the aggregated edge set")
    _add_input_args(p)
    _add_threshold_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_aggregate_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; fold --help's exit in
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`), as in the SIGPIPE recipe of the
        # Python docs: point stdout at devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SizeGuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UnknownNodeError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
