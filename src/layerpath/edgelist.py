"""CSV edge-list ingestion and export.

The interchange format is a plain CSV file with the exact header
``src,dst,layer,weight`` and one directed layered edge per row. Node ids are
non-negative integers written as plain ASCII digits, layer labels are
arbitrary non-empty strings (indexed in order of first appearance), weights
are floats in [0, 1] written with ``repr`` so a dump/load round trip
reproduces the same values bit for bit.

Loading is strict: malformed rows raise ``ParseError`` with a file:line
location, while rows that parse but violate graph rules (loops, duplicate
triples, out-of-range weights) raise the corresponding graph error, also
tagged with the offending line. Duplicate (src, dst, layer) triples can
alternatively be merged by keeping the largest weight.
"""

from __future__ import annotations

import csv
import os

from .core import MultiLayeredNetwork, POSITIVE, parse_node_id
from .errors import (
    DuplicateEdgeError,
    EmptyFileError,
    LoopEdgeError,
    ParameterError,
    ParseError,
    WeightOutOfRangeError,
)

HEADER = ("src", "dst", "layer", "weight")

ON_DUPLICATE_ERROR = "error"
ON_DUPLICATE_KEEP_MAX = "keep-max"
_DUPLICATE_POLICIES = (ON_DUPLICATE_ERROR, ON_DUPLICATE_KEEP_MAX)


def _parse_node(field: str, where: str) -> int:
    try:
        return parse_node_id(field.strip())
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_weight(field: str, where: str) -> float:
    text = field.strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{where}: weight {text!r} is not a number") from None
    # NaN fails both comparisons, so it lands here as well
    if not 0.0 <= value <= 1.0:
        raise WeightOutOfRangeError(f"{where}: weight {value!r} outside [0, 1]")
    return value


def load_edge_list(
    path,
    *,
    polarity: str = POSITIVE,
    on_duplicate: str = ON_DUPLICATE_ERROR,
) -> MultiLayeredNetwork:
    """Read a CSV edge list and return the sealed network it describes.

    ``on_duplicate`` selects what happens when the same (src, dst, layer)
    triple appears twice: ``"error"`` raises at the second occurrence,
    ``"keep-max"`` keeps the largest weight seen. Every error message carries
    the file name and 1-based line number of the offending row.
    """
    if on_duplicate not in _DUPLICATE_POLICIES:
        raise ParameterError(
            f"on_duplicate must be one of {_DUPLICATE_POLICIES}, got {on_duplicate!r}"
        )
    display = os.fspath(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyFileError(f"{display}: file is empty")
        if tuple(h.strip() for h in header) != HEADER:
            raise ParseError(
                f"{display}:1: expected header {','.join(HEADER)!r}, "
                f"got {','.join(header)!r}"
            )

        rows: list[list] = []  # [src, dst, label, weight], weight mutable
        seen: dict[tuple[int, int, str], int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate blank lines, e.g. a trailing newline
            where = f"{display}:{lineno}"
            if len(row) != 4:
                raise ParseError(f"{where}: expected 4 fields, got {len(row)}")
            src = _parse_node(row[0], where)
            dst = _parse_node(row[1], where)
            label = row[2].strip()
            if not label:
                raise ParseError(f"{where}: empty layer label")
            weight = _parse_weight(row[3], where)
            if src == dst:
                raise LoopEdgeError(f"{where}: loop edge {src} -> {dst}")
            key = (src, dst, label)
            if key in seen:
                if on_duplicate == ON_DUPLICATE_ERROR:
                    raise DuplicateEdgeError(
                        f"{where}: duplicate edge {src} -> {dst} "
                        f"on layer {label!r}"
                    )
                prior = rows[seen[key]]
                prior[3] = max(prior[3], weight)
            else:
                seen[key] = len(rows)
                rows.append([src, dst, label, weight])

    if not rows:
        raise EmptyFileError(f"{display}: no edge rows after the header")

    net = MultiLayeredNetwork(polarity=polarity)
    for src, dst, label, weight in rows:
        if not net.has_layer(label):
            net.add_layer(label)
        net.add_edge(src, dst, label, weight)
    return net.seal()


def write_edge_csv(net: MultiLayeredNetwork, stream) -> int:
    """Write the edge-list CSV to an open text stream; returns the row count.

    Rows are sorted by (src, dst, layer label) so equal networks produce
    byte-identical output no matter how they were built or what dense indices
    their layers happen to carry. Weights are written with ``repr``, the
    shortest string that parses back to the same float.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HEADER)
    edges = sorted(net.edges(), key=lambda e: (e.src, e.dst, e.layer.label))
    for edge in edges:
        writer.writerow((edge.src, edge.dst, edge.layer.label, repr(edge.weight)))
    return len(edges)


def dump_edge_list(net: MultiLayeredNetwork, path) -> int:
    """Write the network as a CSV edge list file; returns the row count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        return write_edge_csv(net, handle)


def format_load_summary(net: MultiLayeredNetwork, name: str | None = None) -> str:
    """Human-readable one-network overview used by the command line."""
    lines = []
    if name:
        lines.append(f"edge list: {name}")
    lines.append(f"polarity: {net.polarity}")
    lines.append(f"nodes: {net.num_nodes}")
    lines.append(f"layers: {net.num_layers}")
    for lid, count in zip(net.layers, net.layer_edge_counts()):
        lines.append(f"  {lid.label}: {count} edges")
    lines.append(f"edges: {net.num_edges}")
    return "\n".join(lines)
