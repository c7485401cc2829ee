"""CSV edge-list ingestion and export.

The interchange format is a plain CSV file with the exact header
``src,dst,layer,weight`` and one directed layered edge per row. Node ids are
non-negative integers written as plain ASCII digits, layer labels are
arbitrary non-empty UTF-8 strings (indexed in order of first appearance),
weights are floats in [0, 1] written in ASCII without ``_`` separators, and
dumps write them with ``repr`` so a dump/load round trip reproduces the same
values bit for bit.

Loading streams: a generator checks each row's text and streams the row
into ``MultiLayeredNetwork.add_edges``, and no row is kept. The generator
checks only the text (header, field count, node ids, weights, labels, the
csv module's field size limit) and raises ``ParseError``; the network
enforces the graph rules (loops, out-of-range weights, duplicate triples) and
the loader re-raises its error with the location prepended.
Locations are ``file:line`` with the physical line on which the offending
row ends, so quoted fields that span lines do not shift later positions.
Duplicate (src, dst, layer) triples can alternatively be merged by keeping
the largest weight.
"""

from __future__ import annotations

import csv
import os

from .core import (  # the policy names stay importable from here too
    ON_DUPLICATE_ERROR,
    ON_DUPLICATE_KEEP_MAX,
    POSITIVE,
    MultiLayeredNetwork,
    parse_natural,
    parse_real,
)
from .errors import EmptyFileError, GraphError, ParseError

HEADER = ("src", "dst", "layer", "weight")


def load_edge_list(
    path,
    *,
    polarity: str = POSITIVE,
    on_duplicate: str = ON_DUPLICATE_ERROR,
) -> MultiLayeredNetwork:
    """Read a CSV edge list and return the sealed network it describes.

    ``on_duplicate`` is passed to ``MultiLayeredNetwork.add_edges``: ``"error"``
    raises at the second occurrence of a (src, dst, layer) triple,
    ``"keep-max"`` keeps the largest weight seen. Every error message carries
    the file name and the physical 1-based line number of the offending row.
    """
    display = os.fspath(path)
    net = MultiLayeredNetwork(polarity=polarity)
    # bytes that are not UTF-8 become lone surrogates, caught on their row by
    # the ASCII checks of ids and weights and the UTF-8 check of labels
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            # the network raises on the row the reader has just read, so
            # reader.line_num is still that row's line
            net.add_edges(_edge_rows(reader, net), on_duplicate=on_duplicate)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(f"{display}:{reader.line_num}: {exc}") from None
        except (ParseError, GraphError) as exc:
            raise type(exc)(f"{display}:{reader.line_num}: {exc}") from None

    if reader.line_num == 0:  # not even a header line
        raise EmptyFileError(f"{display}: file is empty")
    if not net.num_edges:
        raise EmptyFileError(f"{display}: no edge rows after the header")
    return net.seal()


def _edge_rows(reader, net: MultiLayeredNetwork):
    """Check the header, then yield ``(src, dst, label, weight)`` per data row.

    Only the text is checked here. Each distinct id text is parsed once and
    each distinct label text resolved once, registering its layer on ``net``
    the first time.
    """
    header = next(reader, None)
    if header is None:
        return
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}")
    ids: dict[str, int] = {}  # id text -> node id
    # label text -> registered label; a label is its own stripped text, so
    # it is a key itself once registered
    labels: dict[str, str] = {}
    for row in reader:
        if not row:
            continue  # tolerate blank lines, e.g. a trailing newline
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}")
        src_text, dst_text, label_text, weight_text = row
        try:
            src = ids.get(src_text)
            if src is None:
                src = ids[src_text] = parse_natural(src_text.strip())
            dst = ids.get(dst_text)
            if dst is None:
                dst = ids[dst_text] = parse_natural(dst_text.strip())
            label = labels.get(label_text)
            fresh = label is None
            if fresh:
                label = label_text.strip()
                if not label:
                    raise ParseError("empty layer label")
            weight = parse_real(weight_text.strip())
        except ValueError as exc:  # id or weight text
            raise ParseError(str(exc)) from None
        if fresh:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"layer label {label!r} is not valid UTF-8") from None
            if label not in labels:
                net.add_layer(label)
                labels[label] = label
            labels[label_text] = label
        yield src, dst, label, weight


def write_edge_csv(net: MultiLayeredNetwork, stream) -> int:
    """Write the edge-list CSV to an open text stream; returns the row count.

    Rows are sorted by (src, dst, layer label) so equal networks produce
    byte-identical output no matter how they were built or what dense indices
    their layers happen to carry. Weights are written with ``repr``, the
    shortest string that parses back to the same float.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HEADER)
    # a network holds one edge per (src, dst, label), so the tuples sort by
    # that triple and the weight is never compared
    edges = sorted(net.edge_set())
    for src, dst, label, weight in edges:
        writer.writerow((src, dst, label, repr(weight)))
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
