"""Edge-list parsing, export round trips, and the random generator."""

import filecmp
import gc
import io
import random
import tracemalloc

import pytest

from layerpath import (
    NEGATIVE,
    POSITIVE,
    DuplicateEdgeError,
    EmptyFileError,
    LoopEdgeError,
    MultiLayeredNetwork,
    ParameterError,
    ParseError,
    WeightOutOfRangeError,
    dump_edge_list,
    format_load_summary,
    load_edge_list,
    random_network,
    write_edge_csv,
)
from netgen import build_net, write_load_peak_net
from oracles import oracle_priced_pairs

HEADER = "src,dst,layer,weight\n"


def write(tmp_path, text, name="edges.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_small_file(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,friends,0.5\n1,2,friends,0.25\n")
        net = load_edge_list(path)
        assert net.sealed
        assert net.num_nodes == 3
        assert net.num_layers == 1
        assert net.layers[0].label == "friends"
        assert dict(net.priced_pairs) == {0: (1, 1, 0.5), 1: (2, 1, 0.75)}

    def test_layers_indexed_by_first_appearance(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,z,0.5\n0,1,a,0.5\n1,0,z,0.5\n")
        net = load_edge_list(path)
        assert [l.label for l in net.layers] == ["z", "a"]
        assert [l.index for l in net.layers] == [0, 1]

    def test_polarity_passthrough(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,a,0.5\n")
        assert load_edge_list(path, polarity=NEGATIVE).polarity == NEGATIVE
        assert load_edge_list(path).polarity == POSITIVE

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,a,0.5\n\n1,2,a,0.5\n\n")
        assert load_edge_list(path).num_edges == 2

    def test_repr_weights_load_exactly(self, tmp_path):
        weights = [1e-05, 0.0, 1.0, 0.1 + 0.2]
        rows = "".join(f"0,{k + 1},a,{w!r}\n" for k, w in enumerate(weights))
        net = load_edge_list(write(tmp_path, HEADER + rows))
        assert [e.weight for e in net.edges()] == weights

    def test_padded_fields_are_stripped(self, tmp_path):
        # " a" and "a " are the label "a": one layer, and one triple with 0 -> 1
        rows = " 0 , 1 , a , 0.5 \n1,2,a,0.25\n2,3, a,0.125\n"
        net = load_edge_list(write(tmp_path, HEADER + rows))
        assert [l.label for l in net.layers] == ["a"]
        assert [(e.src, e.dst, e.weight) for e in net.edges()] == [
            (0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.125)
        ]
        with pytest.raises(DuplicateEdgeError, match=":5:"):
            load_edge_list(write(tmp_path, HEADER + rows + "0, 1 ,a  ,0.75\n"))

    def test_numeric_layer_labels_stay_labels(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,2,0.5\n")
        net = load_edge_list(path)
        assert net.layers[0].label == "2"
        assert net.layers[0].index == 0

    @pytest.mark.parametrize("weights", [(0.1, 0.2, 0.3), (0.3, 0.2, 0.1)])
    def test_pair_weights_are_summed_in_file_order(self, tmp_path, weights):
        # the pair's layers sit on non-adjacent rows; its price must add them
        # left to right in file order, and the two orders differ in the last bit
        rows = [f"0,1,{label},{w!r}\n2,3,{label},0.5\n" for label, w in zip("abc", weights)]
        net = load_edge_list(write(tmp_path, HEADER + "".join(rows)))
        first, second, third = weights
        expected = 1 - ((first + second) + third) / 3
        assert expected != 1 - ((third + second) + first) / 3
        assert net.priced_pairs[0] == (1, 3, expected)

    def test_loading_streams_rows_into_the_network(self, tmp_path):
        # no row buffer: the peak heap during the load stays close to the
        # peak of building and sealing the same network from rows that are
        # already in memory, whose weights become floats inside the traced
        # window as the loader's do (a load that lists its rows first reads
        # about 1.4x)
        rng = random.Random(3)
        rows = [
            (src, (src + 1 + 97 * k) % 1700, label, rng.random())
            for src in range(1700)
            for k in range(6)
            for label in "abc"[: k % 3 + 1]
        ]
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as out:
            out.write(HEADER)
            for src, dst, label, weight in rows:
                out.write(f"{src},{dst},{label},{weight!r}\n")
        rows = [(src, dst, label, weight.hex()) for src, dst, label, weight in rows]

        def peak_of(build):
            gc.collect()
            tracemalloc.start()
            try:
                net = build()
                return net, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def build_in_memory():
            net = MultiLayeredNetwork(layers=("a", "b", "c"))
            net.add_edges((s, d, label, float.fromhex(w)) for s, d, label, w in rows)
            return net.seal()

        built, built_peak = peak_of(build_in_memory)
        net, peak = peak_of(lambda: load_edge_list(path))
        assert net.num_edges == 1700 * 12
        assert net == built
        assert peak <= 1.25 * built_peak, f"load peak {peak} B vs {built_peak} B in memory"

    def test_the_load_peak_stays_below_a_dict_per_pair(self, tmp_path):
        # Per edge under tracemalloc on CPython 3.11, the load peaked at 210 B
        # with a dict per pair, at 109 B with the slot map and running sums
        # and a tuple per priced pair, at 94 B with flat priced rows, and at
        # 89 B with the sums added at seal; the sealed network held 90 B
        # with a tuple per pair and 62 B flat. CI's tier-1 job writes both
        # figures, from the same net, on every Python it runs
        write_load_peak_net(tmp_path / "net.csv")
        gc.collect()
        tracemalloc.start()
        try:
            net = load_edge_list(tmp_path / "net.csv")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.num_edges > 20_000
        assert peak / net.num_edges < 105, f"load peak {peak / net.num_edges:.1f} B/edge"
        assert held / net.num_edges < 72, f"held after the load {held / net.num_edges:.1f} B/edge"


class TestLoaderErrors:
    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFileError):
            load_edge_list(write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(EmptyFileError):
            load_edge_list(write(tmp_path, HEADER))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(ParseError, match=":1:"):
            load_edge_list(write(tmp_path, "source,target,layer,weight\n0,1,a,0.5\n"))

    @pytest.mark.parametrize(
        "row",
        [
            "0,1,a",              # missing field
            "0,1,a,0.5,x",        # extra field
            "zero,1,a,0.5",       # unparsable id
            "-1,1,a,0.5",         # negative id
            "+3,1,a,0.5",         # sign
            "1_0,1,a,0.5",        # digit separator
            "0,\u0663,a,0.5",     # non-ASCII digit
            "0,1,a,heavy",        # unparsable weight
            "0,1,a,0.2_5",        # digit separator in a weight
            "0,1,a,\u0660.\u0665",  # non-ASCII digits in a weight
            "0,1,,0.5",           # empty label
            b"1,2,b\xff,0.5",     # bytes that are not UTF-8: in a label,
            b"\xff1,2,b,0.5",     # an id
            b"1,2,b,0.5\xff",     # or a weight
            b"1,2," + b"x" * 140_000 + b",0.5",  # over the csv field size limit
        ],
    )
    def test_malformed_rows_report_their_line(self, tmp_path, row):
        row = row if isinstance(row, bytes) else row.encode()
        path = tmp_path / "edges.csv"
        path.write_bytes(HEADER.encode() + b"0,1,a,0.5\n" + row + b"\n2,3,a,0.5\n")
        with pytest.raises(ParseError, match=r"edges\.csv:3: "):
            load_edge_list(path)

    def test_loop_row(self, tmp_path):
        path = write(tmp_path, HEADER + "5,5,l1,0.3\n")
        with pytest.raises(LoopEdgeError, match=":2:"):
            load_edge_list(path)

    @pytest.mark.parametrize("bad", ["1.5", "-0.25", "nan", "inf"])
    def test_weight_out_of_range(self, tmp_path, bad):
        path = write(tmp_path, HEADER + f"0,1,a,{bad}\n")
        with pytest.raises(WeightOutOfRangeError, match=":2:"):
            load_edge_list(path)

    def test_duplicate_triple_default_policy(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,a,0.5\n0,1,a,0.75\n")
        with pytest.raises(DuplicateEdgeError, match=":3:"):
            load_edge_list(path)

    def test_duplicate_keep_max(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,a,0.5\n0,1,a,0.75\n0,1,a,0.25\n")
        net = load_edge_list(path, on_duplicate="keep-max")
        assert [e.weight for e in net.edges()] == [0.75]
        assert dict(net.priced_pairs) == {0: (1, 1, 0.25)}

    def test_keep_max_holds_the_first_position(self, tmp_path):
        rows = "0,1,a,0.5\n0,1,b,0.25\n0,1,a,0.75\n2,3,a,0.5\n0,1,a,0.125\n"
        net = load_edge_list(write(tmp_path, HEADER + rows), on_duplicate="keep-max")
        assert [(e.src, e.dst, e.layer.label, e.weight) for e in net.edges()] == [
            (0, 1, "a", 0.75),
            (0, 1, "b", 0.25),
            (2, 3, "a", 0.5),
        ]
        assert net.num_edges == 3
        assert net.layer_edge_counts() == [2, 1]

    def test_keep_max_out_of_order_repeats_dump_the_same_bytes(self, tmp_path):
        # repeats come back after other pairs and in another layer order;
        # the sealed columns must still hold each pair's kept weights
        rows = (
            "2,0,b,0.5\n0,1,a,0.25\n2,0,a,0.125\n0,1,b,0.75\n1,2,c,0.1\n"
            "0,1,a,0.5\n2,0,b,0.375\n1,2,c,0.3\n0,1,b,0.875\n2,0,a,0.0625\n"
        )
        net = load_edge_list(write(tmp_path, HEADER + rows), on_duplicate="keep-max")
        assert [(e.src, e.dst, e.layer.label, e.weight) for e in net.edges()] == [
            (2, 0, "b", 0.5),
            (2, 0, "a", 0.125),
            (0, 1, "a", 0.5),
            (0, 1, "b", 0.875),
            (1, 2, "c", 0.3),
        ]
        out = io.StringIO()
        assert write_edge_csv(net, out) == 5
        assert out.getvalue() == (
            HEADER + "0,1,a,0.5\n0,1,b,0.875\n1,2,c,0.3\n2,0,a,0.125\n2,0,b,0.5\n"
        )

    def test_locations_are_physical_lines(self, tmp_path):
        # the quoted label spans lines 3-4, so the loop row sits on line 5
        path = write(tmp_path, HEADER + '0,1,a,0.5\n1,2,"two\nlines",0.5\n5,5,a,0.3\n')
        with pytest.raises(LoopEdgeError, match=r"edges\.csv:5: "):
            load_edge_list(path)

    def test_unknown_duplicate_policy(self, tmp_path):
        path = write(tmp_path, HEADER + "0,1,a,0.5\n")
        with pytest.raises(ParameterError):
            load_edge_list(path, on_duplicate="first-wins")

    @pytest.mark.parametrize("text", ["", HEADER], ids=["empty", "header-only"])
    def test_unknown_duplicate_policy_without_rows(self, tmp_path, text):
        # the policy is checked before any line is read
        with pytest.raises(ParameterError):
            load_edge_list(write(tmp_path, text), on_duplicate="first-wins")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "nope.csv")


class TestRoundTrip:
    def test_dump_then_load_preserves_the_network(self, tmp_path):
        net = build_net(
            ("b", "a"),
            [
                (3, 1, "a", 0.123456789012345),
                (1, 3, "b", 1.0),
                (0, 3, "a", 0.0),
            ],
            extra_nodes=(),
        )
        out = tmp_path / "dump.csv"
        assert dump_edge_list(net, out) == 3
        again = load_edge_list(out)
        assert again == net

    def test_dumps_are_byte_identical_regardless_of_build_order(self, tmp_path):
        edges = [(0, 1, "a", 0.5), (1, 2, "b", 0.25), (2, 0, "a", 0.75)]
        a = build_net(("a", "b"), edges)
        b = build_net(("b", "a"), list(reversed(edges)))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_edge_list(a, pa)
        dump_edge_list(b, pb)
        assert filecmp.cmp(pa, pb, shallow=False)

    def test_generated_network_round_trips_bit_exactly(self, tmp_path):
        net = random_network(25, 3, 0.15, seed=99)
        out = tmp_path / "gen.csv"
        dump_edge_list(net, out)
        again = load_edge_list(out)
        assert again == net
        # and the reloaded copy dumps to the very same bytes
        out2 = tmp_path / "gen2.csv"
        dump_edge_list(again, out2)
        assert filecmp.cmp(out, out2, shallow=False)


class TestManyLayers:
    def test_layer_indices_past_one_byte_survive_sealing(self):
        # 300 layers: the layer column must hold indices up to 299
        rng = random.Random(300)
        labels = [f"l{k}" for k in range(300)]
        added = []
        for src, dst in ((0, 1), (0, 2), (2, 0), (1, 0)):
            # layers in no particular order, each pair ending on the last one
            for label in rng.sample(labels[:-1], 40) + labels[-1:]:
                added.append((src, dst, label, rng.random()))
        net = build_net(labels, added)
        assert [(e.src, e.dst, e.layer.label, e.weight) for e in net.edges()] == added
        assert max(e.layer.index for e in net.edges()) == 299
        out = io.StringIO()
        write_edge_csv(net, out)
        expected = "".join(
            f"{src},{dst},{label},{weight!r}\n"
            for src, dst, label, weight in sorted(added, key=lambda e: e[:3])
        )
        assert out.getvalue() == HEADER + expected
        priced = {src: list(row) for src, row in net.priced_pairs.items()}
        assert priced == oracle_priced_pairs(net)


    @pytest.mark.parametrize("num_layers", [256, 257])
    def test_top_layer_index_at_the_one_byte_boundary(self, num_layers):
        # 256 layers still fit one byte per layer index (0..255); 257 do not
        labels = [f"l{k}" for k in range(num_layers)]
        added = [(0, 1, labels[-1], 0.25), (0, 1, labels[0], 0.5), (1, 0, labels[-2], 0.75)]
        net = build_net(labels, added)
        assert [(e.src, e.dst, e.layer.index, e.weight) for e in net.edges()] == [
            (0, 1, num_layers - 1, 0.25),
            (0, 1, 0, 0.5),
            (1, 0, num_layers - 2, 0.75),
        ]
        priced = {src: list(row) for src, row in net.priced_pairs.items()}
        assert priced == oracle_priced_pairs(net)


class TestSummary:
    def test_summary_lines(self):
        net = build_net(("a", "b"), [(0, 1, "a", 0.5), (1, 2, "a", 0.5), (0, 1, "b", 0.1)])
        text = format_load_summary(net, name="sample.csv")
        lines = text.splitlines()
        assert lines[0] == "edge list: sample.csv"
        assert "polarity: positive" in lines
        assert "nodes: 3" in lines
        assert "layers: 2" in lines
        assert "  a: 2 edges" in lines
        assert "  b: 1 edges" in lines
        assert "edges: 3" in lines


class TestGenerator:
    def test_seed_reproducibility(self):
        a = random_network(15, 2, 0.2, seed=42)
        b = random_network(15, 2, 0.2, seed=42)
        c = random_network(15, 2, 0.2, seed=43)
        assert a == b
        assert a != c

    def test_exact_per_layer_edge_counts(self):
        net = random_network(10, 3, 0.1, seed=1)
        assert net.layer_edge_counts() == [9, 9, 9]  # round(0.1 * 90)

    def test_all_nodes_registered_even_when_isolated(self):
        net = random_network(30, 1, 0.01, seed=5)
        assert net.nodes == frozenset(range(30))

    def test_weights_within_range(self):
        net = random_network(12, 2, 0.3, seed=7)
        assert all(0.0 <= e.weight < 1.0 for e in net.edges())

    def test_density_extremes(self):
        empty = random_network(6, 1, 0.0, seed=0)
        assert empty.num_edges == 0
        full = random_network(6, 2, 1.0, seed=0)
        assert full.num_edges == 2 * 6 * 5

    def test_polarity_flag(self):
        assert random_network(4, 1, 0.5, seed=0, polarity=NEGATIVE).polarity == NEGATIVE

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            random_network(0, 1, 0.5)
        with pytest.raises(ParameterError):
            random_network(5, 0, 0.5)
        with pytest.raises(ParameterError):
            random_network(5, 1, 1.5)

    def test_single_node_network_is_legal(self):
        net = random_network(1, 2, 0.5, seed=3)
        assert net.num_nodes == 1 and net.num_edges == 0
