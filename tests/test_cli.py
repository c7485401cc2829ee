"""Command line behavior: emissions, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layerpath
from layerpath import (
    STATS_COLUMNS,
    AggregationParams,
    MultiLayeredNetwork,
    apsp_repeated_dijkstra,
    cells,
    cli,
    load_edge_list,
    ml_floyd_warshall,
)
from layerpath.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def net_csv(tmp_path, capsys):
    path = tmp_path / "net.csv"
    code = main(["generate", "--nodes", "12", "--layers", "3",
                 "--density", "0.15", "--seed", "11", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# head of a fresh-interpreter script: `cli` imported, and force_pool() sends
# sssp and sweep through two forked workers however small the net
FORCE_POOL_IF_ASKED = (
    "import json, sys\n"
    "from layerpath import cli\n"
    "def force_pool():\n"
    "    from layerpath import cells\n"
    "    cells._POOL_MIN_WORK = 0\n"
    "    cells._available_cpus = lambda: 2\n"
)


def fresh_python(script, *args, **popen):
    """Run ``script`` in a new interpreter that imports this layerpath."""
    src = str(Path(layerpath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # std streams buffered, as they usually are
    command = [sys.executable, "-c", script, *map(str, args)]
    if popen:
        return subprocess.Popen(command, env=env, **popen)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def reader_leaves_early(tmp_path, script):
    """(exit code, stderr) of ``script`` running ``sssp --paths`` on a 600-node net.

    As with `| head -c 10`: the reader leaves while the paths dump, far
    larger than a pipe buffer, is still being written.
    """
    path = tmp_path / "big.csv"
    assert main(["generate", "--nodes", "600", "--layers", "2", "--density", "0.01",
                 "--seed", "5", "-o", str(path)]) == 0
    child = fresh_python(script, "sssp", path, "--source", "0,1,2,3,4,5,6,7", "--paths",
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=60), err


class TestGenerate:
    def test_writes_a_loadable_edge_list(self, net_csv):
        net = load_edge_list(net_csv)
        assert net.num_nodes == 12
        assert net.num_layers == 3

    def test_stdout_when_no_output_given(self, capsys):
        code, out, _ = run(capsys, "generate", "--nodes", 4, "--layers", 1,
                           "--density", 0.5, "--seed", 1)
        assert code == 0
        assert out.splitlines()[0] == "src,dst,layer,weight"

    def test_bad_density_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "net.csv"
        # 0.001 rounds to no edges, and a header alone would not load
        for nodes, density in ((4, 2.0), (10, 0.001)):
            code, out, err = run(capsys, "generate", "--nodes", nodes, "--layers", 1,
                                 "--density", density, "-o", out_path)
            assert code == 2
            assert "density" in err
            assert out == "" and not out_path.exists()


class TestLoadSummary:
    def test_shape_report(self, net_csv, capsys):
        code, out, _ = run(capsys, "load-summary", net_csv)
        assert code == 0
        assert f"edge list: {net_csv}" in out
        assert "nodes: 12" in out
        assert "layers: 3" in out


class TestSssp:
    def test_stats_rows_per_source_and_cell(self, net_csv, capsys):
        code, out, _ = run(capsys, "sssp", net_csv, "--source", "0,3",
                           "--alphas", "1,2", "--betas", "1.0,0.5")
        assert code == 0
        rows = parse_csv(out)
        assert tuple(rows[0]) == STATS_COLUMNS
        body = rows[1:]
        assert len(body) == 2 * 2 * 2
        assert [r[0] for r in body] == ["0"] * 4 + ["3"] * 4

    def test_strategies_emit_identical_bytes(self, net_csv, capsys):
        _, dap_out, _ = run(capsys, "sssp", net_csv, "--source", "0",
                            "--strategy", "dap")
        _, mda_out, _ = run(capsys, "sssp", net_csv, "--source", "0",
                            "--strategy", "mda")
        assert dap_out == mda_out

    def test_runs_are_deterministic(self, net_csv, capsys):
        args = ("sssp", net_csv, "--source", "5", "--alpha", "1",
                "--beta", "0.75", "--paths")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_paths_dump_lists_every_other_node(self, net_csv, capsys):
        code, out, _ = run(capsys, "sssp", net_csv, "--source", "0", "--paths")
        assert code == 0
        stats_part, paths_part = out.split("\n\n", 1)
        paths_rows = parse_csv(paths_part)
        assert paths_rows[0] == ["source", "alpha", "beta", "target", "length", "path"]
        assert [r[3] for r in paths_rows[1:]] == [str(v) for v in range(1, 12)]
        for row in paths_rows[1:]:
            if row[4] == "inf":
                assert row[5] == ""
            else:
                assert row[5].startswith("0->")

    def test_json_emission(self, net_csv, capsys):
        code, out, _ = run(capsys, "sssp", net_csv, "--source", "2", "--paths",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"stats", "paths"}
        assert payload["stats"][0]["source"] == 2
        for entry in payload["paths"]:
            assert entry["length"] is None or math.isfinite(entry["length"])

    def test_unknown_source_is_a_usage_error(self, net_csv, capsys):
        code, _, err = run(capsys, "sssp", net_csv, "--source", "99")
        assert code == 2
        assert "99" in err

    def test_missing_source_is_a_usage_error(self, net_csv, capsys):
        code, _, _ = run(capsys, "sssp", net_csv)
        assert code == 2

    @pytest.mark.parametrize("source", ["+0", "1_0", "\u0663", "-1"])
    def test_source_must_be_plain_digits(self, net_csv, capsys, source):
        # int() would read "+0" as node 0 and "1_0" as node 10
        code, out, _ = run(capsys, "sssp", net_csv, "--source", source)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("grid", [("--alphas", ""), ("--betas", ","), ("--alphas", " , ")])
    def test_empty_grid_is_a_usage_error(self, net_csv, capsys, grid):
        code, out, err = run(capsys, "sssp", net_csv, "--source", "0", *grid)
        assert code == 2
        assert out == ""
        assert "grid" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("sssp", "--source", "0", "--alpha", "+2"),
            ("sssp", "--source", "0", "--alphas", "1,\u0662"),
            ("sssp", "--source", "0", "--betas", "\uff10.\uff15"),
            ("sssp", "--source", "0", "--betas", "1_0e-1"),
            ("sssp", "--source", "0", "--beta", "0.5_0"),
            ("sweep", "--betas", "1.0", "--alphas", "+1"),
            ("aggregate-export", "--alpha", "1_0"),
        ],
        ids=["alpha-sign", "alphas-arabic-indic", "betas-fullwidth", "betas-separator",
             "beta-separator", "sweep-alphas-sign", "export-alpha-separator"],
    )
    def test_threshold_text_must_be_plain(self, net_csv, capsys, argv):
        # int() and float() would read these as 2, 2, 0.5, 1.0, 0.5, 1 and 10
        command, *flags = argv
        code, out, err = run(capsys, command, net_csv, *flags)
        assert code == 2
        assert out == ""
        assert f"argument {flags[-2]}:" in err

    def test_closed_stdout_exits_1_without_a_message(self, tmp_path):
        assert reader_leaves_early(tmp_path, "from layerpath.cli import run; run()") == (1, b"")


class TestImports:
    def test_numpy_is_loaded_only_by_apsp(self, tmp_path):
        # a fresh interpreter: this one has numpy loaded already
        net = tmp_path / "net.csv"
        out = tmp_path / "out"
        cold = [
            ["generate", "--nodes", "30", "--layers", "2", "--density", "0.1",
             "--seed", "3", "-o", net],
            ["load-summary", net, "-o", out],
            ["sssp", net, "--source", "0,1", "--paths", "-o", out],
            ["sssp", net, "--source", "0,1", "--strategy", "mda", "-o", out],
            ["sweep", net, "--alphas", "1,2", "--betas", "0.5,1.0", "--source", "0", "-o", out],
            ["aggregate-export", net, "--format", "json", "-o", out],
            ["bench", net, "--default-sources", "2", "-o", out],
        ]
        script = (
            "import json, sys\n"
            "from layerpath.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "assert main(['apsp', sys.argv[2], '-o', sys.argv[3]]) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        argvs = json.dumps([[str(a) for a in argv] for argv in cold])
        src = str(Path(layerpath.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", script, argvs, str(net), str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert out.read_text().startswith("src,0,")

    def test_multiprocessing_is_loaded_only_by_the_pool(self, tmp_path):
        # only sssp and sweep load the cell runner; on a 30-node net they stay
        # in process, and forced into the pool they load multiprocessing
        net = tmp_path / "net.csv"
        out = tmp_path / "out"
        argvs = [
            ["generate", "--nodes", "30", "--layers", "2", "--density", "0.1",
             "--seed", "3", "-o", net],
            ["load-summary", net, "-o", out],
            ["apsp", net, "-o", out],
            ["aggregate-export", net, "-o", out],
            ["bench", net, "--default-sources", "2", "-o", out],
            ["sssp", net, "--source", "0,1", "--paths", "-o", out],
            ["sweep", net, "--alphas", "1,2", "--betas", "1.0", "--source", "0", "-o", out],
        ]
        script = FORCE_POOL_IF_ASKED + (
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert 'multiprocessing' not in sys.modules, argv\n"
            "    if argv[0] not in ('sssp', 'sweep'):\n"
            "        assert 'layerpath.cells' not in sys.modules, argv\n"
            "force_pool()\n"
            "assert cli.main(json.loads(sys.argv[1])[-1]) == 0\n"
            "assert 'multiprocessing' in sys.modules\n"
        )
        child = fresh_python(script, json.dumps([[str(a) for a in argv] for argv in argvs]))
        assert child.returncode == 0, child.stderr


class TestApsp:
    def test_matrix_shape_and_header(self, net_csv, capsys):
        code, out, _ = run(capsys, "apsp", net_csv)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["src"] + [str(v) for v in range(12)]
        assert len(rows) == 13
        for i, row in enumerate(rows[1:]):
            assert row[i + 1] == "0.0"  # zero diagonal

    def test_strategies_agree_within_tolerance(self, net_csv, capsys):
        _, fw, _ = run(capsys, "apsp", net_csv, "--strategy", "floyd-warshall")
        _, rd, _ = run(capsys, "apsp", net_csv, "--strategy", "repeated-dijkstra")
        fw_rows, rd_rows = parse_csv(fw)[1:], parse_csv(rd)[1:]
        for fr, rr in zip(fw_rows, rd_rows):
            assert fr[0] == rr[0]
            for a, b in zip(fr[1:], rr[1:]):
                x, y = float(a), float(b)
                if math.isinf(x) or math.isinf(y):
                    assert x == y
                else:
                    assert abs(x - y) <= 1e-12

    def test_size_guard_exit_code(self, net_csv, capsys):
        code, _, err = run(capsys, "apsp", net_csv, "--max-nodes", "5")
        assert code == 4
        assert "max_nodes" in err or "cap" in err

    def test_json_matrix(self, net_csv, capsys):
        code, out, _ = run(capsys, "apsp", net_csv, "--beta", "0.4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == list(range(12))
        assert len(payload["matrix"]) == 12
        flat = [c for row in payload["matrix"] for c in row]
        assert all(c is None or isinstance(c, float) or c == 0 for c in flat)


    @pytest.mark.parametrize("strategy", ["floyd-warshall", "repeated-dijkstra"])
    @pytest.mark.parametrize("flags", [(), ("--polarity", "negative", "--alpha", "2",
                                            "--beta", "0.75")])
    def test_bytes_match_the_cell_by_cell_emitters(self, tmp_path, capsys, strategy, flags):
        # the matrix as csv.writer with repr(float(v)) per cell, and JSON
        # with _json_length(float(v)) per cell, used to write it
        path = tmp_path / "net.csv"
        assert main(["generate", "--nodes", "30", "--layers", "3", "--density", "0.03",
                     "--seed", "4", "-o", str(path)]) == 0
        polarity = "negative" if "negative" in flags else "positive"
        net = load_edge_list(path, polarity=polarity)
        params = AggregationParams(2, 0.75) if flags else AggregationParams()
        kernel = ml_floyd_warshall if strategy == "floyd-warshall" else apsp_repeated_dijkstra
        matrix = kernel(net, params)
        assert math.isinf(matrix.values.max())  # unreachable pairs are in the output

        want_csv = io.StringIO()
        writer = csv.writer(want_csv, lineterminator="\n")
        writer.writerow(["src"] + [str(v) for v in matrix.order])
        for node, row in zip(matrix.order, matrix.values):
            writer.writerow([str(node)] + [repr(float(v)) for v in row])
        want_json = io.StringIO()
        json.dump({
            "alpha": params.alpha,
            "beta": params.beta,
            "order": matrix.order,
            "matrix": [[cli._json_length(float(v)) for v in row] for row in matrix.values],
        }, want_json, indent=2)
        want_json.write("\n")

        for fmt, want in (("csv", want_csv), ("json", want_json)):
            out = tmp_path / f"matrix.{fmt}"
            assert main(["apsp", str(path), "--strategy", strategy, "--format", fmt,
                         *flags, "-o", str(out)]) == 0
            assert out.read_bytes() == want.getvalue().encode()
            code, stdout, _ = run(capsys, "apsp", path, "--strategy", strategy,
                                  "--format", fmt, *flags)
            assert code == 0 and stdout == want.getvalue()
        assert "inf" in want_csv.getvalue() and "null" in want_json.getvalue()


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("apsp", "NET", "--max-nodes", "1_0"),
            ("bench", "NET", "--reps", "+3"),
            ("bench", "NET", "--default-sources", "\u0663"),
            ("generate", "--layers", "1", "--density", "0.5", "--nodes", "\u0663"),
            ("generate", "--nodes", "3", "--density", "0.5", "--layers", "+1"),
            ("generate", "--nodes", "3", "--layers", "1", "--density", "\uff10.\uff15"),
            ("generate", "--nodes", "3", "--layers", "1", "--density", "0.5",
             "--seed", "1_0"),
        ],
        ids=["apsp-max-nodes", "bench-reps", "bench-default-sources", "generate-nodes",
             "generate-layers", "generate-density", "generate-seed"],
    )
    def test_numbers_must_be_plain(self, net_csv, tmp_path, capsys, argv):
        # int() and float() would read these as 10, 3, 3, 3, 1, 0.5 and 10
        target = tmp_path / "out.txt"
        argv = [str(net_csv) if a == "NET" else a for a in argv]
        code, out, err = run(capsys, *argv, "-o", target)
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}:" in err
        assert not target.exists()


class TestSweep:
    def test_grid_rows(self, net_csv, capsys):
        code, out, _ = run(capsys, "sweep", net_csv, "--alphas", "1,2,3",
                           "--betas", "1.0,0.5")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["alpha", "beta", "num_edges"]
        assert [r[:2] for r in rows[1:]] == [
            ["1", "1.0"], ["1", "0.5"], ["2", "1.0"],
            ["2", "0.5"], ["3", "1.0"], ["3", "0.5"],
        ]
        counts = [int(r[2]) for r in rows[1:]]
        assert counts[0] >= counts[2] >= counts[4]  # antitone in alpha

    def test_optional_stats_block(self, net_csv, capsys):
        code, out, _ = run(capsys, "sweep", net_csv, "--alphas", "1",
                           "--betas", "1.0", "--source", "0,1")
        assert code == 0
        counts_part, stats_part = out.split("\n\n", 1)
        assert parse_csv(counts_part)[0] == ["alpha", "beta", "num_edges"]
        stats_rows = parse_csv(stats_part)
        assert tuple(stats_rows[0]) == STATS_COLUMNS
        assert [r[0] for r in stats_rows[1:]] == ["0", "1"]

    def test_grids_are_required(self, net_csv, capsys):
        code, _, _ = run(capsys, "sweep", net_csv, "--alphas", "1,2")
        assert code == 2

    def test_unknown_source_is_rejected_before_the_sweep(self, net_csv, capsys, monkeypatch):
        def sweep(*args):
            raise AssertionError("the grid was binned before --source was checked")

        monkeypatch.setattr(cli, "edge_count_sweep", sweep)
        code, out, err = run(capsys, "sweep", net_csv, "--alphas", "1", "--betas", "1.0",
                             "--source", "99")
        assert code == 2
        assert out == ""
        assert "99" in err


class TestBench:
    def test_report_includes_both_phases(self, net_csv, capsys):
        code, out, _ = run(capsys, "bench", net_csv, "--reps", "3",
                           "--source", "0,1,2")
        assert code == 0
        assert "aggregation" in out
        assert "on-the-fly:" in out
        assert "overhead" in out

    def test_too_few_reps_is_a_usage_error(self, net_csv, capsys):
        code, _, err = run(capsys, "bench", net_csv, "--reps", "2")
        assert code == 2
        assert "reps" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_default_sources_below_one_is_a_usage_error(self, net_csv, capsys, count):
        code, out, err = run(capsys, "bench", net_csv, "--default-sources", count)
        assert code == 2
        assert out == ""
        assert "--default-sources" in err

    @pytest.mark.parametrize("flag", [("--reps", "1"), ("--default-sources", "0")])
    def test_flags_are_checked_before_the_load(self, tmp_path, capsys, flag):
        # a usage error, not the missing file's input error
        code, out, err = run(capsys, "bench", tmp_path / "absent.csv", *flag)
        assert code == 2
        assert out == ""
        assert flag[0] in err


class TestAggregateExport:
    def test_rows_are_sorted_and_thresholded(self, net_csv, capsys):
        code, out, _ = run(capsys, "aggregate-export", net_csv, "--alpha", "2")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["src", "dst", "distance", "layer_count"]
        keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)
        assert all(int(r[3]) >= 2 for r in rows[1:])

    def test_json_export(self, net_csv, capsys):
        code, out, _ = run(capsys, "aggregate-export", net_csv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all({"src", "dst", "distance", "layer_count"} == set(e) for e in payload)


class TestErrorExits:
    def test_loop_edge_file(self, tmp_path, capsys):
        path = tmp_path / "loop.csv"
        path.write_text("src,dst,layer,weight\n5,5,l1,0.3\n")
        code, _, err = run(capsys, "load-summary", path)
        assert code == 3
        assert ":2:" in err

    def test_duplicate_edge_file(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("src,dst,layer,weight\n1,2,a,0.5\n1,2,a,0.6\n")
        code, _, err = run(capsys, "load-summary", path)
        assert code == 3
        assert ":3:" in err
        code, _, _ = run(capsys, "load-summary", path, "--on-duplicate", "keep-max")
        assert code == 0
        # merging a duplicate still checks its weight
        path.write_text("src,dst,layer,weight\n1,2,a,0.5\n1,2,a,1.5\n")
        code, _, err = run(capsys, "load-summary", path, "--on-duplicate", "keep-max")
        assert code == 3
        assert ":3:" in err and "weight" in err

    def test_weight_range_file(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("src,dst,layer,weight\n1,2,a,1.5\n")
        code, _, err = run(capsys, "load-summary", path)
        assert code == 3

    @pytest.mark.parametrize("node", ["1_0", "+3", "\u0663"])
    def test_node_id_must_be_plain_digits(self, tmp_path, capsys, node):
        path = tmp_path / "ids.csv"
        path.write_text(f"src,dst,layer,weight\n0,1,a,0.5\n{node},2,a,0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "load-summary", path)
        assert code == 3
        assert out == ""
        assert f"{path}:3:" in err

    @pytest.mark.parametrize(
        "row",
        [
            b"1,2,a,0.2_5",
            "1,2,a,\u0660.\u0665".encode(),
            b"1,2,b\xff,0.5",
            b"1,2," + b"x" * 140_000 + b",0.5",
        ],
        ids=["weight-separator", "weight-non-ascii", "undecodable-byte", "oversized-field"],
    )
    def test_unreadable_row_is_an_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"src,dst,layer,weight\n0,1,a,0.5\n" + row + b"\n")
        code, out, err = run(capsys, "load-summary", path)
        assert code == 3
        assert out == ""
        assert f"{path}:3:" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "load-summary", tmp_path / "absent.csv")
        assert code == 3

    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


def fixed_net_csv(path):
    """A 40-node, 3-layer edge list from integer arithmetic alone.

    Every node has three out-edges per layer; weights are two-digit decimals.
    No ``random``: its sampling is not guaranteed to repeat across Python
    versions, and these bytes must.
    """
    lines = ["src,dst,layer,weight"]
    for li, layer in enumerate(("a", "b", "c")):
        for i in range(40):
            for step in (1, 3 + li, 7 + 2 * li):
                j = (i + step) % 40
                lines.append(f"{i},{j},{layer},0.{(i * 37 + j * 11 + li * 53) % 100:02d}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestOutputBytes:
    """Output bytes pinned by sha256, so a run on any Python version checks
    that distances, lengths and averages add up to the same last bits."""

    SSSP = ("sssp", "--source", "0,5,17", "--alphas", "1,2", "--betas", "1.0,0.6", "--paths")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (SSSP,
             "0c87e3f3004b8f6d63a9f09c7e2dcf9b9d86f8635ec9a15407b67a1874c09a41"),
            (SSSP + ("--strategy", "mda", "--format", "json"),
             "907645b4486c55112ee543c08b268843b1187c32b4c4f3784e4ac81e6c87f2ba"),
            (("sweep", "--alphas", "1,2,3", "--betas", "0.5,0.75,1.0", "--source", "0,9,33"),
             "c3225f007a90711f1f82c0af8528bae54dd8a581a9a4c1a331a67a46e65a900a"),
        ],
        ids=["sssp-csv", "sssp-json", "sweep-csv"],
    )
    def test_stdout_sha256(self, tmp_path, capsys, argv, digest):
        path = fixed_net_csv(tmp_path / "fixed.csv")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture
def pool_calls(monkeypatch):
    """Pools started by sssp and sweep; one CPU until ``force_pool`` is called."""
    calls = []
    pool_map = cells._pool_map

    def counted(*args):
        calls.append(args)
        return pool_map(*args)

    monkeypatch.setattr(cells, "_pool_map", counted)
    monkeypatch.setattr(cells, "_available_cpus", lambda: 1)
    return calls


def force_pool(monkeypatch):
    monkeypatch.setattr(cells, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(cells, "_available_cpus", lambda: 2)


class TestWorkerPool:
    """sssp and sweep --source forked into worker processes, as on a
    multi-CPU machine with a large net: the same bytes, exit codes and
    streams as the in-process run."""

    SSSP = ("sssp", "--source", "0,5,17", "--alphas", "1,2", "--betas", "1.0,0.6")

    @pytest.mark.parametrize(
        "argv",
        [
            SSSP,
            SSSP + ("--paths",),
            SSSP + ("--format", "json"),
            SSSP + ("--paths", "--format", "json"),
            SSSP + ("--strategy", "mda"),
            SSSP + ("--strategy", "mda", "--paths"),
            SSSP + ("--strategy", "mda", "--format", "json"),
            SSSP + ("--strategy", "mda", "--paths", "--format", "json"),
            # one cell: its three sources split over the two workers
            ("sssp", "--source", "0,5,17", "--alpha", "2", "--beta", "0.8", "--paths"),
            ("sweep", "--alphas", "1,2,3", "--betas", "0.5,1.0", "--source", "0,9,33"),
            ("sweep", "--alphas", "1,2,3", "--betas", "0.5,1.0", "--source", "0,9,33",
             "--format", "json"),
        ],
        ids=["dap-csv", "dap-csv-paths", "dap-json", "dap-json-paths",
             "mda-csv", "mda-csv-paths", "mda-json", "mda-json-paths",
             "one-cell-paths", "sweep-csv", "sweep-json"],
    )
    def test_pool_writes_the_in_process_bytes(self, tmp_path, capsys, monkeypatch,
                                              pool_calls, argv):
        path = fixed_net_csv(tmp_path / "fixed.csv")
        alone = run(capsys, argv[0], path, *argv[1:])
        assert pool_calls == []
        force_pool(monkeypatch)

        def refuse(self, protocol):
            raise AssertionError("the network was pickled for the workers")

        monkeypatch.setattr(MultiLayeredNetwork, "__reduce_ex__", refuse, raising=False)
        pooled = run(capsys, argv[0], path, *argv[1:])
        assert len(pool_calls) == 1
        assert (alone[0], alone[2]) == (0, "")
        assert pooled == alone

    def test_buffered_stdout_is_written_once(self, tmp_path):
        # each worker flushes the std streams it inherited as it exits
        path = fixed_net_csv(tmp_path / "fixed.csv")
        script = FORCE_POOL_IF_ASKED + (
            "force_pool()\n"
            "sys.stdout.write('buffered before the fork\\n')\n"
            "code = cli.main(sys.argv[1:])\n"
            "assert 'multiprocessing' in sys.modules\n"
            "sys.exit(code)\n"
        )
        child = fresh_python(script, "sssp", path, "--source", "0,5", "--alphas", "1,2")
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.count("buffered before the fork") == 1
        assert child.stdout.startswith("buffered before the fork\nsource,alpha,")

    def test_closed_stdout_exits_1_without_a_message(self, tmp_path):
        script = FORCE_POOL_IF_ASKED + "force_pool()\ncli.run()\n"
        assert reader_leaves_early(tmp_path, script) == (1, b"")

    def test_a_killed_worker_fails_the_run(self, tmp_path):
        # as when the kernel kills a worker for memory: an error, not a hang
        path = fixed_net_csv(tmp_path / "fixed.csv")
        script = FORCE_POOL_IF_ASKED + (
            "import os, signal\n"
            "force_pool()\n"
            "from layerpath import cells\n"
            "cells._cell_task = lambda *task: os.kill(os.getpid(), signal.SIGKILL)\n"
            "cli.main(sys.argv[1:])\n"
        )
        child = fresh_python(script, "sssp", path, "--source", "0,5", "--alphas", "1,2")
        assert child.returncode == 1
        assert "BrokenProcessPool" in child.stderr
        assert child.stdout == ""

    def test_workers_fork_before_any_thread_starts(self, tmp_path):
        # Python 3.12 warns when a process with threads forks; the pool's own
        # threads must start after its workers are forked
        path = fixed_net_csv(tmp_path / "fixed.csv")
        script = "import warnings\nwarnings.simplefilter('error')\n" + FORCE_POOL_IF_ASKED + (
            "import os, threading\n"
            "threads_at_fork = []\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    threads_at_fork.append(threading.active_count())\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "force_pool()\n"
            "net, out = sys.argv[1:]\n"
            "assert cli.main(['sssp', net, '--source', '0,5', '--alphas', '1,2', '-o', out]) == 0\n"
            "assert cli.main(['sweep', net, '--alphas', '1,2', '--betas', '1.0',\n"
            "                 '--source', '0,5', '-o', out]) == 0\n"
            "assert threads_at_fork == [1, 1, 1, 1], threads_at_fork\n"
        )
        child = fresh_python(script, path, tmp_path / "out")
        assert (child.returncode, child.stderr) == (0, "")
