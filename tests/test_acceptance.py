"""End-to-end acceptance gate.

Eight independent criteria, each a single test that prints one PASS/FAIL
line to the terminal (bypassing pytest capture) and then asserts. Workloads
are randomized but fully seeded, so failures reproduce exactly.

Everything here runs offline and in-process: the CLI checks invoke main()
directly rather than spawning subprocesses.
"""

import filecmp
import math
import time

import pytest

from layerpath import (
    AggregationParams,
    MultiLayeredNetwork,
    POSITIVE,
    aggregate_graph,
    aggregated_sssp,
    apsp_repeated_dijkstra,
    benchmark,
    dap_sssp,
    distance,
    dump_edge_list,
    edge_count_sweep,
    format_bench_report,
    load_edge_list,
    mda_sssp,
    ml_floyd_warshall,
    random_network,
)
from layerpath.cli import main as cli_main

from oracles import brute_force_sp, single_layer_distances, textbook_dijkstra

TOL = 1e-12


@pytest.fixture
def announce(capsys):
    """Emit one verdict line per criterion, visible even under capture."""

    def _announce(number, title, passed, detail=""):
        verdict = "PASS" if passed else "FAIL"
        line = f"[criterion {number}] {verdict}: {title}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def _verdict(announce, number, title, body):
    """Run a criterion body, print its line, then assert.

    The body returns a detail string on success and raises (assertion or
    otherwise) on failure; either way exactly one line is printed.
    """
    try:
        detail = body() or ""
        ok = True
    except Exception as exc:  # report, then re-assert below
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    announce(number, title, ok, detail)
    assert ok, detail


def _same_lengths(a, b, tol=TOL):
    """Identical reachable sets, lengths within tol. Fast path: dict ==."""
    if a == b:
        return True
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= tol for k in a)


# --- 1: preprocessing vs on-the-fly -----------------------------------------

GRID_ALPHAS = (1, 2, 3)
GRID_BETAS = (0.25, 0.5, 0.75, 1.0)


def test_criterion_1_strategies_agree_at_scale(announce):
    """200 random 3-layer networks, every source, full threshold grid."""

    def body():
        sizes = [20] * 67 + [100] * 67 + [200] * 66
        t0 = time.perf_counter()
        nets = 0
        for i, n in enumerate(sizes):
            net = random_network(n, 3, 0.05, seed=1000 + i)
            sources = sorted(net.nodes)
            for alpha in GRID_ALPHAS:
                for beta in GRID_BETAS:
                    params = AggregationParams(alpha, beta)
                    # Aggregation is shared across sources; dap_sssp is the
                    # same pipeline and is spot-checked below.
                    graph = aggregate_graph(net, params)
                    for s in sources:
                        pre = aggregated_sssp(graph, s)
                        fly = mda_sssp(net, s, params)
                        assert _same_lengths(pre.lengths, fly.lengths), (
                            f"net seed {1000 + i}, source {s}, "
                            f"alpha={alpha} beta={beta}"
                        )
                    full = dap_sssp(net, sources[0], params)
                    assert full.lengths == aggregated_sssp(graph, sources[0]).lengths
            nets += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        return f"{nets} networks, 12 threshold combos each, {elapsed:.1f}s"

    _verdict(announce, 1, "preprocessing and on-the-fly searches agree", body)


# --- 2: exhaustive-path oracle ----------------------------------------------


def test_criterion_2_matches_exhaustive_enumeration(announce):
    """500 tiny networks against the no-pruning simple-path oracle."""

    def body():
        t0 = time.perf_counter()
        densities = (0.25, 0.45, 0.65)
        for i in range(500):
            n = 2 + i % 6
            layers = 1 + i % 3
            net = random_network(n, layers, densities[i % 3], seed=4000 + i)
            for alpha in GRID_ALPHAS:
                for beta in GRID_BETAS:
                    params = AggregationParams(alpha, beta)
                    for s in sorted(net.nodes):
                        fast = dap_sssp(net, s, params)
                        slow = brute_force_sp(net, s, params)
                        assert _same_lengths(fast.lengths, slow.lengths), (
                            f"net seed {4000 + i}, source {s}, "
                            f"alpha={alpha} beta={beta}"
                        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        return f"500 networks up to 7 nodes, {elapsed:.1f}s"

    _verdict(announce, 2, "lengths match exhaustive path enumeration", body)


# --- 3: one layer collapses to plain Dijkstra --------------------------------


def test_criterion_3_single_layer_reduces_to_dijkstra(announce):
    """With one layer and open thresholds the whole machinery must vanish:
    results equal a textbook Dijkstra on distances 1 - w, bit for bit."""

    def body():
        params = AggregationParams(alpha=1, beta=1.0)
        for i in range(50):
            net = random_network(30, 1, 0.15, seed=3000 + i)
            triples = single_layer_distances(net)
            for s in sorted(net.nodes):
                got = dap_sssp(net, s, params).lengths
                want = textbook_dijkstra(triples, s)
                assert got == want, f"net seed {3000 + i}, source {s}"
        return "50 one-layer networks, exact equality per target"

    _verdict(announce, 3, "single-layer case equals textbook Dijkstra", body)


# --- 4: all-pairs strategies agree -------------------------------------------


def test_criterion_4_apsp_matrix_matches_repeated_sssp(announce):
    """Matrix recurrence vs one Dijkstra per source, every entry."""

    def body():
        combos = (AggregationParams(1, 1.0), AggregationParams(2, 0.75))
        for i in range(20):
            n = 5 * (i + 1)  # 5..100
            net = random_network(n, 3, 0.08, seed=6000 + i)
            order = sorted(net.nodes)
            for params in combos:
                matrix = ml_floyd_warshall(net, params)
                assert list(matrix.order) == order
                for s in order:
                    lengths = dap_sssp(net, s, params).lengths
                    for t in order:
                        want = lengths.get(t, math.inf)
                        got = matrix.entry(s, t)
                        if math.isinf(want) or math.isinf(got):
                            assert got == want, f"seed {6000 + i} entry ({s},{t})"
                        else:
                            assert abs(got - want) <= TOL, (
                                f"seed {6000 + i} entry ({s},{t})"
                            )
                repeated = apsp_repeated_dijkstra(net, params)
                assert list(repeated.order) == order
        return "20 networks up to 100 nodes, 2 threshold combos, every entry"

    _verdict(announce, 4, "all-pairs matrix matches repeated searches", body)


# --- 5: threshold monotonicity ------------------------------------------------

SWEEP_ALPHAS = (1, 2, 3)
SWEEP_BETAS = (1.0, 0.975, 0.875, 0.667, 0.5, 0.333)  # loosest first


def test_criterion_5_stricter_thresholds_only_shrink(announce):
    """Raising alpha or lowering beta may only remove edges, shrink
    reachable sets, and lengthen the paths that survive."""

    def body():
        for i in range(20):
            net = random_network(40, 3, 0.06, seed=7000 + i)
            sources = sorted(net.nodes)
            report = edge_count_sweep(net, list(SWEEP_ALPHAS), list(SWEEP_BETAS))

            cells = {}
            for alpha in SWEEP_ALPHAS:
                for beta in SWEEP_BETAS:
                    graph = aggregate_graph(net, AggregationParams(alpha, beta))
                    assert report.count(alpha, beta) == graph.num_edges
                    runs = {s: aggregated_sssp(graph, s).lengths for s in sources}
                    cells[alpha, beta] = (graph.num_edges, runs)

            def check(loose, strict, where):
                loose_edges, loose_runs = cells[loose]
                strict_edges, strict_runs = cells[strict]
                assert strict_edges <= loose_edges, where
                for s in sources:
                    lo, st = loose_runs[s], strict_runs[s]
                    assert set(st) <= set(lo), f"{where}, source {s}"
                    for t, d in st.items():
                        # Exact comparison: the surviving paths are a subset
                        # and each is summed identically, so no tolerance.
                        assert lo[t] <= d, f"{where}, source {s}, target {t}"

            for ai, alpha in enumerate(SWEEP_ALPHAS):
                for bi, beta in enumerate(SWEEP_BETAS):
                    if ai + 1 < len(SWEEP_ALPHAS):
                        check(
                            (alpha, beta),
                            (SWEEP_ALPHAS[ai + 1], beta),
                            f"seed {7000 + i}, alpha {alpha}->{SWEEP_ALPHAS[ai + 1]}",
                        )
                    if bi + 1 < len(SWEEP_BETAS):
                        check(
                            (alpha, beta),
                            (alpha, SWEEP_BETAS[bi + 1]),
                            f"seed {7000 + i}, beta {beta}->{SWEEP_BETAS[bi + 1]}",
                        )
        return "20 networks, 3x6 grid: counts, reach, and lengths all monotone"

    _verdict(announce, 5, "edge counts and path lengths are threshold-monotone", body)


# --- 6: distance formula spot checks -----------------------------------------


def _pair_net(weights):
    """Two-node, three-layer network with the given 0->1 weights."""
    net = MultiLayeredNetwork(polarity=POSITIVE)
    for k in range(3):
        net.add_layer(f"l{k}")
    net.add_node(0)
    net.add_node(1)
    for k, w in enumerate(weights):
        if w is not None:
            net.add_edge(0, 1, k, w)
    net.seal()
    return net

def test_criterion_6_distance_formula_spot_checks(announce):
    def body():
        d = distance(_pair_net([0.8, 0.5, None]), 0, 1)
        assert abs(d - 17 / 30) <= 1e-15, f"got {d!r}"
        assert distance(_pair_net([None, None, None]), 0, 1) == 1.0
        assert distance(_pair_net([1.0, 1.0, 1.0]), 0, 1) == 0.0
        return "17/30 within 1e-15; no edges -> 1.0; all ones -> 0.0"

    _verdict(announce, 6, "averaged distance formula spot checks", body)


# --- 7: benchmark completes at scale ------------------------------------------


def test_criterion_7_benchmark_reports_both_phases(announce):
    """No numeric threshold: timings are hardware-bound. The report just has
    to complete on a 10k-node network and show both strategies."""

    def body():
        net = random_network(10_000, 3, 0.0002, seed=9000)
        report = benchmark(net, sources=[0, 1, 2, 3, 4], reps=3)
        assert report.reps == 3
        assert report.aggregate_seconds > 0.0
        assert report.dap_search_seconds > 0.0
        assert report.mda_seconds > 0.0
        assert report.dap_total_seconds == (
            report.aggregate_seconds + report.dap_search_seconds
        )
        text = format_bench_report(report)
        for needle in ("aggregation", "search", "on-the-fly", "overhead"):
            assert needle in text, f"report is missing {needle!r}"
        return (
            f"10k nodes, {net.num_edges} layered edges; "
            f"preprocessing {report.dap_total_seconds:.3f}s, "
            f"on-the-fly {report.mda_seconds:.3f}s"
        )

    _verdict(announce, 7, "benchmark completes and reports both phases", body)


# --- 8: CLI round-trip and error paths ----------------------------------------


def test_criterion_8_cli_round_trip_and_error_paths(announce, tmp_path, capsys):
    def body():
        first = tmp_path / "gen.csv"
        second = tmp_path / "redump.csv"
        code = cli_main(
            [
                "generate", "--nodes", "15", "--layers", "3",
                "--density", "0.2", "--seed", "5", "-o", str(first),
            ]
        )
        assert code == 0

        net = load_edge_list(str(first))
        dump_edge_list(net, str(second))
        assert load_edge_list(str(second)) == net
        assert filecmp.cmp(str(first), str(second), shallow=False), (
            "re-dump is not byte-identical"
        )

        def reject(rows, expect_code):
            bad = tmp_path / "bad.csv"
            bad.write_text("src,dst,layer,weight\n" + "\n".join(rows) + "\n")
            capsys.readouterr()
            got = cli_main(["load-summary", str(bad)])
            err = capsys.readouterr().err
            assert got == expect_code, f"exit {got}, wanted {expect_code}: {err}"
            return err

        err = reject(["3,3,a,0.5"], 3)
        assert "loop" in err
        err = reject(["1,2,a,0.5", "1,2,a,0.7"], 3)
        assert "duplicate" in err
        err = reject(["1,2,a,1.5"], 3)
        assert "weight" in err

        # Same duplicate input is accepted under the keep-max policy.
        dup = tmp_path / "dup.csv"
        dup.write_text("src,dst,layer,weight\n1,2,a,0.5\n1,2,a,0.7\n")
        assert cli_main(["load-summary", str(dup), "--on-duplicate", "keep-max"]) == 0

        capsys.readouterr()
        argv = ["sssp", str(first), "--source", "0", "--alphas", "1,2",
                "--betas", "0.5,1.0"]
        assert cli_main(list(argv)) == 0
        once = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        again = capsys.readouterr().out
        assert once == again, "repeated invocation output differs"

        return "round-trip byte-identical; rejects exit 3; output repeatable"

    _verdict(announce, 8, "CLI round-trip, rejections, deterministic output", body)
