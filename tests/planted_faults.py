"""Planted faults: each one must make the tests named for it fail.

    python tests/planted_faults.py [FAULT ...]

Each fault names a file under ``src/layerpath``, a text that occurs in it
exactly once, the text that replaces it, and the tests that must fail once
it is replaced. The script copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory, runs every named test there unchanged (they must
pass), then, one fault at a time, plants the fault in a fresh copy and runs
its tests. It reports each fault whose tests do not all fail, and exits 1
if any survives or the unchanged copy fails. Named faults run alone.
pytest does not collect this file, and tier-1 does not run it.

A test id without a ``[...]`` parameter counts as failed when any of its
parameter sets fails. Criterion 1 (``test_acceptance.py``) is named only
for a fault that nothing else catches: it takes most of tier-1's time.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    file: str  # under src/layerpath
    text: str  # occurs exactly once
    replacement: str
    tests: tuple[str, ...]  # each must fail


SEAL_SUM = "test_core.py::test_sealing_keeps_every_edge_in_order"
SUM_LOOP = (
    "            for slot, weight in zip(edge_slots, self._edge_weights):\n"
    "                sums[slot] += weight\n"
)
FW = "test_paths.py::TestBlockedFloydWarshall::"
SLOTS = "    slots = shared(min(count + 1, len(bounds)), min(height, n), n)\n"

FAULTS = (
    # the seal-time sum of each pair's weights
    Fault("seal-drops-last-weight", "core.py", SUM_LOOP,
          SUM_LOOP.replace("zip(edge_slots,", "zip(edge_slots[:-1],"), (SEAL_SUM,)),
    Fault("seal-sums-in-reverse", "core.py", SUM_LOOP,
          SUM_LOOP.replace("zip(edge_slots, self._edge_weights)",
                           "zip(reversed(edge_slots), reversed(self._edge_weights))"),
          (SEAL_SUM,)),
    Fault("seal-sums-with-fsum", "core.py",
          '            sums = array("d", bytes(8 * len(masks)))\n' + SUM_LOOP,
          "            parts = [[] for _ in masks]\n"
          "            for slot, weight in zip(edge_slots, self._edge_weights):\n"
          "                parts[slot].append(weight)\n"
          '            sums = array("d", map(__import__("math").fsum, parts))\n',
          (SEAL_SUM,)),
    # Floyd-Warshall's memory: an n x n map beside the slots, and a matrix
    # the command fills before it forks
    Fault("fw-maps-a-second-matrix", "paths.py", SLOTS,
          SLOTS + "    spare = shared(n, n)\n",
          (FW + "test_the_rows_set_aside_do_not_grow_with_n",)),
    # a slot a rank: a phase's rows are overwritten while a rank, or this
    # process alone, still reads them
    Fault("fw-one-slot-a-rank", "paths.py", SLOTS,
          SLOTS.replace("min(count + 1,", "min(count,"),
          (FW + "test_a_lagging_rank_never_reads_a_refilled_slot[2]",
           FW + "test_a_lagging_rank_never_reads_a_refilled_slot[3]",
           *(FW + f"test_bit_identical_to_the_textbook_loop[300-{polarity}-{params}-1]"
             for polarity in ("positive", "negative") for params in ("params0", "params1")))),
    Fault("fw-fills-before-the-fork", "paths.py",
          "    values = shared(n, n)\n",
          "    values = shared(n, n)\n    values.fill(np.inf)\n",
          (FW + "test_the_caller_touches_no_page_of_the_forked_kernel",)),
    # the temporary back at its allocation's own page offset, which it
    # shares with the block rows of the minimum at 2,000 nodes
    Fault("fw-temporary-on-a-plain-empty", "paths.py",
          "        skip = (block.ctypes.data + 2048 - tmp.ctypes.data) % 4096 // 8\n"
          "        cand = tmp[skip: skip + block.size].reshape(block.shape)\n",
          "        cand = tmp[: block.size].reshape(block.shape)\n",
          (FW + "test_the_temporary_never_shares_a_page_offset_with_its_block",)),
    # a tie relaxes, so the last node to reach a target at its length wins
    Fault("tie-relaxes", "paths.py",
          "if cur is None or cand < cur:", "if cur is None or cand <= cur:",
          ("test_paths.py::TestHandWorked::"
           "test_the_first_node_to_settle_at_the_final_length_is_the_predecessor",
           "test_cli.py::TestOutputBytes::test_tied_paths_sha256")),
    # mda reads the pairs above beta too; dap's rows never hold one
    Fault("mda-skips-the-beta-test", "paths.py",
          "if count < alpha or d > beta:", "if count < alpha:", ("test_cli_differential.py",)),
    # `--paths` prints each path without its source
    Fault("paths-drop-the-source", "cells.py",
          "result.length(target), result.path_to(target))",
          "result.length(target), result.path_to(target)[1:])",
          ("test_cli.py::TestOutputBytes::test_stdout_sha256[sssp-csv]",
           "test_cli.py::TestOutputBytes::test_stdout_sha256[sssp-json]",
           "test_cli_differential.py::test_exports_counts_and_lengths_agree_across_commands")),
    # the dealer reads every result as it comes and yields none until the last
    Fault("dealer-holds-every-block", "workers.py",
          "            yield marshal.loads(recv(finished.pop(out)))\n",
          "            finished[out] = recv(finished[out])\n"
          "        yield from map(marshal.loads, map(finished.pop, range(tasks)))\n",
          ("test_workers.py::TestWriteMatrix::test_the_caller_holds_one_block_at_a_time",)),
    # apsp's rows, rendered on ranks, go out last row first
    Fault("emitter-writes-rows-out-of-order", "workers.py",
          "    with closing(deal(ranks(n, n >= _EMIT_FORK_MIN_ROWS), n, row)) as done:\n",
          "    count = ranks(n, n >= _EMIT_FORK_MIN_ROWS)\n"
          "    with closing(deal(count, n, row if count < 2 else lambda i: row(n - 1 - i))) as done:\n",
          ("test_cli.py::TestOutputBytes::test_stdout_sha256", "test_cli_differential.py")),
    # one rank's job, run in process, loses its last task
    Fault("in-process-deal-drops-last-task", "workers.py",
          "yield from map(run, range(tasks))", "yield from map(run, range(tasks - 1))",
          ("test_workers.py::TestDeal::test_results_are_yielded_in_task_order[1]",
           "test_workers.py::TestPlacement::test_one_rank_deals_in_process",
           "test_cli_differential.py")),
)


def copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def python_in(tree: Path, *args) -> subprocess.CompletedProcess:
    """``python *args`` in ``tree``, importing its own copy of ``layerpath``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=tree, capture_output=True, text=True,
                          env=env)


def failed_tests(tree: Path, tests) -> tuple[int, set[str]]:
    """(pytest's exit code, ids of the failed tests) for ``tests`` run in ``tree``."""
    run = python_in(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
                    *(f"tests/{test}" for test in tests))
    return run.returncode, set(re.findall(r"^FAILED tests/(\S+)", run.stdout, re.M))


def caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") or f.startswith(test + "::")
               for f in failed)


def main(names) -> int:
    unknown = set(names) - {fault.name for fault in FAULTS}
    if unknown:
        print(f"no such fault: {', '.join(sorted(unknown))}")
        return 2
    faults = [fault for fault in FAULTS if not names or fault.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        found = python_in(clean, "-c", "import layerpath; print(layerpath.__file__)").stdout
        if not Path(found.strip()).is_relative_to(clean):
            print(f"the copy imports layerpath from {found.strip() or 'nowhere'}")
            return 1
        code, failed = failed_tests(clean, sorted({t for f in faults for t in f.tests}))
        if code:
            print(f"unchanged copy: pytest exited {code}, failed: {sorted(failed)}")
            return 1
        survived = []
        for fault in faults:
            tree = Path(tmp) / fault.name
            copy_tree(tree)
            path = tree / "src" / "layerpath" / fault.file
            source = path.read_text(encoding="utf-8")
            if source.count(fault.text) != 1:
                print(f"{fault.name}: its text occurs {source.count(fault.text)} times "
                      f"in {fault.file}")
                survived.append(fault.name)
                continue
            path.write_text(source.replace(fault.text, fault.replacement), encoding="utf-8")
            code, failed = failed_tests(tree, fault.tests)
            missed = [test for test in fault.tests if not caught(test, failed)]
            status = "caught" if code == 1 and not missed else "SURVIVED"
            print(f"{fault.name}: {status} (pytest exit {code}; passed: {missed or 'none'})")
            if status != "caught":
                survived.append(fault.name)
            shutil.rmtree(tree)
    print(f"{len(faults) - len(survived)} of {len(faults)} faults caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
