"""Small process that spawns the benchmark's children and times them.

Reads one JSON request per stdin line, ``{"argv": [...], "stdout": PATH,
"timeout_s": T}``, runs it to completion with stdout sent to PATH, and
answers with one JSON line ``{"wall_s", "rss_mb", "code", "timed_out"}``.

Why a separate process: on Linux a child's ``ru_maxrss`` (from ``wait4``)
is at least the peak RSS of the process that forked it, because exec
records the old address space's high-water mark. The benchmark process
holds numpy arrays and whole output files, so its children would inherit
its peak. This launcher imports nothing heavy and stays far below the
smallest child's own peak, so ``rss_mb`` is the child's alone.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout, timeout_s):
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": killed.is_set(),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
