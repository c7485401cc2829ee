"""Hypothesis profiles for the suite, and a fixture that forks Floyd-Warshall.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which prints the
``@reproduce_failure`` blob of a failing example so that a failure seen once
can be replayed. It changes no example count, deadline or seed.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def force_fw_workers(monkeypatch):
    """``force(count)``: Floyd-Warshall forks however small the net, as on
    a machine with ``count`` CPUs. Returns the list that gathers the pid of
    every process forked from then on."""
    from layerpath import paths, workers

    def force(count):
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(paths, "_FW_FORK_MIN_NODES", 0)
        monkeypatch.setattr(workers, "available_cpus", lambda: count)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    return force
