"""Hypothesis profiles for the suite, and fixtures that count and force forks.

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
def forks(monkeypatch):
    """The pids of the processes forked from this one from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def force_fw_workers(monkeypatch, forks):
    """``force(count)``: Floyd-Warshall forks however small the net, as on
    a machine with ``count`` CPUs. Returns the list that gathers the pid of
    every process forked from then on."""
    from layerpath import paths, workers

    def force(count):
        monkeypatch.setattr(paths, "_FW_FORK_MIN_NODES", 0)
        monkeypatch.setattr(workers, "available_cpus", lambda: count)
        return forks

    return force
