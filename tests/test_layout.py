"""Module boundaries: no module of the package reaches into another's private names.

Every ``src/layerpath/*.py`` file is parsed with ``ast``. A relative import
of a ``_name`` fails, and so does reading ``obj._attr`` where ``obj`` is not
``self`` or ``cls``. Dunders such as ``__setattr__`` are public protocol and
pass. Inside ``core.py``, only the methods that build and seal a network
may touch its build state (``BUILD_ONLY``). Only ``workers.py`` forks, moves bytes
through pipes, reaps or kills processes, exits one, or asks whether the
platform can fork.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layerpath"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reaches_into_private(source):
    """(line, text) of each private import or foreign private attribute read in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [
                (node.lineno, f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                for alias in node.names
                if _private(alias.name)
            ]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append((node.lineno, f"{ast.unparse(owner)}.{node.attr}"))
    return found


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_reach_across_modules(path):
    assert reaches_into_private(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_both_kinds_of_reach():
    source = (
        "from .core import _coerce_alpha, parse_real\n"
        "from . import _hidden\n"
        "x = net._adj\n"
        "y = self._adj, cls._cache, obj.__class__, obj.public\n"
    )
    assert reaches_into_private(source) == [
        (1, "from .core import _coerce_alpha"),
        (2, "from . import _hidden"),
        (3, "net._adj"),
    ]


BUILD_MAP_USERS = ("__init__", "add_edges", "seal")
# the attributes a network holds only while it is built: the slot map, the
# per-pair layer masks, the per-edge slot column and keep-max's links from
# each pair to its edges
BUILD_ONLY = ("_slots", "_masks", "_edge_slots", "_heads", "_links")


def build_map_uses(source):
    """(line, function, attribute) of each ``BUILD_ONLY`` use in ``source`` outside ``BUILD_MAP_USERS``.

    A use inside a nested function counts as a use in the outermost one.
    """
    found = []

    def visit(node, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in BUILD_ONLY:
            if function not in BUILD_MAP_USERS:
                found.append((node.lineno, function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_building_and_sealing_touch_the_build_map():
    source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    assert build_map_uses(source) == []
    # no name in BUILD_ONLY is stale: the build touches every one
    touched = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    assert touched >= set(BUILD_ONLY)


def test_the_build_map_check_sees_a_reader():
    source = (
        "class Net:\n"
        "    def __init__(self):\n"
        "        self._slots, self._masks = {}, []\n"
        "    def seal(self):\n"
        "        del self._slots\n"
        "    def edges(self):\n"
        "        return iter(self._edge_slots)\n"
        "    @property\n"
        "    def nodes(self):\n"
        "        return {v for targets in self._slots.values() for v in targets}\n"
        "    def add_edges(self, rows):\n"
        "        def helper():\n"
        "            return self._masks\n"
        "    def layer_edge_counts(self):\n"
        "        return self._heads, self._links, self._masks\n"
        "size = len(Net()._slots)\n"
    )
    assert build_map_uses(source) == [
        (7, "edges", "_edge_slots"),
        (10, "nodes", "_slots"),
        (15, "layer_edge_counts", "_heads"),
        (15, "layer_edge_counts", "_links"),
        (15, "layer_edge_counts", "_masks"),
        (16, None, "_slots"),
    ]
    assert {attr for _, _, attr in build_map_uses(source)} == set(BUILD_ONLY)


# the os calls that start, feed, reap or end processes
PLUMBING = ("fork", "pipe", "read", "readv", "write", "waitpid", "kill", "_exit")


def process_plumbing(source):
    """(line, text) of each ``os`` plumbing call or import, or fork test, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in PLUMBING
            ]
        elif isinstance(node, ast.Attribute) and node.attr in PLUMBING:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.Call) and ast.unparse(node) == "hasattr(os, 'fork')":
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "workers.py"], ids=lambda path: path.name
)
def test_only_workers_owns_process_plumbing(path):
    assert process_plumbing(path.read_text(encoding="utf-8")) == []


def test_the_plumbing_check_sees_every_kind():
    source = (
        "import os\n"
        "from os import _exit, fspath\n"
        "pid = os.fork()\n"
        "os.write(fd, b''), os.readv(fd, [])\n"
        "can = hasattr(os, 'fork') and hasattr(os, 'sched_getaffinity')\n"
        "os.dup2(os.open(os.devnull, os.O_WRONLY), 1)\n"
        "done = self.write, os.path.join\n"
    )
    assert process_plumbing(source) == [
        (2, "from os import _exit"),
        (3, "os.fork"),
        (4, "os.readv"),
        (4, "os.write"),
        (5, "hasattr(os, 'fork')"),
    ]
    assert process_plumbing((PACKAGE / "workers.py").read_text(encoding="utf-8")) != []
