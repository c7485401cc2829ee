"""Module boundaries: no module of the package reaches into another's private names.

Every ``src/layerpath/*.py`` file is parsed with ``ast``. A relative import
of a ``_name`` fails, and so does reading ``obj._attr`` where ``obj`` is not
``self`` or ``cls``. Dunders such as ``__setattr__`` are public protocol and
pass.
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
