"""Every name a ``swati`` module imports is used in that module.

A module's used names are the names it loads anywhere in its syntax tree,
plus the names it lists in ``__all__``. ``__init__.py`` re-exports its
imports as the package's public API, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import swati

MODULES = sorted(
    path for path in Path(swati.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree):
    """(bound name, line) of each import, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\nx: Sequence[int] = []\n")
    names = [name for name, _ in _imported_names(tree) if name not in _used_names(tree)]
    assert names == ["os", "Optional"]
