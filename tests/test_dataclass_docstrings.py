"""Every ``@dataclass`` in ``swati`` has a docstring.

Without one, ``dataclasses`` builds the class's docstring from
``inspect.signature`` when the module is imported, which costs import time on
every command.
"""

import ast
from pathlib import Path

import pytest

import swati

MODULES = sorted(Path(swati.__file__).parent.glob("*.py"))


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return isinstance(target, ast.Name) and target.id == "dataclass" or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def _undocumented_dataclasses(tree):
    """(name, line) of each class decorated with ``dataclass`` that has no docstring."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ClassDef)
            and any(_is_dataclass_decorator(d) for d in node.decorator_list)
            and ast.get_docstring(node) is None
        ):
            yield node.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_dataclass_has_a_docstring(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    missing = [f"{name} (line {line})" for name, line in _undocumented_dataclasses(tree)]
    assert not missing, f"{path.name} has dataclasses without a docstring: {', '.join(missing)}"


def test_detects_an_undocumented_dataclass():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    '''Documented.'''\n"
        "@dataclasses.dataclass(eq=False)\nclass C:\n    y: int\n"
        "class D:\n    z: int\n"
    )
    assert [name for name, _ in _undocumented_dataclasses(tree)] == ["A", "C"]
