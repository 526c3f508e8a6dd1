"""Every public top-level function and class of a ``swati`` module is used by the package.

A public name does not start with an underscore. A function or class defined
at a module's top level is used if ``swati/__init__.py`` exports it or some
module of the package references it other than at its definition: a load of
the name, an attribute of that name, or an import of it. A name that only
tests call is not part of the package and fails here.
"""

import ast
from pathlib import Path

import swati
from test_private_names import _references

PACKAGE = Path(swati.__file__).parent


def _unused(sources):
    """``module:line name`` of each public top-level function or class nothing uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]


def test_every_public_name_is_exported_or_used():
    sources = {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unused = _unused(sources)
    assert not unused, f"public names only tests can use: {', '.join(unused)}"


def test_detects_a_public_name_that_no_module_uses():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": (
            "class Exported:\n    pass\n"
            "def helper():\n    return 1\n"
            "def entry():\n    return helper()\n"
            "def only_in_tests():\n    return 2\n"
            "class Unused:\n    pass\n"
        ),
        "b.py": "from .a import entry\n",
    }
    assert _unused(sources) == ["a.py:7 only_in_tests", "a.py:9 Unused"]
