"""Every private name the ``swati`` package defines is referenced somewhere in it,
and only inside its own module.

A private name starts with one underscore and is not a dunder. The definitions
checked are a module's top-level functions, classes and assigned constants,
and the methods of its classes. A reference is any load of the name, an
attribute of that name, or an import of it by another module; the definition
itself does not count, so a helper that lost its last caller fails here. No
module imports a private name from another module of the package: a name two
modules share is public.
"""

import ast
from pathlib import Path

import swati

PACKAGE = Path(swati.__file__).parent


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, line) of each private module-level definition and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unreferenced(sources):
    """``module:line name`` of each private definition that no module references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if _is_private(name) and name not in referenced
    ]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unreferenced = _unreferenced(sources)
    assert not unreferenced, f"private names nothing references: {', '.join(unreferenced)}"


def test_detects_a_private_name_referenced_only_at_its_definition():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "_left, _right = 1, 2\n"
            "def _helper():\n    return _LIMIT + _left\n"
            "def _dead():\n    return 0\n"
            "class _Box:\n"
            "    def __init__(self):\n        self._value = self._read()\n"
            "    def _read(self):\n        return 1\n"
            "    def _stale(self):\n        return 2\n"
            "def public():\n    return _Box()\n"
        ),
        "b.py": "from .a import _helper\n_helper()\n",
    }
    assert _unreferenced(sources) == [
        "a.py:2 _UNUSED", "a.py:3 _right", "a.py:6 _dead", "a.py:13 _stale",
    ]


def _private_imports(sources):
    """``module:line name`` of each private name imported from a module of the package."""
    return [
        f"{module}:{node.lineno} {alias.name}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "swati")
        for alias in node.names
        if _is_private(alias.name)
    ]


def test_no_module_imports_a_private_name_of_another():
    sources = {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    imported = _private_imports(sources)
    assert not imported, f"private names imported across modules: {', '.join(imported)}"


def test_detects_a_private_name_imported_from_another_module():
    sources = {
        "a.py": "from ._b import public\nfrom json import _default_decoder\n",
        # a deferred import inside a function counts too
        "c.py": (
            "def check():\n"
            "    from .extraction import _alias_matches, extract_corpus\n"
            "    from swati.ontology import _STRIP_CHARS\n"
        ),
        "d.py": "from . import _private\nfrom .e import __version__\n",
    }
    assert _private_imports(sources) == [
        "c.py:2 _alias_matches", "c.py:3 _STRIP_CHARS", "d.py:1 _private",
    ]
