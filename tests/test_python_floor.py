"""Every ``swati`` module and demo parses as the oldest Python that ``pyproject.toml`` admits.

The floor is read from ``requires-python`` with a regex, since ``tomllib``
is 3.11+. ``ast.parse``'s ``feature_version`` catches new syntax only (say,
``except*``), not a call to a newer standard-library API.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "swati").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=_floor())


def test_detects_syntax_newer_than_the_floor():
    assert _floor() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())
