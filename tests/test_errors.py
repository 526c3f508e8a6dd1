"""The JSONL reader: its one-scan path for object lines and ``parse_json`` for the rest."""

import pytest

from swati import errors
from swati.errors import ParseError, parse_json, read_jsonl

_LINES = {
    "object": '{"a": [1, 2.5, "x"], "b": {"c": null}}',
    "trailing_spaces": '{"a": 1}   ',
    "trailing_tab": '{"a": 1}\t',
    "leading_spaces": '  {"a": 1}',
    "bom": '\ufeff{"a": 1}',
    "junk_after_object": "{}junk",
    "two_objects": "{}{}",
    "unclosed": '{"a": 1',
    "deep_objects": '{"a":' * 5000 + "1" + "}" * 5000,
    "deep_lists": '{"a":' + "[" * 5000 + "]" * 5000 + "}",
    "long_integer": '{"a": ' + "7" * 5000 + "}",
    "nan_infinity": '{"a": NaN, "b": Infinity, "c": -Infinity}',
    "duplicate_keys": '{"a": 1, "a": 2}',
    "list": "[1, 2]",
    "string": '"x"',
    "number": "1",
}


def _outcome(read):
    """A value's repr (NaN != NaN), or the ParseError's text and line."""
    try:
        return "value", repr(read())
    except ParseError as exc:
        return "error", str(exc), exc.line


@pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "eof"])
@pytest.mark.parametrize("line", list(_LINES.values()), ids=list(_LINES))
def test_read_jsonl_equals_parse_json(tmp_path, line, end):
    """Every line reads as ``parse_json`` reads it, as a value or as its error."""
    path = tmp_path / "one.jsonl"
    path.write_bytes((line + end).encode("utf-8"))
    got = _outcome(lambda: list(read_jsonl(path, "test")))
    assert got == _outcome(lambda: [(1, parse_json(line + end.replace("\r", ""), 1))])


def test_read_jsonl_scans_plain_object_lines_once(tmp_path, monkeypatch):
    """Object lines that end at the newline or at the end of the file skip ``parse_json``."""

    def refuse(text, line=None):
        raise AssertionError(f"parse_json called for line {line}")

    path = tmp_path / "plain.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": [true]}\r\n{}')
    monkeypatch.setattr(errors, "parse_json", refuse)
    assert list(read_jsonl(path, "test")) == [(1, {"a": 1}), (3, {"b": [True]}), (4, {})]


def test_read_jsonl_reports_the_first_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 1} x\n{\n')
    with pytest.raises(ParseError, match="^line 3: invalid JSON: Extra data$"):
        list(read_jsonl(path, "test"))
