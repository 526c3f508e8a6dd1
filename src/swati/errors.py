"""Exception types shared across the engine, and the JSON readers and writer.

Unreadable files surface as the builtin ``OSError``/``IOError``; everything
domain-specific gets a class here so callers can catch narrowly. Every JSON
and JSONL input is parsed here, so each ends in ``ParseError`` the same way.
"""

import json
import math
from typing import Iterable, Iterator


class EngineError(Exception):
    """Base class for all engine errors."""


class ParseError(EngineError):
    """Malformed record in an input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_json(text: str, line: int | None = None) -> object:
    """``json.loads`` that raises ``ParseError`` for any text it cannot read.

    Besides malformed JSON, ``json`` raises ``ValueError`` for an integer of
    more than 4,300 digits and ``RecursionError`` for very deep nesting.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", line) from exc


# the C scanner behind ``json.loads``, called without its Python wrappers
_SCAN_ONCE = json.JSONDecoder().scan_once


def read_jsonl(path, what: str) -> Iterator[tuple[int, object]]:
    """Yield (1-based line number, value) for each non-blank line of a JSONL file.

    Lines end at ``\n``, ``\r`` or ``\r\n`` only, so a raw U+2028 inside a
    JSON string stays in its line. ``what`` names the file in the error
    raised for bytes that are not UTF-8.

    A line that starts with ``{`` is scanned once by the C scanner, and its
    value is taken when the scan ends at the end of the line or just before
    its final ``\n``: ``json.loads`` returns that same value. Every other
    line, and any line the scanner raises on, goes through ``parse_json``.
    """
    scan = _SCAN_ONCE
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line[:1] == "{":
                    try:
                        value, end = scan(line, 0)
                    except (StopIteration, ValueError, RecursionError):
                        pass  # parse_json raises the ParseError
                    else:
                        if end == len(line) or (end == len(line) - 1 and line[end] == "\n"):
                            yield line_no, value
                            continue
                if line.strip():
                    yield line_no, parse_json(line, line_no)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not valid UTF-8") from exc


# ``json.dumps(row, sort_keys=True)`` builds a new encoder per call; this one is shared
_SORTED_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(path: str, rows: Iterable[object]) -> None:
    """Write each row as one ``json.dumps(row, sort_keys=True)`` line."""
    encode = _SORTED_ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encode(row))
            fh.write("\n")


class DuplicateIdError(ParseError):
    """A document id appears more than once in a corpus."""

    def __init__(self, doc_id: str, line: int | None = None):
        self.doc_id = doc_id
        super().__init__(f"duplicate document id {doc_id!r}", line)


class ConfigError(EngineError):
    """Invalid configuration value or infeasible generation request."""


def number(value, key: str, lo: float = -math.inf, hi: float = math.inf):
    """``value`` unchanged if it is a finite number in [lo, hi], else a ``ConfigError``."""
    try:
        if not isinstance(value, bool) and math.isfinite(value) and lo <= value <= hi:
            return value
    except (TypeError, OverflowError):
        pass  # not a real number, or an int whose float() overflows
    raise ConfigError(f"{key} must be a finite number in [{lo}, {hi}], got {value!r}")


def integer(value, key: str, lo: float = -math.inf) -> int:
    """``value`` unchanged if it is an ``int``, not a ``bool``, >= ``lo``, else ``ConfigError``."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= lo:
        return value
    raise ConfigError(f"{key} must be an integer >= {lo}, got {value!r}")


class AliasConflictError(EngineError):
    """One alias maps to two different canonical skills."""

    def __init__(self, alias: str, first: str, second: str):
        self.alias = alias
        super().__init__(
            f"alias {alias!r} claimed by both {first!r} and {second!r}"
        )


class CycleError(EngineError):
    """Parent links in the ontology form a cycle."""


class UnknownSkillError(EngineError):
    """Canonical skill not present in the ontology."""


class EmptyCorpusError(EngineError):
    """Vectorizer fitting requires at least one document."""


class SchemaViolationError(EngineError):
    """Extraction payload failed validation; ``path`` names the first bad field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        # the empty path is the response itself
        super().__init__(f"{path}: {reason}" if path else reason)


class TransportError(EngineError):
    """Remote extractor endpoint unreachable or returned a bad status."""


class RemoteTimeoutError(TransportError):
    """Remote extractor did not answer within the configured timeout."""


class DimensionError(EngineError):
    """A market or matrix is empty, has a mismatched shape or repeats an id."""


class InconsistentInputError(EngineError):
    """Metric inputs disagree (e.g. more pairs than tasks)."""


class DuplicateTaskError(EngineError):
    """Task already registered on the ledger."""


class UnknownTaskError(EngineError):
    """Task never registered on the ledger."""


class IllegalTransitionError(EngineError):
    """Requested task state change is not allowed by the lifecycle."""


class EpochRangeError(EngineError):
    """An epoch that is not an integer in [0, 2^64), the ledger's u64 epoch field's range."""
