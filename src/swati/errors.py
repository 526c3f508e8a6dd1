"""Exception types shared across the engine.

Unreadable files surface as the builtin ``OSError``/``IOError``; everything
domain-specific gets a class here so callers can catch narrowly.
"""

import json


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


class DuplicateIdError(ParseError):
    """A document id appears more than once in a corpus."""

    def __init__(self, doc_id: str, line: int | None = None):
        self.doc_id = doc_id
        super().__init__(f"duplicate document id {doc_id!r}", line)


class ConfigError(EngineError):
    """Invalid configuration value or infeasible generation request."""


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


class VectorizerNotFittedError(EngineError):
    """A fitted vectorizer model is required but missing."""


class EmptyCorpusError(EngineError):
    """Vectorizer fitting requires at least one document."""


class SchemaViolationError(EngineError):
    """Extraction payload failed validation; ``path`` names the first bad field."""

    def __init__(self, path: str, reason: str = ""):
        self.path = path
        msg = path if not reason else f"{path}: {reason}"
        super().__init__(msg)


class TransportError(EngineError):
    """Remote extractor endpoint unreachable or returned a bad status."""


class RemoteTimeoutError(TransportError):
    """Remote extractor did not answer within the configured timeout."""


class DimensionError(EngineError):
    """Utility matrix construction needs at least one volunteer and one task."""


class InstanceTooLargeError(EngineError):
    """Brute-force matching is guarded to small instances."""


class InconsistentInputError(EngineError):
    """Metric inputs disagree (e.g. more pairs than tasks)."""


class DuplicateTaskError(EngineError):
    """Task already registered on the ledger."""


class UnknownTaskError(EngineError):
    """Task never registered on the ledger."""


class IllegalTransitionError(EngineError):
    """Requested task state change is not allowed by the lifecycle."""
