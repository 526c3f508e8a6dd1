"""Controlled skill vocabulary and alias resolution.

The ontology file is JSONL, one entry per line:

    {"canonical": "Computer Vision", "aliases": ["CV", "computer-vision"], "parent": "Machine Learning"}

``parent`` is optional and must name another entry's canonical form. Every
canonical is implicitly an alias of itself. Resolution is exact match after a
fixed normalization; there is no fuzzy matching, so the mapping is fully
deterministic and auditable.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .errors import AliasConflictError, CycleError, ParseError, UnknownSkillError, read_jsonl

STRIP_CHARS = string.punctuation + string.whitespace

BUILTIN_ONTOLOGY = "builtin:cs"


def normalize_skill(raw: str) -> str:
    """Trim, lowercase, collapse internal whitespace, strip surrounding punctuation."""
    s = raw.strip(STRIP_CHARS).lower()
    return " ".join(s.split())


@dataclass(frozen=True)
class SkillEntry:
    """One canonical skill with its aliases and optional parent."""

    canonical: str
    aliases: tuple[str, ...] = ()
    parent: Optional[str] = None

    def __post_init__(self):
        if not self.canonical.strip():
            raise ParseError("canonical skill name must be non-empty")


class Ontology:
    """Immutable alias-to-canonical index with optional parent hierarchy."""

    def __init__(self, entries: Iterable[SkillEntry]):
        self.entries: tuple[SkillEntry, ...] = tuple(entries)
        self.alias_index: dict[str, str] = {}
        self._parents: dict[str, Optional[str]] = {}
        for entry in self.entries:
            if entry.canonical in self._parents:
                raise ParseError(f"duplicate canonical skill {entry.canonical!r}")
            self._parents[entry.canonical] = entry.parent
        for entry in self.entries:
            for alias in (entry.canonical, *entry.aliases):
                key = normalize_skill(alias)
                if not key:
                    raise ParseError(
                        f"alias {alias!r} of {entry.canonical!r} normalizes to nothing"
                    )
                owner = self.alias_index.get(key)
                if owner is not None and owner != entry.canonical:
                    raise AliasConflictError(key, owner, entry.canonical)
                self.alias_index[key] = entry.canonical
        for entry in self.entries:
            if entry.parent is not None and entry.parent not in self._parents:
                raise ParseError(
                    f"{entry.canonical!r} names unknown parent {entry.parent!r}"
                )
        self._check_acyclic()
        self.max_alias_tokens = max(
            (len(key.split()) for key in self.alias_index), default=0
        )
        # a span of two or more words can match only if its first token, stripped
        # like a whole key, is one of these; each maps to the most words of a
        # key that starts with it
        self.alias_first_keys: dict[str, int] = {}
        for key in self.alias_index:
            if " " in key:
                first = key.split(" ", 1)[0].rstrip(STRIP_CHARS)
                words = key.count(" ") + 1
                self.alias_first_keys[first] = max(words, self.alias_first_keys.get(first, 0))
        # an alias scan can start a match only at a token whose stripped key is
        # an alias, the first key of a multi-word alias, or empty (punctuation
        # only: its spans strip to spans of the next tokens)
        self.alias_start_keys = frozenset(self.alias_index).union(self.alias_first_keys, ("",))

    def _check_acyclic(self) -> None:
        for start in self._parents:
            seen = {start}
            cur = self._parents[start]
            while cur is not None:
                if cur in seen:
                    raise CycleError(f"parent cycle through {cur!r}")
                seen.add(cur)
                cur = self._parents[cur]

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, raw: str) -> Optional[str]:
        """Map a raw skill string to its canonical form, or None if unknown."""
        return self.alias_index.get(normalize_skill(raw))

    def rollup(self, skill: str, levels: int) -> str:
        """Follow parent links up to `levels` steps or until a root."""
        if skill not in self._parents:
            raise UnknownSkillError(skill)
        cur = skill
        for _ in range(levels):
            parent = self._parents[cur]
            if parent is None:
                break
            cur = parent
        return cur

    def root_of(self, skill: str) -> str:
        return self.rollup(skill, len(self._parents))

    def canonicalize_report(self, raws: Iterable[str]) -> tuple[set[str], list[str]]:
        """The canonicals the raw skills resolve to, and the raws that resolve to none."""
        resolved: set[str] = set()
        unresolved: list[str] = []
        for raw in raws:
            canonical = self.resolve(raw)
            if canonical is None:
                unresolved.append(raw)
            else:
                resolved.add(canonical)
        return resolved, unresolved


def _parse_entry(obj: dict, line: int) -> SkillEntry:
    if not isinstance(obj, dict):
        raise ParseError("entry must be an object", line)
    try:
        canonical = obj["canonical"]
    except KeyError:
        raise ParseError("missing 'canonical'", line) from None
    aliases = obj.get("aliases", [])
    parent = obj.get("parent")
    if not isinstance(canonical, str):
        raise ParseError("'canonical' must be a string", line)
    if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
        raise ParseError("'aliases' must be a list of strings", line)
    if parent is not None and not isinstance(parent, str):
        raise ParseError("'parent' must be a string or null", line)
    return SkillEntry(canonical=canonical, aliases=tuple(aliases), parent=parent)


def load_ontology(path: str) -> Ontology:
    """Load and validate an ontology; fails atomically on any bad entry.

    ``builtin:cs`` loads the bundled CS/IT starter vocabulary.
    """
    if path == BUILTIN_ONTOLOGY:
        path = resources.files("swati.data").joinpath("ontology_cs.jsonl")
    entries = read_jsonl(path, "ontology")
    return Ontology(_parse_entry(obj, line_no) for line_no, obj in entries)


def load_builtin_ontology() -> Ontology:
    return load_ontology(BUILTIN_ONTOLOGY)
