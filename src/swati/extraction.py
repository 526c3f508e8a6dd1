"""Document-to-structure extraction.

Two interchangeable extractors produce the same schema: a deterministic
rule-based scanner (the reference) and a remote HTTP client for an external
model endpoint. Each resolves a document's skills once; downstream code
reads them and never cares which one produced a result.

The rule-based scanner extracts a corpus in chunks of whole documents, each
of ASCII documents only or of non-ASCII documents only. Each chunk is joined
into one buffer, lowercased if it is ASCII, which two scans read once: the
alias scan matches ontology aliases as whole-token sequences of a document,
longest match first, without overlaps, and one regular-expression scan
(with IGNORECASE on a non-ASCII buffer) finds the phrases of fixed trigger
lexicons shipped in ``data/cue_lexicons.json``, so runs are reproducible. The
phrases give the preference cues and the proficiency of nearby mentions.

Two assemblies share these scans. ``extract_corpus`` (``swati extract``)
builds every document's mentions, with raw text, evidence span and
proficiency, its canonical skills and its cues; proficiency is carried
through to diagnostics but deliberately plays no role in matching.
``build_market``'s rule-based path (``swati match``) reads only what
matching does: each document's canonical skills, straight from the alias
scan, and the cues of volunteers, whose text alone is phrase-scanned.
"""

from __future__ import annotations

import functools
import json
import re
import string
import time
import unicodedata
from dataclasses import dataclass, replace
from importlib import resources
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from .corpus import Document
from .errors import (
    ConfigError, ParseError, RemoteTimeoutError, SchemaViolationError, TransportError, integer,
    number, parse_json,
)
from .ontology import STRIP_CHARS, Ontology, normalize_skill
from .similarity import SparseRows, VectorizerSettings, count_terms, fit_vectorizer, term_vectors

SCHEMA_VERSION = "v1"

CUE_NAMES = (
    "domain_affinity",
    "prior_exposure",
    "stated_interest",
    "volunteering_history",
    "availability",
)


def _load_lexicons() -> dict:
    raw = resources.files("swati.data").joinpath("cue_lexicons.json").read_text("utf-8")
    return json.loads(raw)


_LEX = _load_lexicons()
PROXIMITY_WINDOW: int = _LEX["proximity_window"]
CUE_STEP: float = _LEX["cue_step"]
_PROF = _LEX["proficiency"]


def _alternation(terms: Sequence[str]) -> str:
    return "|".join(re.escape(t).replace(r"\ ", r"\s+") for t in terms)


# Phrases found by one scan: each cue lexicon, the expertise terms and "N+ years".
_PHRASES = {
    **{name: _alternation(terms) for name, terms in _LEX["lexicons"].items()},
    "expertise": _alternation(_PROF["expertise_terms"]),
    "years": r"\d+\s*\+\s*years?",
}
_TERMS = tuple(
    term for terms in (*_LEX["lexicons"].values(), _PROF["expertise_terms"]) for term in terms
)
# The scan stops only where some phrase starts (the character class lets the
# regex engine skip other positions fast); there one optional lookahead per
# phrase records that phrase's match, so phrases that overlap (e.g. "hands-on"
# and "on-call" in "hands-on-call") are all seen.
_PHRASE_SOURCE = (
    r"\b(?=[\d" + "".join(sorted({re.escape(term[0]) for term in _TERMS})) + "])"
    + r"(?=(?:" + "|".join(_PHRASES.values()) + r")\b)"
    + "".join(f"(?:(?=(?P<{name}>{alt})\\b))?" for name, alt in _PHRASES.items())
)
# For ASCII text: lowercasing keeps offsets and word boundaries, and matching the
# lowercased text without IGNORECASE is faster. That equals IGNORECASE matching
# only while every phrase term is lowercase ASCII, as the shipped lexicons are
# (a test checks this). On other text lowercasing can move offsets and word
# boundaries ('İ'.lower() is two characters, the second not a word character), and
# IGNORECASE also matches letters such as 'ſ' that lowercasing leaves alone.
_PHRASE_RE_ASCII = re.compile(_PHRASE_SOURCE)


@functools.cache
def _phrase_re_ignorecase() -> re.Pattern:
    """The phrase scan for non-ASCII text, compiled on first use."""
    return re.compile(_PHRASE_SOURCE, re.IGNORECASE)


def _start_pairs(terms: Iterable[str], offset: int = 0) -> np.ndarray:
    r"""Which character codes can be characters ``offset`` and ``offset + 1`` of a phrase match.

    For lowercased ASCII text and an offset of 0 or 1. "N+ years" is a digit,
    then digits, whitespace or "+", then anything. A term's space matches any
    run of whitespace (``\s+``), and anything can follow the end of a term.
    """
    spaces = [code for code in range(128) if re.match(r"\s", chr(code))]
    table = np.zeros((256, 256), dtype=bool)
    # "N+ years": a digit at offset 0, and a digit, "+" or whitespace at offset 1
    digits = [ord(c) for c in string.digits]
    table[digits if offset == 0 else [*digits, ord("+"), *spaces], :] = True
    for term in terms:
        pair = term[offset : offset + 2]
        if not pair:
            table[:, :] = True
        elif pair[0] == " ":
            table[spaces, :] = True
        elif len(pair) == 1:
            table[ord(pair), :] = True
        elif pair[1] == " ":
            table[ord(pair[0]), spaces] = True
        else:
            table[ord(pair[0]), ord(pair[1])] = True
    return table


_START_PAIRS = _start_pairs(_TERMS)
_NEXT_PAIRS = _start_pairs(_TERMS, offset=1)
# bytes.translate tables: 1 for a word character (as \b sees it), and 1 for a
# character that can start a phrase match
_WORD_BYTES = bytes(re.match(r"\w", chr(code)) is not None for code in range(256))
_FIRST_BYTES = _START_PAIRS.any(axis=1).tobytes()
# _space_kinds of each ASCII character, as a bytes.translate table: str.split
# splits at every whitespace character, and str.strip(STRIP_CHARS) removes
# only those of string.whitespace (kind 1), not '\x1c' to '\x1f' (kind 2)
_SPACE_BYTES = bytes(
    0 if not chr(code).isspace() else 1 if chr(code) in string.whitespace else 2
    for code in range(128)
) + bytes(128)
# whitespace that str.strip(STRIP_CHARS), and so normalize_skill, leaves in place
_UNSTRIPPED_SPACE_RE = re.compile(r"[^\S" + re.escape(string.whitespace) + "]")
# Most characters of the documents scanned as one buffer. The alias and phrase
# scans join and scan a corpus one chunk of whole documents at a time, so
# their buffers and token lists stay chunk-sized whatever the corpus's size;
# a longer document is a chunk of its own. Chunks of 16 to 64
# Ki characters scan a corpus equally fast, and at 64 Ki a `match` run on a
# 120 x 480 market peaked 0.7 MB higher in RSS.
_CHUNK_CHARS = 1 << 15


@dataclass(frozen=True)
class SkillMention:
    """A raw skill string, its evidence span in the text and a proficiency in [0, 1]."""

    raw: str
    evidence: tuple[int, int]
    proficiency: float

    def __post_init__(self):
        start, end = self.evidence
        if not 0 <= start < end:
            raise ValueError(f"bad evidence span {self.evidence}")
        if not 0.0 <= self.proficiency <= 1.0:
            raise ValueError("proficiency must lie in [0, 1]")


@dataclass(frozen=True)
class PreferenceCues:
    """The five preference cue scores of a document, each in [0, 1]."""

    domain_affinity: float = 0.0
    prior_exposure: float = 0.0
    stated_interest: float = 0.0
    volunteering_history: float = 0.0
    availability: float = 0.0

    def __post_init__(self):
        for name in CUE_NAMES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"cue {name} out of [0, 1]: {value}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in CUE_NAMES])


@dataclass(frozen=True)
class ExtractionResult:
    """One document's mentions and cues, their raws' canonical skills and the unresolved raws."""

    doc_id: str
    mentions: tuple[SkillMention, ...]
    cues: PreferenceCues
    skills: frozenset[str]
    unresolved: tuple[str, ...]


@dataclass(frozen=True)
class Profile:
    """A matching-ready volunteer: canonical skills, cues and history key."""

    id: str
    skills: frozenset[str]
    cues: PreferenceCues
    history_ref: Optional[str] = None


@dataclass(frozen=True)
class TaskSpec:
    """A matching-ready task: required canonical skills."""

    id: str
    required_skills: frozenset[str]


def _span_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[0] < b[1] and b[0] < a[1]:
        return 0
    return b[0] - a[1] if b[0] >= a[1] else a[0] - b[1]


def _space_kinds(text: str) -> np.ndarray:
    """Per character of ``text``: 0 if ``str.split`` does not split there, else 1 if
    ``str.strip(STRIP_CHARS)`` removes it and 2 if not."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii").translate(_SPACE_BYTES), dtype=np.uint8)
    # string.whitespace is ASCII; any other whitespace is kind 2
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    kinds = np.frombuffer(_SPACE_BYTES, dtype=np.uint8)[np.minimum(codes, 127)]
    kinds[[m.start() for m in _UNSTRIPPED_SPACE_RE.finditer(text)]] = 2
    return kinds


def _buffer(texts: Sequence[str]) -> tuple[str, np.ndarray, np.ndarray]:
    r"""The texts as one buffer, with each text's offset in it and its length.

    The buffer is a space, the texts separated by ``" \x00 "``, and a space,
    so text d starts at ``1 + sum(len(texts[k]) + 3 for k < d)``. An ASCII
    buffer is lowercased, which keeps every offset. Any other buffer keeps
    its case, because lowercasing can move offsets there (``'İ'.lower()`` is
    two characters).
    """
    buffer = " " + " \x00 ".join(texts) + " "
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    bases = np.cumsum(lengths + 3) - lengths - 2
    return (buffer.lower() if buffer.isascii() else buffer), bases, lengths


def _alias_matches(
    buffer: str, bases: np.ndarray, lengths: np.ndarray, ontology: Ontology
) -> list[tuple[int, int, int, str]]:
    r"""Every text's alias matches in a ``_buffer``, as (text, start, end, canonical).

    Text d is ``buffer[bases[d]:bases[d] + lengths[d]]``, and start and end
    are offsets into it. Matches are whole-token spans, longest first,
    without overlaps, each trimmed of surrounding punctuation. The key of a
    span is ``normalize_skill`` of its text: a one-token span's key is its
    stripped lowercased token, and a longer span's key is its tokens joined
    by one space and stripped, unless the text has whitespace that the strip
    does not remove (then the span's text is normalized). Token offsets come
    from one whitespace mask of the buffer. A match never leaves its text:
    the ``"\x00"`` token between two texts belongs to neither.
    """
    tokens = buffer.split()
    words = tokens if buffer.isascii() else buffer.lower().split()
    keys = list(map(str.strip, words, repeat(STRIP_CHARS)))
    index, first_keys = ontology.alias_index, ontology.alias_first_keys
    # the tokens a match can start at; any other token's spans have its own
    # key or a key whose first word starts no alias
    can_start = ontology.alias_start_keys
    tried = np.array([i for i, key in enumerate(keys) if key in can_start], dtype=np.intp)
    if not tried.size:
        return []
    kinds = _space_kinds(buffer)
    space = kinds > 0
    # token k starts at starts[k] and ends len(tokens[k]) characters later; the
    # buffer starts with whitespace, so each token start follows whitespace
    starts = np.flatnonzero(space[:-1] > space[1:]) + 1
    # the tokens of text d are tokens lo[d] up to hi[d]
    lo = np.searchsorted(starts, bases)
    hi = np.searchsorted(starts, bases + lengths)
    # a text's longer keys are its words joined, unless the strip keeps some
    # of its whitespace
    joinable = np.ones(len(bases), dtype=bool)
    joinable[np.searchsorted(bases, np.flatnonzero(kinds == 2), side="right") - 1] = False
    text_of = np.searchsorted(hi, tried, side="right")
    inside = tried >= lo[text_of]
    tried, text_of = tried[inside], text_of[inside]
    reach = np.minimum(hi[text_of] - tried, ontology.max_alias_tokens)
    found = []  # (text, first token, last token, canonical) of each match
    resume = 0  # tokens before this one belong to the last match
    candidates = zip(tried.tolist(), text_of.tolist(), reach.tolist(), joinable[text_of].tolist())
    for i, d, max_len, join in candidates:
        if i < resume:
            continue
        if keys[i]:
            # A span's key has one word per token up to its last token with
            # content, and its first word is this token's key; no alias key
            # starting with that word has more than ``most`` words. Trailing
            # tokens of punctuation only add no word.
            most = first_keys.get(keys[i], 1)
            span_len = min(most, max_len)
            while span_len < max_len and not keys[i + span_len]:
                span_len += 1
            max_len = span_len
        for length in range(max_len, 0, -1):
            last = i + length - 1
            if length == 1:
                key = keys[i]
            elif join:
                key = " ".join(words[i : last + 1]).strip(STRIP_CHARS)
            else:
                key = normalize_skill(buffer[starts[i] : starts[last] + len(tokens[last])])
            canonical = index.get(key)
            if canonical is not None:
                found.append((d, i, last, canonical))
                resume = last + 1
                break
    firsts = starts[[i for _, i, _, _ in found]].tolist()
    lasts = starts[[last for _, _, last, _ in found]].tolist()
    bases = bases.tolist()
    matches = []
    for (d, _, last, canonical), start, end in zip(found, firsts, lasts):
        # trim the span of surrounding punctuation; its key, an alias, is not empty
        end += len(tokens[last])
        while buffer[start] in STRIP_CHARS:
            start += 1
        while buffer[end - 1] in STRIP_CHARS:
            end -= 1
        matches.append((d, start - bases[d], end - bases[d], canonical))
    return matches


def _phrase_matches(buffer: str) -> list[list[tuple[int, int]]]:
    r"""Every phrase's matches in a ``_buffer``, as (start, end) lists in ``_PHRASES`` order.

    Each phrase keeps its own non-overlapping matches, exactly as a separate
    ``finditer`` per phrase and text would; no match leaves its text. In an
    ASCII buffer the ``"\x00"`` between two texts ends both: no phrase
    contains it, and ``\b`` and the lookaheads treat it like the end of a
    text. numpy marks the word starts whose first three characters can
    begin a phrase, and the regex is tried only there;
    ``match`` at ``pos`` reads the character before ``pos`` for ``\b``, so it
    finds exactly ``finditer``'s hit at that position. A non-ASCII buffer is
    scanned with IGNORECASE.
    """
    if buffer.isascii():
        data = buffer.encode("ascii")
        word = np.frombuffer(data.translate(_WORD_BYTES), dtype=bool)
        first = np.frombuffer(data.translate(_FIRST_BYTES), dtype=bool)
        starts = np.flatnonzero(first[1:] & (word[1:] != word[:-1])) + 1  # at a \b
        # the buffer ends with a space, and one more lets every start read two after it
        codes = np.frombuffer(data + b" ", dtype=np.uint8)
        starts = starts[_START_PAIRS[codes[starts], codes[starts + 1]]]
        starts = starts[_NEXT_PAIRS[codes[starts + 1], codes[starts + 2]]]
        hits = filter(None, map(_PHRASE_RE_ASCII.match, repeat(buffer), starts.tolist()))
    else:
        hits = _phrase_re_ignorecase().finditer(buffer)
    spans = [[] for _ in _PHRASES]
    ends = [0] * len(spans)  # where each phrase's last match ended
    for hit in hits:
        # phrase k is group k + 1; an unmatched group's span (-1, -1) starts before any end
        for k, (start, end) in enumerate(hit.regs[1:]):
            if start >= ends[k]:
                ends[k] = end
                spans[k].append((start, end))
    return spans


def _at_least_min_years(number: str) -> bool:
    """``int(number) >= min_years`` without converting: ``int`` refuses 4,301 digits."""
    # \d also matches other scripts' decimal digits
    digits = "".join(str(unicodedata.decimal(c)) for c in number.strip())
    digits, bound = digits.lstrip("0"), str(_PROF["min_years"]).lstrip("0")
    return (len(digits), digits) >= (len(bound), bound)


def _proficiency(
    span: tuple[int, int],
    expertise: Sequence[tuple[int, int]],
    years: Sequence[tuple[int, int]],
) -> float:
    score = _PROF["base"]
    # most documents have neither phrase: skip building the any() scans
    if expertise and any(_span_distance(span, p) <= PROXIMITY_WINDOW for p in expertise):
        score += _PROF["expertise_bonus"]
    if years and any(_span_distance(span, p) <= PROXIMITY_WINDOW for p in years):
        score += _PROF["years_bonus"]
    return min(1.0, score)


def _domain_affinity(canonicals: set[str], root_of: Callable[[str], str]) -> float:
    """The share of ``canonicals`` under their most common root."""
    if not canonicals:
        return 0.0
    roots = list(map(root_of, canonicals))
    return max(map(roots.count, roots)) / len(roots)


def _chunks(texts: Sequence[str]) -> Iterator[list[int]]:
    """Groups of indices into ``texts``, in increasing order, each scanned as one ``_buffer``.

    A group holds texts of at most ``_CHUNK_CHARS`` characters in all, or one
    longer text. Its texts are all ASCII or all not, so that ASCII texts keep
    the lowercased buffer and its prefiltered phrase scan, and each kind is
    grouped on its own, so that a corpus alternating between them still
    gets full chunks.
    """
    groups: dict[bool, list[int]] = {True: [], False: []}  # by isascii()
    sizes = {True: 0, False: 0}
    for i, text in enumerate(texts):
        kind = text.isascii()
        if groups[kind] and sizes[kind] + len(text) > _CHUNK_CHARS:
            yield groups[kind]
            groups[kind], sizes[kind] = [], 0
        groups[kind].append(i)
        sizes[kind] += len(text)
    yield from filter(None, groups.values())


def _texts_of(bases: np.ndarray, spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """The text of each buffer span, for a ``_buffer`` whose texts start at ``bases``."""
    return np.searchsorted(bases, [start for start, _ in spans], side="right") - 1


def _cues(
    skills: Sequence[set[str]],
    phrases: dict[str, list[tuple[int, int]]],
    bases: np.ndarray,
    root_of: Callable[[str], str],
) -> list[PreferenceCues]:
    """Each text's cues, from its canonical skills and its buffer's phrases by name."""
    counts = [
        np.bincount(_texts_of(bases, phrases[name]), minlength=len(skills))
        for name in CUE_NAMES[1:]
    ]
    rows = np.minimum(1.0, CUE_STEP * np.array(counts)).T.tolist()
    return [
        PreferenceCues(_domain_affinity(canonicals, root_of), *row)
        for canonicals, row in zip(skills, rows)
    ]


def _in_chunks(texts: Sequence[str], scan: Callable[[list[str]], list]) -> list:
    """One result per text, in order: ``scan`` of each ``_chunks`` group of texts gives theirs."""
    results = [None] * len(texts)
    for group in _chunks(texts):
        for i, result in zip(group, scan([texts[i] for i in group])):
            results[i] = result
    return results


def _extract_chunk(
    texts: Sequence[str], ontology: Ontology, root_of: Callable[[str], str]
) -> list[tuple[tuple[SkillMention, ...], PreferenceCues, frozenset[str]]]:
    """Each text's mentions, cues and alias-scan canonicals, for texts of one ``_chunks`` group."""
    buffer, bases, lengths = _buffer(texts)
    found = _alias_matches(buffer, bases, lengths, ontology)
    phrases = dict(zip(_PHRASES, _phrase_matches(buffer)))
    offsets = bases.tolist()
    expertise, years = {}, {}  # each text's proficiency phrases, by text
    for name, by_text in (("expertise", expertise), ("years", years)):
        for d, (start, end) in zip(_texts_of(bases, phrases[name]).tolist(), phrases[name]):
            start, end = start - offsets[d], end - offsets[d]
            # "N+ years" counts from min_years; the buffer at most lowercases the text
            if name == "expertise" or _at_least_min_years(texts[d][start:end].partition("+")[0]):
                by_text.setdefault(d, []).append((start, end))
    mentions = [[] for _ in texts]
    skills = [set() for _ in texts]
    for d, start, end, canonical in found:
        proficiency = _proficiency((start, end), expertise.get(d, ()), years.get(d, ()))
        mentions[d].append(SkillMention(texts[d][start:end], (start, end), proficiency))
        skills[d].add(canonical)
    cues = _cues(skills, phrases, bases, root_of)
    return list(zip(map(tuple, mentions), cues, map(frozenset, skills)))


def _market_chunk(
    texts: Sequence[str], ontology: Ontology, root_of: Callable[[str], str], cues: bool
) -> list[tuple[frozenset[str], Optional[PreferenceCues]]]:
    """Each text's canonical skills and, if ``cues``, its cues, for texts of one ``_chunks`` group.

    The canonicals come straight from the alias scan, which resolves each
    match's key, so no raw string is resolved again. Each match's evidence
    span is found but not read, and no ``SkillMention`` is built. Without
    ``cues`` no phrase is scanned.
    """
    buffer, bases, lengths = _buffer(texts)
    skills = [set() for _ in texts]
    for d, _, _, canonical in _alias_matches(buffer, bases, lengths, ontology):
        skills[d].add(canonical)
    if not cues:
        return [(frozenset(canonicals), None) for canonicals in skills]
    phrases = dict(zip(_PHRASES, _phrase_matches(buffer)))
    found_cues = _cues(skills, phrases, bases, root_of)
    return [(frozenset(canonicals), c) for canonicals, c in zip(skills, found_cues)]


def extract_corpus(docs: Sequence[Document], ontology: Ontology) -> list[ExtractionResult]:
    """Deterministic extractor, one result per document: alias scan plus lexicon-driven cues.

    Documents are scanned in chunks of whole documents (``_chunks``), each
    joined into one buffer once (``_buffer``): the alias scan and the phrase
    scan each make one pass over it, and the results are assembled per
    chunk. Every mention is an alias match, so none is unresolved.
    """
    root_of = functools.cache(ontology.root_of)
    found = _in_chunks(
        [doc.text for doc in docs], lambda texts: _extract_chunk(texts, ontology, root_of)
    )
    return [ExtractionResult(doc.id, *parts, ()) for doc, parts in zip(docs, found)]


# --- schema validation ----------------------------------------------------


def _unit_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolationError(path, "must be a number")
    # an integer too large for a float is out of range; the range test rejects NaN too
    if not 0.0 <= value <= 1.0:
        raise SchemaViolationError(path, "out of [0, 1]")
    return float(value)


def _closed_object(value: object, prefix: str, fields: Iterable[str]) -> dict:
    """``value`` if it is an object with only ``fields``, whose paths start with ``prefix``."""
    if not isinstance(value, dict):
        raise SchemaViolationError(
            prefix[:-1], "must be an object" if prefix else "response must be an object"
        )
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise SchemaViolationError(prefix + unknown[0], "unexpected field")
    return value


def validate_extraction(
    raw_response: object, doc: Document, ontology: Ontology
) -> ExtractionResult:
    """Check a structured extractor response against the schema and the text.

    The first failing field is reported by path, e.g. ``mentions[0].evidence``.
    Every evidence span must actually contain its raw skill string
    (case-insensitive), so extractors cannot cite text they never saw. The
    raws of a valid response are resolved through ``ontology`` once.
    """
    response = _closed_object(raw_response, "", ("skills", "cues"))
    for name in ("skills", "cues"):
        if name not in response:
            raise SchemaViolationError(name, "missing")
    skills = response["skills"]
    if not isinstance(skills, list):
        raise SchemaViolationError("skills", "must be a list")

    mentions = []
    for i, item in enumerate(skills):
        base = f"mentions[{i}]."
        item = _closed_object(item, base, ("raw", "evidence", "proficiency"))
        raw = item.get("raw")
        if not isinstance(raw, str) or not raw:
            raise SchemaViolationError(f"{base}raw", "must be a non-empty string")
        evidence = item.get("evidence")
        if (
            not isinstance(evidence, (list, tuple))
            or len(evidence) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in evidence)
        ):
            raise SchemaViolationError(f"{base}evidence", "must be [start, end]")
        start, end = evidence
        if not (0 <= start < end <= len(doc.text)):
            raise SchemaViolationError(
                f"{base}evidence", f"span [{start}, {end}) outside text"
            )
        if raw.lower() not in doc.text[start:end].lower():
            raise SchemaViolationError(
                f"{base}evidence", "span does not contain the raw skill"
            )
        prof = _unit_number(item.get("proficiency"), f"{base}proficiency")
        mentions.append(SkillMention(raw=raw, evidence=(start, end), proficiency=prof))

    cues_obj = _closed_object(response["cues"], "cues.", CUE_NAMES)
    values = {}
    for name in CUE_NAMES:
        if name not in cues_obj:
            raise SchemaViolationError(f"cues.{name}", "missing")
        values[name] = _unit_number(cues_obj[name], f"cues.{name}")

    skills, unresolved = ontology.canonicalize_report(m.raw for m in mentions)
    return ExtractionResult(
        doc.id, tuple(mentions), PreferenceCues(**values), frozenset(skills), tuple(unresolved)
    )


# --- remote extractor -----------------------------------------------------


# a match if every character of the text is visible ASCII, 0x21-0x7E
_visible_ascii = re.compile("[!-~]*").fullmatch


def _http_url(endpoint: str) -> bool:
    """Whether urllib can be given ``endpoint``: a visible-ASCII http(s) URL with a host.

    Its port must read as a number. It must hold no user information, which
    urllib would look up as part of the host name. Its host must hold no
    percent-escape, which urllib would decode, and no label that the
    socket's IDNA encoding refuses: an empty one, or one of more than 63
    characters.
    """
    if not _visible_ascii(endpoint):
        return False
    try:
        parts = urlsplit(endpoint)
        parts.port  # raises ValueError for a port that is not a number in [0, 65535]
        host = parts.hostname or ""
        host.encode("idna")  # raises UnicodeError, a ValueError, for a bad label
    except ValueError:
        return False
    return (
        parts.scheme in ("http", "https") and bool(host)
        and "@" not in parts.netloc and "%" not in host
    )


@dataclass(frozen=True)
class RemoteExtractorConfig:
    """Endpoint, limits and credentials of the remote extractor."""

    endpoint: str
    timeout: float = 10.0
    retries: int = 2
    api_key: Optional[str] = None

    def __post_init__(self):
        endpoint, api_key = self.endpoint, self.api_key
        if type(endpoint) is not str or not endpoint:
            raise ConfigError(f"extractor.remote endpoint must be a URL string, got {endpoint!r}")
        if not _http_url(endpoint):  # not echoed, as it may hold credentials
            raise ConfigError(
                "extractor.remote endpoint must be an http or https URL of visible ASCII,"
                " with a host and no user information"
            )
        # socket.settimeout overflows above about 9.2e9 s; 1e9 s fits a 32-bit time_t
        if number(self.timeout, "extractor.remote.timeout", hi=1e9) <= 0:
            raise ConfigError(f"extractor.remote.timeout must be > 0, got {self.timeout!r}")
        integer(self.retries, "extractor.remote.retries", 0)
        if api_key is not None and type(api_key) is not str:
            raise ConfigError(f"extractor.remote api_key must be a string, got {api_key!r}")
        if api_key is not None and not _visible_ascii(api_key):  # a header value; not echoed
            raise ConfigError("extractor.remote api_key must be visible ASCII (0x21-0x7E)")

    @classmethod
    def from_env(cls, base: "RemoteExtractorConfig", env: dict) -> "RemoteExtractorConfig":
        """Take the API key from SWATI_REMOTE_API_KEY when it is set."""
        return replace(base, api_key=env.get("SWATI_REMOTE_API_KEY", base.api_key))


# Backoff before retrying a 5xx reply: 0.5 s, doubling, at most 4 s.
_BACKOFF_FIRST_S = 0.5
_BACKOFF_MAX_S = 4.0


def extract_remote(
    doc: Document, cfg: RemoteExtractorConfig, ontology: Ontology, sleep=time.sleep
) -> ExtractionResult:
    """POST the document to a schema-constrained endpoint and parse the reply.

    Schema-invalid responses and 5xx statuses are retried, ``cfg.retries``
    times in all; a 5xx retry first waits with bounded exponential backoff
    through ``sleep``. A body that is not UTF-8 JSON is a schema violation.
    Other statuses, transport failures and timeouts, a stall partway through
    the body included, are surfaced immediately. No redirect is followed: a
    3xx is a status like any other. No local state is touched. The valid
    reply's raws are resolved through ``ontology`` (``validate_extraction``).
    """
    # only the remote extractor needs them; urllib.request loads ssl and libcrypto
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # the 3xx then surfaces as an HTTPError

    opener = urllib.request.build_opener(NoRedirect)
    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    payload = {"doc_id": doc.id, "text": doc.text, "schema_version": SCHEMA_VERSION}
    data = json.dumps(payload).encode()

    last_error: Optional[Exception] = None
    backoff = _BACKOFF_FIRST_S
    for _ in range(1 + cfg.retries):
        if isinstance(last_error, TransportError):
            sleep(backoff)
            backoff = min(2 * backoff, _BACKOFF_MAX_S)
        request = urllib.request.Request(cfg.endpoint, data=data, headers=headers, method="POST")
        try:
            with opener.open(request, timeout=cfg.timeout) as resp:
                status, raw = resp.status, resp.read()
        except HTTPError as exc:
            exc.close()
            status, raw = exc.code, b""
        except OSError as exc:
            reason = getattr(exc, "reason", None)  # a URLError wraps a failure to connect
            if isinstance(exc, TimeoutError) or isinstance(reason, TimeoutError):
                raise RemoteTimeoutError(f"no response within {cfg.timeout}s") from exc
            raise TransportError(str(exc)) from exc
        except HTTPException as exc:  # IncompleteRead, for one, is not an OSError
            raise TransportError(str(exc)) from exc
        if 500 <= status < 600:
            last_error = TransportError(f"endpoint returned status {status}")
            continue
        if status != 200:
            raise TransportError(f"endpoint returned status {status}")
        try:
            body = parse_json(raw.decode("utf-8"))
        except (UnicodeDecodeError, ParseError):
            last_error = SchemaViolationError("", "response is not valid JSON")
            continue
        try:
            return validate_extraction(body, doc, ontology)
        except SchemaViolationError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


# --- profile construction and statistics ----------------------------------


@dataclass(frozen=True)
class Market:
    """The extracted volunteer profiles and task specs of one corpus, with their content vectors.

    Row i of ``volunteer_vectors`` is profile i's content vector, and row j of
    ``task_vectors`` is task spec j's.
    """

    profiles: tuple[Profile, ...]
    taskspecs: tuple[TaskSpec, ...]
    volunteer_vectors: SparseRows
    task_vectors: SparseRows


def build_market(
    corpus,
    ontology: Ontology,
    settings: VectorizerSettings = VectorizerSettings(),
    extractor=None,
) -> Market:
    """Extract every document and assemble matching-ready profiles and specs.

    The vectorizer is fitted jointly over volunteers and tasks. Each document
    is tokenized once: its term counts give both the document frequencies and
    its content vector.

    Without an ``extractor`` the market is read straight from the rule-based
    scans (``_market_chunk``): a document's canonical skills are the ones its
    alias scan resolved, and only volunteer text is scanned for preference
    cues, since only profiles carry them. No mention or proficiency is
    built, as matching reads neither; ``swati extract`` gets them from
    ``extract_corpus``. The market is the one that ``extract_corpus``'s
    results would give. An ``extractor(docs, ontology)`` (remote client,
    stub) returns one result per document, in order, and each result's
    ``skills`` are read as they are.
    """
    docs = corpus.documents()
    terms = count_terms((doc.text for doc in docs), settings)
    vectors = term_vectors(fit_vectorizer(terms, settings), terms)
    n_volunteers = len(corpus.volunteers)
    if extractor is None:
        root_of = functools.cache(ontology.root_of)
        volunteers = _in_chunks(
            [doc.text for doc in corpus.volunteers],
            lambda texts: _market_chunk(texts, ontology, root_of, cues=True),
        )
        tasks = _in_chunks(
            [doc.text for doc in corpus.tasks],
            lambda texts: _market_chunk(texts, ontology, root_of, cues=False),
        )
        skills = [canonicals for canonicals, _ in volunteers + tasks]
        cues = [doc_cues for _, doc_cues in volunteers]
    else:
        results = extractor(docs, ontology)
        if len(results) != len(docs):
            raise ValueError(
                f"extractor returned {len(results)} results for {len(docs)} documents"
            )
        for doc, res in zip(docs, results):
            if res.doc_id != doc.id:
                raise ValueError(f"extraction {res.doc_id!r} does not match document {doc.id!r}")
        skills = [res.skills for res in results]
        cues = [res.cues for res in results[:n_volunteers]]
    return Market(
        profiles=tuple(
            Profile(
                id=doc.id,
                skills=skills[i],
                cues=cues[i],
                history_ref=doc.meta.get("history_ref", doc.id),
            )
            for i, doc in enumerate(corpus.volunteers)
        ),
        taskspecs=tuple(
            TaskSpec(id=doc.id, required_skills=skills[n_volunteers + j])
            for j, doc in enumerate(corpus.tasks)
        ),
        volunteer_vectors=vectors.rows(0, n_volunteers),
        task_vectors=vectors.rows(n_volunteers, len(docs)),
    )


@dataclass(frozen=True)
class ExtractionStats:
    """Skill totals of a batch of extraction results."""

    total_skills: int
    unique_vocabulary: int
    avg_per_doc: int


def extraction_stats(results: Sequence[ExtractionResult]) -> ExtractionStats:
    """The totals of the results' canonical skills."""
    if not results:
        return ExtractionStats(0, 0, 0)
    total = sum(len(result.skills) for result in results)
    union = frozenset().union(*(result.skills for result in results))
    return ExtractionStats(
        total_skills=total,
        unique_vocabulary=len(union),
        avg_per_doc=round(total / len(results)),
    )
