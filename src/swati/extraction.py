"""Document-to-structure extraction.

Two interchangeable extractors produce the same schema: a deterministic
rule-based scanner (the reference) and a remote HTTP client for an external
model endpoint. Downstream code never cares which one produced a result.

The rule-based scanner walks the document's whitespace tokens and matches
ontology aliases as whole-token sequences, longest match first, without
overlaps. Proficiency and preference cues come from fixed trigger lexicons
shipped in ``data/cue_lexicons.json`` so runs are reproducible, all found by
one regular-expression scan per document; proficiency is carried through to
diagnostics but deliberately plays no role in matching.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .corpus import Document
from .errors import (
    ConfigError,
    RemoteTimeoutError,
    SchemaViolationError,
    TransportError,
    VectorizerNotFittedError,
)
from .ontology import Ontology, normalize_skill
from .similarity import SparseVector, VectorizerModel, vectorize

_STRIP_CHARS = string.punctuation + string.whitespace

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
_FIRST_CHARS = {
    re.escape(term[0])
    for terms in (*_LEX["lexicons"].values(), _PROF["expertise_terms"])
    for term in terms
}
# The scan stops only where some phrase starts (the character class lets the
# regex engine skip other positions fast); there one optional lookahead per
# phrase records that phrase's match, so phrases that overlap (e.g. "hands-on"
# and "on-call" in "hands-on-call") are all seen.
_PHRASE_SOURCE = (
    r"\b(?=[\d" + "".join(sorted(_FIRST_CHARS)) + "])"
    + r"(?=(?:" + "|".join(_PHRASES.values()) + r")\b)"
    + "".join(f"(?:(?=(?P<{name}>{alt})\\b))?" for name, alt in _PHRASES.items())
)
_PHRASE_RE = re.compile(_PHRASE_SOURCE, re.IGNORECASE)
# For ASCII text: lowercasing keeps offsets and word boundaries, and matching the
# lowercased text without IGNORECASE is faster. That equals IGNORECASE matching
# only while every phrase term is lowercase ASCII, as the shipped lexicons are
# (a test checks this). On other text lowercasing can move offsets and word
# boundaries ('İ'.lower() is two characters, the second not a word character), and
# IGNORECASE also matches letters such as 'ſ' that lowercasing leaves alone.
_PHRASE_RE_ASCII = re.compile(_PHRASE_SOURCE)
_PHRASE_GROUPS = tuple((name, _PHRASE_RE.groupindex[name]) for name in _PHRASES)
_TOKEN_RE = re.compile(r"\S+")
# whitespace that str.strip(_STRIP_CHARS), and so normalize_skill, leaves in place
_UNSTRIPPED_SPACE_RE = re.compile(r"[^\S" + re.escape(string.whitespace) + "]")


@dataclass(frozen=True)
class SkillMention:
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
    doc_id: str
    mentions: tuple[SkillMention, ...]
    cues: PreferenceCues


@dataclass(frozen=True)
class Profile:
    id: str
    skills: frozenset[str]
    content_vector: SparseVector
    cues: PreferenceCues
    history_ref: Optional[str] = None


@dataclass(frozen=True)
class TaskSpec:
    id: str
    required_skills: frozenset[str]
    content_vector: SparseVector


def _trim_span(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start] in _STRIP_CHARS:
        start += 1
    while end > start and text[end - 1] in _STRIP_CHARS:
        end -= 1
    return start, end


def _span_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[0] < b[1] and b[0] < a[1]:
        return 0
    return b[0] - a[1] if b[0] >= a[1] else a[0] - b[1]


def find_alias_mentions(text: str, ontology: Ontology) -> list[tuple[int, int, str]]:
    """All non-overlapping alias matches as (start, end, canonical), longest first.

    The key of a span is ``normalize_skill`` of its text. It is built from the
    document's tokens, lowercased once: a one-token span's key is its stripped
    token, and a longer span's key is its tokens joined by one space and
    stripped, unless the document has whitespace that the strip does not
    remove (then the span's text is normalized).
    """
    words = text.lower().split()  # the \S+ tokens: lower() adds no whitespace
    keys = [word.strip(_STRIP_CHARS) for word in words]
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    index, first_keys = ontology.alias_index, ontology.alias_first_keys
    joinable = _UNSTRIPPED_SPACE_RE.search(text) is None
    # Only these tokens can start a match: a punctuation-only token (its spans
    # strip to spans of the next tokens), a token whose key is an alias, and one
    # that can start a multi-word alias. Any other token's spans have its own
    # key or a key whose first word starts no alias.
    starts = [
        i for i, key in enumerate(keys) if not key or key in index or key in first_keys
    ]
    found = []  # (first token, last token, canonical) of each match
    resume = 0  # tokens before this one belong to the last match
    for i in starts:
        if i < resume:
            continue
        max_len = min(ontology.max_alias_tokens, len(words) - i)
        if keys[i] and keys[i] not in first_keys:
            # A span reaching a later token that has content normalizes to a
            # key of two or more words whose first word no alias key starts
            # with. Spans whose extra tokens are punctuation only stay
            # candidates.
            reach = 1
            while reach < max_len and not keys[i + reach]:
                reach += 1
            max_len = reach
        for length in range(max_len, 0, -1):
            last = i + length - 1
            if length == 1:
                key = keys[i]
            elif joinable:
                key = " ".join(words[i : last + 1]).strip(_STRIP_CHARS)
            else:
                key = normalize_skill(text[spans[i][0] : spans[last][1]])
            canonical = index.get(key)
            if canonical is not None:
                found.append((i, last, canonical))
                resume = last + 1
                break
    return [
        (*_trim_span(text, spans[first][0], spans[last][1]), canonical)
        for first, last, canonical in found
    ]


def _scan_phrases(
    text: str,
) -> tuple[dict[str, int], list[tuple[int, int]], list[tuple[int, int]]]:
    """Count each cue lexicon's matches and find the proficiency phrases, in one scan.

    Each phrase keeps its own non-overlapping matches, exactly as a separate
    ``finditer`` per phrase would. Returns the cue counts, the expertise spans
    and the spans of the "N+ years" phrases with N >= ``min_years``.
    """
    if text.isascii():
        hits = _PHRASE_RE_ASCII.finditer(text.lower())
    else:
        hits = _PHRASE_RE.finditer(text)
    ends = dict.fromkeys(_PHRASES, 0)  # where each phrase's last match ended
    found: dict[str, list[tuple[int, int]]] = {name: [] for name in _PHRASES}
    for hit in hits:
        regs = hit.regs
        for name, group in _PHRASE_GROUPS:
            start, end = regs[group]
            if start >= ends[name]:  # an unmatched group has start -1
                ends[name] = end
                found[name].append((start, end))
    counts = {name: len(found[name]) for name in _LEX["lexicons"]}
    years = [
        (start, end)
        for start, end in found["years"]
        if int(text[start:end].partition("+")[0]) >= _PROF["min_years"]
    ]
    return counts, found["expertise"], years


def _proficiency(
    span: tuple[int, int],
    expertise: Sequence[tuple[int, int]],
    years: Sequence[tuple[int, int]],
) -> float:
    score = _PROF["base"]
    if any(_span_distance(span, phrase) <= PROXIMITY_WINDOW for phrase in expertise):
        score += _PROF["expertise_bonus"]
    if any(_span_distance(span, phrase) <= PROXIMITY_WINDOW for phrase in years):
        score += _PROF["years_bonus"]
    return min(1.0, score)


def _domain_affinity(canonicals: set[str], ontology: Ontology) -> float:
    if not canonicals:
        return 0.0
    roots: dict[str, int] = {}
    for skill in canonicals:
        root = ontology.root_of(skill)
        roots[root] = roots.get(root, 0) + 1
    # dominant root; ties broken by name so the score is deterministic
    dominant = min(roots, key=lambda r: (-roots[r], r))
    return roots[dominant] / len(canonicals)


def extract_rule_based(doc: Document, ontology: Ontology) -> ExtractionResult:
    """Deterministic extractor: alias scan plus lexicon-driven cue scores."""
    text = doc.text
    found = find_alias_mentions(text, ontology)
    counts, expertise, years = _scan_phrases(text)
    mentions = tuple(
        SkillMention(
            raw=text[start:end],
            evidence=(start, end),
            proficiency=_proficiency((start, end), expertise, years),
        )
        for start, end, _ in found
    )
    cues = PreferenceCues(
        domain_affinity=_domain_affinity({c for _, _, c in found}, ontology),
        prior_exposure=min(1.0, CUE_STEP * counts["prior_exposure"]),
        stated_interest=min(1.0, CUE_STEP * counts["stated_interest"]),
        volunteering_history=min(1.0, CUE_STEP * counts["volunteering_history"]),
        availability=min(1.0, CUE_STEP * counts["availability"]),
    )
    return ExtractionResult(doc_id=doc.id, mentions=mentions, cues=cues)


# --- schema validation ----------------------------------------------------


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolationError(path, "must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise SchemaViolationError(path, "out of [0, 1]") from None


def validate_extraction(raw_response: object, doc: Document) -> ExtractionResult:
    """Check a structured extractor response against the schema and the text.

    The first failing field is reported by path, e.g. ``mentions[0].evidence``.
    Every evidence span must actually contain its raw skill string
    (case-insensitive), so extractors cannot cite text they never saw.
    """
    if not isinstance(raw_response, dict):
        raise SchemaViolationError("", "response must be an object")
    unknown = sorted(set(raw_response) - {"skills", "cues"})
    if unknown:
        raise SchemaViolationError(unknown[0], "unexpected field")
    if "skills" not in raw_response:
        raise SchemaViolationError("skills", "missing")
    if "cues" not in raw_response:
        raise SchemaViolationError("cues", "missing")
    skills = raw_response["skills"]
    if not isinstance(skills, list):
        raise SchemaViolationError("skills", "must be a list")

    mentions = []
    for i, item in enumerate(skills):
        base = f"mentions[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(base, "must be an object")
        unknown = sorted(set(item) - {"raw", "evidence", "proficiency"})
        if unknown:
            raise SchemaViolationError(f"{base}.{unknown[0]}", "unexpected field")
        raw = item.get("raw")
        if not isinstance(raw, str) or not raw:
            raise SchemaViolationError(f"{base}.raw", "must be a non-empty string")
        evidence = item.get("evidence")
        if (
            not isinstance(evidence, (list, tuple))
            or len(evidence) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in evidence)
        ):
            raise SchemaViolationError(f"{base}.evidence", "must be [start, end]")
        start, end = evidence
        if not (0 <= start < end <= len(doc.text)):
            raise SchemaViolationError(
                f"{base}.evidence", f"span [{start}, {end}) outside text"
            )
        if raw.lower() not in doc.text[start:end].lower():
            raise SchemaViolationError(
                f"{base}.evidence", "span does not contain the raw skill"
            )
        prof = _require_number(item.get("proficiency"), f"{base}.proficiency")
        if not 0.0 <= prof <= 1.0:
            raise SchemaViolationError(f"{base}.proficiency", "out of [0, 1]")
        mentions.append(SkillMention(raw=raw, evidence=(start, end), proficiency=prof))

    cues_obj = raw_response["cues"]
    if not isinstance(cues_obj, dict):
        raise SchemaViolationError("cues", "must be an object")
    unknown = sorted(set(cues_obj) - set(CUE_NAMES))
    if unknown:
        raise SchemaViolationError(f"cues.{unknown[0]}", "unexpected field")
    values = {}
    for name in CUE_NAMES:
        if name not in cues_obj:
            raise SchemaViolationError(f"cues.{name}", "missing")
        value = _require_number(cues_obj[name], f"cues.{name}")
        if not 0.0 <= value <= 1.0:
            raise SchemaViolationError(f"cues.{name}", "out of [0, 1]")
        values[name] = value

    return ExtractionResult(
        doc_id=doc.id, mentions=tuple(mentions), cues=PreferenceCues(**values)
    )


# --- remote extractor -----------------------------------------------------


@dataclass(frozen=True)
class RemoteExtractorConfig:
    endpoint: str
    timeout: float = 10.0
    retries: int = 2
    schema_version: str = SCHEMA_VERSION
    api_key: Optional[str] = None

    def __post_init__(self):
        timeout, retries = self.timeout, self.retries
        if type(timeout) not in (int, float) or not 0.0 < timeout < math.inf:
            raise ConfigError(f"remote timeout must be a positive number, got {timeout!r}")
        if type(retries) is not int or retries < 0:
            raise ConfigError(f"remote retries must be an integer >= 0, got {retries!r}")

    @classmethod
    def from_env(cls, base: "RemoteExtractorConfig", env: dict) -> "RemoteExtractorConfig":
        """Apply SWATI_REMOTE_{TIMEOUT,RETRIES,API_KEY} overrides."""
        try:
            timeout = float(env.get("SWATI_REMOTE_TIMEOUT", base.timeout))
            retries = int(env.get("SWATI_REMOTE_RETRIES", base.retries))
        except ValueError as exc:
            raise ConfigError(
                f"SWATI_REMOTE_TIMEOUT/SWATI_REMOTE_RETRIES must be numbers: {exc}"
            ) from exc
        api_key = env.get("SWATI_REMOTE_API_KEY", base.api_key)
        return cls(
            endpoint=base.endpoint,
            timeout=timeout,
            retries=retries,
            schema_version=base.schema_version,
            api_key=api_key,
        )


def extract_remote(doc: Document, cfg: RemoteExtractorConfig) -> ExtractionResult:
    """POST the document to a schema-constrained endpoint and parse the reply.

    Schema-invalid responses are retried up to ``cfg.retries`` times; transport
    failures and timeouts are surfaced immediately. No local state is touched.
    """
    import requests  # only the remote extractor needs it; it is slow to import

    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    payload = {"doc_id": doc.id, "text": doc.text, "schema_version": cfg.schema_version}

    last_violation: Optional[SchemaViolationError] = None
    for _ in range(1 + cfg.retries):
        try:
            resp = requests.post(
                cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
            )
        except requests.Timeout as exc:
            raise RemoteTimeoutError(f"no response within {cfg.timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code != 200:
            raise TransportError(f"endpoint returned status {resp.status_code}")
        try:
            body = resp.json()
        except (ValueError, RecursionError):  # RecursionError: very deep nesting
            last_violation = SchemaViolationError("", "response is not valid JSON")
            continue
        try:
            return validate_extraction(body, doc)
        except SchemaViolationError as exc:
            last_violation = exc
    assert last_violation is not None
    raise last_violation


def load_prompt_template() -> str:
    return (
        resources.files("swati.data")
        .joinpath(f"extraction_prompt_{SCHEMA_VERSION}.txt")
        .read_text("utf-8")
    )


# --- profile construction and statistics ----------------------------------


def build_profile(
    doc: Document,
    ex: ExtractionResult,
    ontology: Ontology,
    vec: Optional[VectorizerModel],
) -> Profile:
    if vec is None:
        raise VectorizerNotFittedError("build_profile requires a fitted vectorizer")
    if ex.doc_id != doc.id:
        raise ValueError(f"extraction {ex.doc_id!r} does not match document {doc.id!r}")
    skills = ontology.canonicalize_set(m.raw for m in ex.mentions)
    return Profile(
        id=doc.id,
        skills=frozenset(skills),
        content_vector=vectorize(vec, doc.text),
        cues=ex.cues,
        history_ref=doc.meta.get("history_ref", doc.id),
    )


def build_taskspec(
    doc: Document,
    ex: ExtractionResult,
    ontology: Ontology,
    vec: Optional[VectorizerModel],
) -> TaskSpec:
    if vec is None:
        raise VectorizerNotFittedError("build_taskspec requires a fitted vectorizer")
    if ex.doc_id != doc.id:
        raise ValueError(f"extraction {ex.doc_id!r} does not match document {doc.id!r}")
    skills = ontology.canonicalize_set(m.raw for m in ex.mentions)
    return TaskSpec(
        id=doc.id,
        required_skills=frozenset(skills),
        content_vector=vectorize(vec, doc.text),
    )


@dataclass(frozen=True)
class Market:
    profiles: tuple[Profile, ...]
    taskspecs: tuple[TaskSpec, ...]
    volunteer_results: tuple[ExtractionResult, ...]
    task_results: tuple[ExtractionResult, ...]
    vectorizer: VectorizerModel


def build_market(corpus, ontology: Ontology, settings=None, extractor=None) -> Market:
    """Extract every document and assemble matching-ready profiles and specs.

    The vectorizer is fitted jointly over volunteers and tasks. ``extractor``
    defaults to the rule-based reference; any callable with the same signature
    (remote client, stub) slots in unchanged.
    """
    from .similarity import VectorizerSettings, fit_vectorizer

    if extractor is None:
        extractor = extract_rule_based
    if settings is None:
        settings = VectorizerSettings()
    vec = fit_vectorizer(corpus, settings)
    volunteer_results = tuple(extractor(doc, ontology) for doc in corpus.volunteers)
    task_results = tuple(extractor(doc, ontology) for doc in corpus.tasks)
    profiles = tuple(
        build_profile(doc, res, ontology, vec)
        for doc, res in zip(corpus.volunteers, volunteer_results)
    )
    taskspecs = tuple(
        build_taskspec(doc, res, ontology, vec)
        for doc, res in zip(corpus.tasks, task_results)
    )
    return Market(
        profiles=profiles,
        taskspecs=taskspecs,
        volunteer_results=volunteer_results,
        task_results=task_results,
        vectorizer=vec,
    )


@dataclass(frozen=True)
class ExtractionStats:
    total_skills: int
    unique_vocabulary: int
    avg_per_doc: int


def extraction_stats(
    results: Sequence[ExtractionResult], ontology: Ontology
) -> ExtractionStats:
    if not results:
        return ExtractionStats(0, 0, 0)
    union: set[str] = set()
    total = 0
    for result in results:
        skills = ontology.canonicalize_set(m.raw for m in result.mentions)
        total += len(skills)
        union |= skills
    return ExtractionStats(
        total_skills=total,
        unique_vocabulary=len(union),
        avg_per_doc=round(total / len(results)),
    )
