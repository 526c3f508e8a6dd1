"""Document-to-structure extraction.

Two interchangeable extractors produce the same schema: a deterministic
rule-based scanner (the reference) and a remote HTTP client for an external
model endpoint. Downstream code never cares which one produced a result.

The rule-based scanner walks the document's whitespace tokens and matches
ontology aliases as whole-token sequences, longest match first, without
overlaps. Proficiency and preference cues come from fixed trigger lexicons
shipped in ``data/cue_lexicons.json`` so runs are reproducible; proficiency
is carried through to diagnostics but deliberately plays no role in matching.
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


def _phrase_regex(terms: Sequence[str]) -> re.Pattern:
    parts = [re.escape(t).replace(r"\ ", r"\s+") for t in terms]
    return re.compile(r"\b(?:" + "|".join(parts) + r")\b", re.IGNORECASE)


_CUE_RES = {name: _phrase_regex(terms) for name, terms in _LEX["lexicons"].items()}
_EXPERTISE_RE = _phrase_regex(_PROF["expertise_terms"])
_YEARS_RE = re.compile(r"\b(\d+)\s*\+\s*years?\b", re.IGNORECASE)


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


def _tokens_with_spans(text: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]


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
    """All non-overlapping alias matches as (start, end, canonical), longest first."""
    tokens = _tokens_with_spans(text)
    # each token without its leading punctuation, lowercased; empty when the
    # token is punctuation only
    heads = [text[start:end].lstrip(_STRIP_CHARS).lower() for start, end in tokens]
    matches = []
    i = 0
    while i < len(tokens):
        matched = False
        max_len = min(ontology.max_alias_tokens, len(tokens) - i)
        if heads[i] and heads[i] not in ontology.alias_first_words:
            # A span reaching a later token that has content normalizes to a
            # key of two or more words starting with heads[i], which no alias
            # has. Spans whose extra tokens are punctuation only normalize to
            # the token's own key, so they stay candidates.
            reach = 1
            while reach < max_len and not heads[i + reach]:
                reach += 1
            max_len = reach
        for length in range(max_len, 0, -1):
            start, end = tokens[i][0], tokens[i + length - 1][1]
            canonical = ontology.alias_index.get(normalize_skill(text[start:end]))
            if canonical is not None:
                start, end = _trim_span(text, start, end)
                matches.append((start, end, canonical))
                i += length
                matched = True
                break
        if not matched:
            i += 1
    return matches


def _proficiency_phrases(text: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Spans of the expertise phrases and of the qualifying years phrases."""
    expertise = [m.span() for m in _EXPERTISE_RE.finditer(text)]
    years = [
        m.span() for m in _YEARS_RE.finditer(text) if int(m.group(1)) >= _PROF["min_years"]
    ]
    return expertise, years


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
    expertise, years = _proficiency_phrases(text)
    mentions = tuple(
        SkillMention(
            raw=text[start:end],
            evidence=(start, end),
            proficiency=_proficiency((start, end), expertise, years),
        )
        for start, end, _ in found
    )
    counts = {name: len(rx.findall(text)) for name, rx in _CUE_RES.items()}
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
    return float(value)


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
        except ValueError:
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
