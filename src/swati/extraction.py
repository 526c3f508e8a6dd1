"""Document-to-structure extraction.

Two interchangeable extractors produce the same schema: a deterministic
rule-based scanner (the reference) and a remote HTTP client for an external
model endpoint. Downstream code never cares which one produced a result.

The rule-based scanner extracts a whole corpus as one batch. It walks each
document's whitespace tokens and matches ontology aliases as whole-token
sequences, longest match first, without overlaps. Proficiency and preference
cues come from fixed trigger lexicons shipped in ``data/cue_lexicons.json`` so
runs are reproducible, all found by one regular-expression scan of the
corpus; proficiency is carried through to diagnostics but deliberately plays
no role in matching.
"""

from __future__ import annotations

import functools
import json
import math
import re
import string
import time
import unicodedata
from dataclasses import dataclass, replace
from importlib import resources
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import Document
from .errors import ConfigError, RemoteTimeoutError, SchemaViolationError, TransportError
from .ontology import _STRIP_CHARS, Ontology, normalize_skill
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
_PHRASE_GROUPS = tuple((name, _PHRASE_RE_ASCII.groupindex[name]) for name in _PHRASES)


@functools.cache
def _phrase_re_ignorecase() -> re.Pattern:
    """The phrase scan for non-ASCII text, compiled on first use."""
    return re.compile(_PHRASE_SOURCE, re.IGNORECASE)


def _start_pairs(terms: Iterable[str]) -> np.ndarray:
    r"""Which ``[first, second]`` character codes can start a phrase match.

    For lowercased ASCII text: a digit may start "N+ years" before anything,
    and a term's second character is a literal, any whitespace where the term
    has a space (matched by ``\s+``), or anything after a one-character term.
    """
    table = np.zeros((256, 256), dtype=bool)
    table[[ord(c) for c in string.digits], :] = True
    spaces = [code for code in range(128) if re.match(r"\s", chr(code))]
    for term in terms:
        if len(term) == 1:
            table[ord(term), :] = True
        elif term[1] == " ":
            table[ord(term[0]), spaces] = True
        else:
            table[ord(term[0]), ord(term[1])] = True
    return table


_START_PAIRS = _start_pairs(_TERMS)
# bytes.translate tables: 1 for a word character (as \b sees it), and 1 for a
# character that can start a phrase match
_WORD_BYTES = bytes(re.match(r"\w", chr(code)) is not None for code in range(256))
_FIRST_BYTES = _START_PAIRS.any(axis=1).tobytes()
_TOKEN_RE = re.compile(r"\S+")
# whitespace that str.strip(_STRIP_CHARS), and so normalize_skill, leaves in place
_UNSTRIPPED_SPACE_RE = re.compile(r"[^\S" + re.escape(string.whitespace) + "]")


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
    """An extractor's output for one document: skill mentions and preference cues."""

    doc_id: str
    mentions: tuple[SkillMention, ...]
    cues: PreferenceCues


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
    remove (then the span's text is normalized). Token offsets are found
    only up to the last matched token, or for the whole document once a
    span's text has to be normalized.
    """
    words = text.lower().split()  # the \S+ tokens: lower() adds no whitespace
    keys = [word.strip(_STRIP_CHARS) for word in words]
    spans = None  # the tokens' (start, end) offsets in ``text``, found on demand
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
                if spans is None:
                    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
                key = normalize_skill(text[spans[i][0] : spans[last][1]])
            canonical = index.get(key)
            if canonical is not None:
                found.append((i, last, canonical))
                resume = last + 1
                break
    if found and spans is None:
        spans = [m.span() for m in islice(_TOKEN_RE.finditer(text), found[-1][1] + 1)]
    return [
        (*_trim_span(text, spans[first][0], spans[last][1]), canonical)
        for first, last, canonical in found
    ]


def _phrase_spans(texts: Sequence[str]) -> Iterator[dict[str, list[tuple[int, int]]]]:
    r"""Every phrase's matches in each text, as offsets into that text, text by text.

    Each phrase keeps its own non-overlapping matches, exactly as a separate
    ``finditer`` per phrase and text would. The ASCII texts are lowercased and
    joined, framed by ``"\x00"``: no phrase contains it, and ``\b`` and the
    lookaheads treat it like the end of a text. numpy marks, in one pass, the
    word starts whose first two characters can begin a phrase, and the regex
    is tried only there; ``match`` at ``pos`` reads the character before
    ``pos`` for ``\b``, so it finds exactly ``finditer``'s hit at that
    position. Other texts are scanned with IGNORECASE.
    """
    ascii_texts = [text for text in texts if text.isascii()]
    joined = ("\x00" + "\x00".join(ascii_texts) + "\x00").lower()
    data = joined.encode("ascii")
    word = np.frombuffer(data.translate(_WORD_BYTES), dtype=bool)
    first = np.frombuffer(data.translate(_FIRST_BYTES), dtype=bool)
    starts = np.flatnonzero(first[1:] & (word[1:] != word[:-1])) + 1  # at a \b
    codes = np.frombuffer(data, dtype=np.uint8)
    starts = starts[_START_PAIRS[codes[starts], codes[starts + 1]]]
    del data, word, first, codes  # this frame lives until the last text is extracted
    # where each ASCII text begins in ``joined``, and its first candidate
    bases = np.cumsum([1] + [len(text) + 1 for text in ascii_texts]).tolist()
    cuts = np.searchsorted(starts, bases).tolist()
    match = _PHRASE_RE_ASCII.match
    j = 0  # the next ASCII text
    for text in texts:
        if text.isascii():
            base = bases[j]
            hits = map(match, repeat(joined), starts[cuts[j] : cuts[j + 1]].tolist())
            j += 1
        else:
            base = 0
            hits = _phrase_re_ignorecase().finditer(text)
        spans = {name: [] for name in _PHRASES}
        ends = dict.fromkeys(_PHRASES, 0)  # where each phrase's last match ended
        for hit in hits:
            if hit is None:
                continue
            regs = hit.regs
            for name, group in _PHRASE_GROUPS:
                start, end = regs[group]
                if start >= ends[name]:  # an unmatched group has start -1
                    ends[name] = end
                    spans[name].append((start - base, end - base))
        yield spans


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
    if not canonicals:
        return 0.0
    roots: dict[str, int] = {}
    for skill in canonicals:
        root = root_of(skill)
        roots[root] = roots.get(root, 0) + 1
    # dominant root; ties broken by name so the score is deterministic
    dominant = min(roots, key=lambda r: (-roots[r], r))
    return roots[dominant] / len(canonicals)


def extract_corpus(docs: Sequence[Document], ontology: Ontology) -> list[ExtractionResult]:
    """Deterministic extractor, one result per document: alias scan plus lexicon-driven cues.

    The phrases of all documents are found in one batch (``_phrase_spans``);
    the alias scan runs per document.
    """
    texts = [doc.text for doc in docs]
    root_of = functools.cache(ontology.root_of)
    results = []
    for doc, text, phrases in zip(docs, texts, _phrase_spans(texts)):
        found = find_alias_mentions(text, ontology)
        expertise = phrases["expertise"]
        years = [
            (start, end)
            for start, end in phrases["years"]
            if _at_least_min_years(text[start:end].partition("+")[0])
        ]
        mentions = tuple(
            SkillMention(
                raw=text[start:end],
                evidence=(start, end),
                proficiency=_proficiency((start, end), expertise, years),
            )
            for start, end, _ in found
        )
        cues = PreferenceCues(
            domain_affinity=_domain_affinity({c for _, _, c in found}, root_of),
            prior_exposure=min(1.0, CUE_STEP * len(phrases["prior_exposure"])),
            stated_interest=min(1.0, CUE_STEP * len(phrases["stated_interest"])),
            volunteering_history=min(1.0, CUE_STEP * len(phrases["volunteering_history"])),
            availability=min(1.0, CUE_STEP * len(phrases["availability"])),
        )
        results.append(ExtractionResult(doc_id=doc.id, mentions=mentions, cues=cues))
    return results


def extract_rule_based(doc: Document, ontology: Ontology) -> ExtractionResult:
    """``extract_corpus`` of one document."""
    return extract_corpus([doc], ontology)[0]


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


def validate_extraction(raw_response: object, doc: Document) -> ExtractionResult:
    """Check a structured extractor response against the schema and the text.

    The first failing field is reported by path, e.g. ``mentions[0].evidence``.
    Every evidence span must actually contain its raw skill string
    (case-insensitive), so extractors cannot cite text they never saw.
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

    return ExtractionResult(
        doc_id=doc.id, mentions=tuple(mentions), cues=PreferenceCues(**values)
    )


# --- remote extractor -----------------------------------------------------


@dataclass(frozen=True)
class RemoteExtractorConfig:
    """Endpoint, limits and credentials of the remote extractor."""

    endpoint: str
    timeout: float = 10.0
    retries: int = 2
    api_key: Optional[str] = None

    def __post_init__(self):
        endpoint, api_key = self.endpoint, self.api_key
        timeout, retries = self.timeout, self.retries
        if type(endpoint) is not str or not endpoint:
            raise ConfigError(f"extractor.remote endpoint must be a URL string, got {endpoint!r}")
        if type(timeout) not in (int, float) or not 0.0 < timeout < math.inf:
            raise ConfigError(f"extractor.remote timeout must be a number > 0, got {timeout!r}")
        if type(retries) is not int or retries < 0:
            raise ConfigError(f"extractor.remote retries must be an integer >= 0, got {retries!r}")
        if api_key is not None and type(api_key) is not str:
            raise ConfigError(f"extractor.remote api_key must be a string, got {api_key!r}")

    @classmethod
    def from_env(cls, base: "RemoteExtractorConfig", env: dict) -> "RemoteExtractorConfig":
        """Take the API key from SWATI_REMOTE_API_KEY when it is set."""
        return replace(base, api_key=env.get("SWATI_REMOTE_API_KEY", base.api_key))


# Backoff before retrying a 5xx reply: 0.5 s, doubling, at most 4 s.
_BACKOFF_FIRST_S = 0.5
_BACKOFF_MAX_S = 4.0


def extract_remote(
    doc: Document, cfg: RemoteExtractorConfig, sleep=time.sleep
) -> ExtractionResult:
    """POST the document to a schema-constrained endpoint and parse the reply.

    Schema-invalid responses and 5xx statuses are retried, ``cfg.retries``
    times in all; a 5xx retry first waits with bounded exponential backoff
    through ``sleep``. Other statuses, transport failures and timeouts are
    surfaced immediately. No local state is touched.
    """
    import requests  # only the remote extractor needs it; it is slow to import

    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    payload = {"doc_id": doc.id, "text": doc.text, "schema_version": SCHEMA_VERSION}

    last_error: Optional[Exception] = None
    backoff = _BACKOFF_FIRST_S
    for _ in range(1 + cfg.retries):
        if isinstance(last_error, TransportError):
            sleep(backoff)
            backoff = min(2 * backoff, _BACKOFF_MAX_S)
        try:
            resp = requests.post(
                cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
            )
        except requests.Timeout as exc:
            raise RemoteTimeoutError(f"no response within {cfg.timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if 500 <= resp.status_code < 600:
            last_error = TransportError(f"endpoint returned status {resp.status_code}")
            continue
        if resp.status_code != 200:
            raise TransportError(f"endpoint returned status {resp.status_code}")
        try:
            body = resp.json()
        except (ValueError, RecursionError):  # RecursionError: very deep nesting
            last_error = SchemaViolationError("", "response is not valid JSON")
            continue
        try:
            return validate_extraction(body, doc)
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
    extractor=extract_corpus,
) -> Market:
    """Extract every document and assemble matching-ready profiles and specs.

    The vectorizer is fitted jointly over volunteers and tasks. Each document
    is tokenized once: its term counts give both the document frequencies and
    its content vector. ``extractor(docs, ontology)`` returns one result per
    document, in order; it defaults to the rule-based ``extract_corpus``, and
    any callable with the same signature (remote client, stub) slots in
    unchanged.
    """
    docs = corpus.documents()
    terms = count_terms((doc.text for doc in docs), settings)
    vectors = term_vectors(fit_vectorizer(terms, settings), terms)
    results = extractor(docs, ontology)
    if len(results) != len(docs):
        raise ValueError(f"extractor returned {len(results)} results for {len(docs)} documents")
    skills = []
    for doc, res in zip(docs, results):
        if res.doc_id != doc.id:
            raise ValueError(f"extraction {res.doc_id!r} does not match document {doc.id!r}")
        skills.append(frozenset(ontology.canonicalize_set(m.raw for m in res.mentions)))
    n_volunteers = len(corpus.volunteers)
    return Market(
        profiles=tuple(
            Profile(
                id=doc.id,
                skills=skills[i],
                cues=results[i].cues,
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
