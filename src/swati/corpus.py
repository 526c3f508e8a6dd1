"""Corpus ingestion and reproducible synthetic market generation.

Corpus files are JSONL, one document per line:

    {"id": "v001", "kind": "volunteer", "text": "...", "meta": {"source": "kaggle"}}

Unknown fields are rejected in strict mode and skipped with a warning
otherwise. The synthetic generator is a pure function of (config, ontology):
identical inputs produce byte-identical corpora. Generated profiles embed
skills through randomly chosen aliases rather than canonical names, so the
extraction stage is exercised non-trivially, and per-document skill counts
cycle through the configured range so corpus-level averages land exactly on
the range midpoint.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, field

from .errors import ConfigError, DuplicateIdError, ParseError, parse_json
from .ontology import Ontology, normalize_skill

VOLUNTEER = "volunteer"
TASK = "task"

_DOC_FIELDS = {"id", "kind", "text", "meta"}


@dataclass(frozen=True)
class Document:
    id: str
    kind: str
    text: str
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ParseError("document id must be non-empty")
        if self.kind not in (VOLUNTEER, TASK):
            raise ParseError(f"unknown document kind {self.kind!r}")


@dataclass(frozen=True)
class Corpus:
    volunteers: tuple[Document, ...]
    tasks: tuple[Document, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for doc in self.documents():
            if doc.id in seen:
                raise DuplicateIdError(doc.id)
            seen.add(doc.id)

    def documents(self) -> tuple[Document, ...]:
        return self.volunteers + self.tasks

    @property
    def n_volunteers(self) -> int:
        return len(self.volunteers)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class CorpusStats:
    n_volunteers: int
    n_tasks: int
    mean_text_length: float


@dataclass(frozen=True)
class SyntheticConfig:
    seed: int
    n_volunteers: int
    n_tasks: int
    skills_per_volunteer: tuple[int, int] = (3, 4)
    skills_per_task: tuple[int, int] = (2, 3)
    cue_density: float = 0.7
    vocabulary_ref: str = "builtin:cs"

    def __post_init__(self):
        if self.n_volunteers <= 0 or self.n_tasks <= 0:
            raise ConfigError("volunteer and task counts must be positive")
        for name, rng in (
            ("skills_per_volunteer", self.skills_per_volunteer),
            ("skills_per_task", self.skills_per_task),
        ):
            lo, hi = rng
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name} range {rng} is empty or infeasible")
        if not 0.0 <= self.cue_density <= 1.0:
            raise ConfigError("cue_density must lie in [0, 1]")


def _parse_document(obj: dict, line: int, strict: bool) -> Document:
    if not isinstance(obj, dict):
        raise ParseError("record must be an object", line)
    unknown = sorted(set(obj) - _DOC_FIELDS)
    if unknown:
        if strict:
            raise ParseError(f"unknown fields {unknown}", line)
        warnings.warn(f"line {line}: ignoring unknown fields {unknown}")
    for name in ("id", "kind", "text"):
        if name not in obj:
            raise ParseError(f"missing {name!r}", line)
        if not isinstance(obj[name], str):
            raise ParseError(f"{name!r} must be a string", line)
    if not obj["text"]:
        raise ParseError("'text' must be non-empty", line)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise ParseError("'meta' must map strings to strings", line)
    try:
        return Document(id=obj["id"], kind=obj["kind"], text=obj["text"], meta=dict(meta))
    except ParseError as exc:
        raise ParseError(str(exc), line) from None


def load_corpus(path: str, strict: bool = False) -> Corpus:
    """Read a JSONL corpus, preserving file order. Raises on the first bad line."""
    volunteers: list[Document] = []
    tasks: list[Document] = []
    seen: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                doc = _parse_document(parse_json(line, line_no), line_no, strict)
                if doc.id in seen:
                    raise DuplicateIdError(doc.id, line_no)
                seen[doc.id] = line_no
                (volunteers if doc.kind == VOLUNTEER else tasks).append(doc)
    except UnicodeDecodeError as exc:
        raise ParseError(f"corpus file {path} is not valid UTF-8") from exc
    return Corpus(volunteers=tuple(volunteers), tasks=tuple(tasks))


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents():
            fh.write(
                json.dumps(
                    {"id": doc.id, "kind": doc.kind, "text": doc.text, "meta": doc.meta},
                    sort_keys=True,
                )
            )
            fh.write("\n")


def corpus_stats(corpus: Corpus) -> CorpusStats:
    docs = corpus.documents()
    mean_len = sum(len(d.text) for d in docs) / len(docs) if docs else 0.0
    return CorpusStats(corpus.n_volunteers, corpus.n_tasks, mean_len)


# --- synthetic generation -------------------------------------------------

_VOLUNTEER_INTROS = [
    "Volunteer profile for a motivated contributor.",
    "Profile summary of a community-minded technologist.",
    "Background notes for a dependable helper.",
    "Self-description submitted through the signup form.",
    "Short bio of a returning participant.",
]

_SKILL_LEADS = [
    "Core skills: {}.",
    "Toolkit: {}.",
    "Skilled in: {}.",
    "Comfortable working with: {}.",
    "Proficient with: {}.",
]

_EXPOSURE_SENTENCES = [
    "Brings 5+ years of hands-on experience from shipped projects.",
    "Worked on several initiatives previously.",
    "Delivered a small engagement last season.",
    "Experienced and previously worked on two long-running projects.",
]

_INTEREST_SENTENCES = [
    "Passionate and excited; love a challenge and stay curious.",
    "Passionate, curious, and eager to take on meaningful work.",
    "Genuinely excited to contribute and keen to learn.",
    "Interested in pitching in where needed.",
]

_VOLUNTEERING_SENTENCES = [
    "Organized a fundraiser; long history of volunteering and charity drives.",
    "Volunteered at a local charity and mentored newcomers.",
    "Active in community service with a neighborhood nonprofit.",
    "First-time volunteer, ready to help.",
]

_AVAILABILITY_SENTENCES = [
    "Available weekends, evenings, and on-call; fully flexible availability.",
    "Available on weekends and most evenings.",
    "Flexible schedule; generally available.",
    "Limited to part-time slots.",
]

_VOLUNTEER_CLOSERS = [
    "References on request.",
    "Happy to coordinate by email.",
    "Based near the city center.",
    "Prefers clearly scoped assignments.",
]

_TASK_INTROS = [
    "Task brief: support a neighborhood outreach initiative.",
    "Task brief: help a local school modernize its tooling.",
    "Task brief: assist a civic group with a public-good build.",
    "Task brief: support a shelter with its record keeping.",
    "Task brief: help digitize archives for a heritage society.",
]

_REQUIREMENT_LEADS = [
    "Required skills: {}.",
    "Must know: {}.",
    "Looking for help with: {}.",
    "Ideal helper knows: {}.",
]

_TASK_CLOSERS = [
    "Deliverables include weekly progress notes.",
    "Remote-friendly with occasional site visits.",
    "Small, fixed scope with a friendly team.",
    "Outcome will be handed to the resident coordinators.",
]

# Thematic context shared by volunteer and task texts. Skill aliases carry the
# explicit overlap; these sentences carry the implicit topical alignment that
# content similarity is meant to pick up, independent of the skill draw.
_CONTEXT_SENTENCES = [
    "The theme: a seasonal meal program for isolated elders.",
    "The theme: a wildlife census along the river trail.",
    "The theme: a museum exhibit about the city bridges.",
    "The theme: an after-school tutoring club for teenagers.",
    "The theme: a tool-lending library for the allotment gardens.",
    "The theme: a neighborhood repair cafe for broken appliances.",
    "The theme: a multilingual newsletter for recent arrivals.",
    "The theme: a bicycle refurbishment drive for commuters.",
    "The theme: an oral-history archive of the old harbor.",
    "The theme: a rainfall gauge network for the flood wardens.",
    "The theme: a clothing exchange for the winter shelters.",
    "The theme: a pollinator garden atlas for the schoolyards.",
    "The theme: a first-aid training calendar for sports clubs.",
    "The theme: a stray-animal foster roster for the clinics.",
    "The theme: a beach cleanup logbook for the coastal patrol.",
    "The theme: a choir festival signup desk for the concert hall.",
]

_CUE_SENTENCE_POOLS = [
    _EXPOSURE_SENTENCES,
    _INTEREST_SENTENCES,
    _VOLUNTEERING_SENTENCES,
    _AVAILABILITY_SENTENCES,
]

# Share of skill slots drawn from the profile's primary domain; the rest come
# from the full vocabulary so cross-domain overlap still occurs.
_PRIMARY_DOMAIN_BIAS = 0.85


def _contains_alias(text: str, ontology: Ontology) -> str | None:
    """Return an alias key occurring in `text` as a token sequence, if any."""
    tokens = text.split()
    max_len = ontology.max_alias_tokens
    for i in range(len(tokens)):
        for length in range(1, min(max_len, len(tokens) - i) + 1):
            key = normalize_skill(" ".join(tokens[i : i + length]))
            if key and key in ontology.alias_index:
                return key
    return None


def _check_templates(ontology: Ontology) -> None:
    pools = [
        _VOLUNTEER_INTROS,
        _EXPOSURE_SENTENCES,
        _INTEREST_SENTENCES,
        _VOLUNTEERING_SENTENCES,
        _AVAILABILITY_SENTENCES,
        _VOLUNTEER_CLOSERS,
        _TASK_INTROS,
        _TASK_CLOSERS,
        _CONTEXT_SENTENCES,
        [lead.format("") for lead in _SKILL_LEADS + _REQUIREMENT_LEADS],
    ]
    for pool in pools:
        for sentence in pool:
            hit = _contains_alias(sentence, ontology)
            if hit is not None:
                raise ConfigError(
                    f"ontology alias {hit!r} collides with generator template "
                    f"{sentence!r}; generated skill sets would not be exact"
                )


def _cycle_count(index: int, lo: int, hi: int) -> int:
    return lo + index % (hi - lo + 1)


def _sample_entries(rng: random.Random, by_root, outside_root, roots, count):
    primary = roots[rng.randrange(len(roots))]
    primary_pool = list(by_root[primary])
    global_pool = list(outside_root[primary])
    chosen = []
    for _ in range(count):
        use_primary = primary_pool and (
            not global_pool or rng.random() < _PRIMARY_DOMAIN_BIAS
        )
        pool = primary_pool if use_primary else global_pool
        chosen.append(pool.pop(rng.randrange(len(pool))))
    return primary, chosen


def _alias_phrase(rng: random.Random, entries) -> tuple[str, list[str]]:
    words = []
    canonicals = []
    for entry in entries:
        alias = rng.choice(entry.aliases) if entry.aliases else entry.canonical
        words.append(alias)
        canonicals.append(entry.canonical)
    return ", ".join(words), canonicals


def generate_synthetic(cfg: SyntheticConfig, ontology: Ontology) -> Corpus:
    """Deterministically synthesize a volunteer/task market from an ontology."""
    if len(ontology) == 0:
        raise ConfigError("ontology is empty")
    for name, (lo, hi) in (
        ("skills_per_volunteer", cfg.skills_per_volunteer),
        ("skills_per_task", cfg.skills_per_task),
    ):
        if hi > len(ontology):
            raise ConfigError(
                f"{name} upper bound {hi} exceeds ontology size {len(ontology)}"
            )
    _check_templates(ontology)

    by_root: dict[str, list] = {}
    root_of: dict[str, str] = {}
    for entry in ontology.entries:
        root = ontology.root_of(entry.canonical)
        root_of[entry.canonical] = root
        by_root.setdefault(root, []).append(entry)
    roots = sorted(by_root)
    outside_root = {
        root: [e for e in ontology.entries if root_of[e.canonical] != root]
        for root in roots
    }

    rng = random.Random(cfg.seed)
    width = max(3, len(str(max(cfg.n_volunteers, cfg.n_tasks) - 1)))

    volunteers = []
    lo, hi = cfg.skills_per_volunteer
    for i in range(cfg.n_volunteers):
        count = _cycle_count(i, lo, hi)
        primary, entries = _sample_entries(rng, by_root, outside_root, roots, count)
        phrase, canonicals = _alias_phrase(rng, entries)
        sentences = [
            rng.choice(_VOLUNTEER_INTROS),
            rng.choice(_SKILL_LEADS).format(phrase),
        ]
        # One latent engagement level drives every cue category, and its
        # distribution is bimodal: markets contain genuinely reluctant and
        # genuinely keen volunteers, not a uniform middle.
        mode = rng.random()
        if mode < 0.45:
            engagement = 0.25 * rng.random()
        elif mode < 0.9:
            engagement = 0.75 + 0.25 * rng.random()
        else:
            engagement = rng.random()
        for pool in _CUE_SENTENCE_POOLS:
            if rng.random() < cfg.cue_density * (0.25 + 1.5 * engagement):
                bucket = min(len(pool) - 1, int((1.0 - engagement) * len(pool)))
                idx = min(len(pool) - 1, max(0, bucket + rng.randrange(-1, 2)))
                sentences.append(pool[idx])
        sentences.extend(rng.sample(_CONTEXT_SENTENCES, 3))
        if rng.random() < 0.5:
            sentences.append(rng.choice(_VOLUNTEER_CLOSERS))
        volunteers.append(
            Document(
                id=f"v{i:0{width}d}",
                kind=VOLUNTEER,
                text=" ".join(sentences),
                meta={
                    "source": "synthetic",
                    "vocabulary_ref": cfg.vocabulary_ref,
                    "domain": primary,
                    "planted_skills": "|".join(sorted(canonicals)),
                },
            )
        )

    tasks = []
    lo, hi = cfg.skills_per_task
    for j in range(cfg.n_tasks):
        count = _cycle_count(j, lo, hi)
        primary, entries = _sample_entries(rng, by_root, outside_root, roots, count)
        phrase, canonicals = _alias_phrase(rng, entries)
        sentences = [
            rng.choice(_TASK_INTROS),
            rng.choice(_REQUIREMENT_LEADS).format(phrase),
        ]
        sentences.extend(rng.sample(_CONTEXT_SENTENCES, 3))
        if rng.random() < 0.5:
            sentences.append(rng.choice(_TASK_CLOSERS))
        tasks.append(
            Document(
                id=f"t{j:0{width}d}",
                kind=TASK,
                text=" ".join(sentences),
                meta={
                    "source": "synthetic",
                    "vocabulary_ref": cfg.vocabulary_ref,
                    "domain": primary,
                    "planted_skills": "|".join(sorted(canonicals)),
                },
            )
        )

    return Corpus(volunteers=tuple(volunteers), tasks=tuple(tasks))


def generate_synthetic_history(
    cfg: SyntheticConfig, corpus: Corpus, ontology: Ontology
) -> list[dict]:
    """Deterministic participation histories for a generated corpus.

    Each volunteer holds a latent set of liked domains and a record of past
    tasks: offers inside liked domains were mostly accepted, others mostly
    declined. Records are JSONL-ready dicts {volunteer_id, task_skills[],
    accepted} with task_skills given as canonical names.
    """
    by_root: dict[str, list[str]] = {}
    for entry in ontology.entries:
        by_root.setdefault(ontology.root_of(entry.canonical), []).append(entry.canonical)
    roots = sorted(by_root)
    # separate stream from text generation so corpora stay byte-stable
    rng = random.Random((cfg.seed << 1) ^ 0x5EED)
    records = []
    for doc in corpus.volunteers:
        liked = set(rng.sample(roots, max(1, len(roots) // 2)))
        for _ in range(rng.randint(12, 16)):
            domain = roots[rng.randrange(len(roots))]
            pool = by_root[domain]
            skills = rng.sample(pool, min(len(pool), rng.randint(4, 6)))
            accepted = (domain in liked) == (rng.random() < 0.95)
            records.append(
                {
                    "volunteer_id": doc.id,
                    "task_skills": sorted(skills),
                    "accepted": accepted,
                }
            )
    return records


def save_history(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
