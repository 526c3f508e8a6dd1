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

import random
import warnings
from dataclasses import dataclass, field

from .errors import (
    ConfigError, DuplicateIdError, ParseError, integer, number, read_jsonl, write_jsonl
)
from .ontology import BUILTIN_ONTOLOGY, Ontology, normalize_skill

VOLUNTEER = "volunteer"
TASK = "task"

_DOC_FIELDS = {"id", "kind", "text", "meta"}


@dataclass(frozen=True)
class Document:
    """One volunteer profile or task brief: id, kind, free text and string metadata."""

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
    """Volunteer and task documents, with ids unique across both."""

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
    """Counts and mean text length of a corpus."""

    n_volunteers: int
    n_tasks: int
    mean_text_length: float


@dataclass(frozen=True)
class SyntheticConfig:
    """Seed, market size and skill/cue densities of a generated market."""

    seed: int = 0
    n_volunteers: int = 50
    n_tasks: int = 50
    skills_per_volunteer: tuple[int, int] = (3, 5)
    skills_per_task: tuple[int, int] = (2, 4)
    cue_density: float = 0.6
    vocabulary_ref: str = BUILTIN_ONTOLOGY

    def __post_init__(self):
        integer(self.seed, "synthetic.seed")
        integer(self.n_volunteers, "synthetic.n_volunteers", 1)
        integer(self.n_tasks, "synthetic.n_tasks", 1)
        for name in ("skills_per_volunteer", "skills_per_task"):
            rng = getattr(self, name)
            if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                raise ConfigError(f"synthetic.{name} must be two integers [lo, hi], got {rng!r}")
            lo = integer(rng[0], f"synthetic.{name}[0]", 1)
            integer(rng[1], f"synthetic.{name}[1]", lo)
            object.__setattr__(self, name, tuple(rng))  # a config file gives a list
        number(self.cue_density, "synthetic.cue_density", 0.0, 1.0)


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
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path, "corpus"):
        doc = _parse_document(obj, line_no, strict)
        if doc.id in seen:
            raise DuplicateIdError(doc.id, line_no)
        seen.add(doc.id)
        (volunteers if doc.kind == VOLUNTEER else tasks).append(doc)
    return Corpus(volunteers=tuple(volunteers), tasks=tuple(tasks))


def save_corpus(corpus: Corpus, path: str) -> None:
    write_jsonl(path, map(vars, corpus.documents()))


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


def _check_templates(ontology: Ontology) -> None:
    from .extraction import extract_corpus  # extraction imports this module

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
    sentences = [sentence for pool in pools for sentence in pool]
    docs = [Document(str(d), TASK, sentence) for d, sentence in enumerate(sentences)]
    for sentence, result in zip(sentences, extract_corpus(docs, ontology)):
        if result.mentions:
            raise ConfigError(
                f"ontology alias {normalize_skill(result.mentions[0].raw)!r} collides with "
                f"generator template {sentence!r}; generated skill sets would not be exact"
            )


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


def _engagement_cues(rng: random.Random, cue_density: float) -> list[str]:
    """A volunteer's cue sentences, all driven by one latent engagement level.

    Its distribution is bimodal: markets contain genuinely reluctant and
    genuinely keen volunteers, not a uniform middle.
    """
    mode = rng.random()
    if mode < 0.45:
        engagement = 0.25 * rng.random()
    elif mode < 0.9:
        engagement = 0.75 + 0.25 * rng.random()
    else:
        engagement = rng.random()
    sentences = []
    for pool in _CUE_SENTENCE_POOLS:
        if rng.random() < cue_density * (0.25 + 1.5 * engagement):
            bucket = min(len(pool) - 1, int((1.0 - engagement) * len(pool)))
            idx = min(len(pool) - 1, max(0, bucket + rng.randrange(-1, 2)))
            sentences.append(pool[idx])
    return sentences


def generate_synthetic(cfg: SyntheticConfig, ontology: Ontology) -> Corpus:
    """Deterministically synthesize a volunteer/task market from an ontology."""
    if len(ontology) == 0:
        raise ConfigError("ontology is empty")
    # every volunteer is drawn before the first task
    kinds = (
        (VOLUNTEER, cfg.skills_per_volunteer, "v", cfg.n_volunteers,
         _VOLUNTEER_INTROS, _SKILL_LEADS, _VOLUNTEER_CLOSERS),
        (TASK, cfg.skills_per_task, "t", cfg.n_tasks,
         _TASK_INTROS, _REQUIREMENT_LEADS, _TASK_CLOSERS),
    )
    for kind, (_, hi), *_ in kinds:
        if hi > len(ontology):
            raise ConfigError(
                f"skills_per_{kind} upper bound {hi} exceeds ontology size {len(ontology)}"
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
    docs: dict[str, list[Document]] = {VOLUNTEER: [], TASK: []}
    for kind, (lo, hi), prefix, n_docs, intros, leads, closers in kinds:
        for i in range(n_docs):
            count = lo + i % (hi - lo + 1)
            primary, entries = _sample_entries(rng, by_root, outside_root, roots, count)
            phrase, canonicals = _alias_phrase(rng, entries)
            sentences = [
                rng.choice(intros),
                rng.choice(leads).format(phrase),
            ]
            if kind == VOLUNTEER:
                sentences.extend(_engagement_cues(rng, cfg.cue_density))
            sentences.extend(rng.sample(_CONTEXT_SENTENCES, 3))
            if rng.random() < 0.5:
                sentences.append(rng.choice(closers))
            meta = {
                "source": "synthetic",
                "vocabulary_ref": cfg.vocabulary_ref,
                "domain": primary,
                "planted_skills": "|".join(sorted(canonicals)),
            }
            doc_id = f"{prefix}{i:0{width}d}"
            docs[kind].append(Document(id=doc_id, kind=kind, text=" ".join(sentences), meta=meta))
    return Corpus(volunteers=tuple(docs[VOLUNTEER]), tasks=tuple(docs[TASK]))


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
    write_jsonl(path, records)
