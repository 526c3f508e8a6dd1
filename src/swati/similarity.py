"""Skill-set and content similarity.

Skill similarity is Jaccard overlap between canonical skill sets. Content
similarity is the cosine between L2-normalized TF-IDF vectors; since term
weights are non-negative it always lands in [0, 1]. The vectorizer is fitted
jointly over volunteers and tasks so both live in a single term space, with

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1

as the only supported idf variant (the +1 offsets keep every weight finite
and positive).
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ConfigError, EmptyCorpusError

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _load_stopwords() -> frozenset[str]:
    text = resources.files("swati.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


_STOPWORDS = _load_stopwords()


@dataclass(frozen=True)
class VectorizerSettings:
    min_token_len: int = 2
    use_stopwords: bool = True

    def __post_init__(self):
        if not isinstance(self.min_token_len, int) or isinstance(self.min_token_len, bool):
            raise ConfigError(f"min_token_len must be an integer, got {self.min_token_len!r}")
        if not isinstance(self.use_stopwords, bool):
            raise ConfigError(f"use_stopwords must be true or false, got {self.use_stopwords!r}")


def tokenize(text: str, settings: VectorizerSettings = VectorizerSettings()) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop short and stop tokens."""
    tokens = _TOKEN_RE.findall(text.lower())
    out = [t for t in tokens if len(t) >= settings.min_token_len]
    if settings.use_stopwords:
        out = [t for t in out if t not in _STOPWORDS]
    return out


@dataclass(eq=False)
class SparseVector:
    """Unit-norm sparse vector as parallel (index, weight) arrays."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must align")
        if len(self.indices) > 1 and not np.all(np.diff(self.indices) > 0):
            raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if len(self.weights) and abs(np.linalg.norm(self.weights) - 1.0) > 1e-9:
            raise ValueError("non-empty vectors must have unit L2 norm")

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def is_empty(self) -> bool:
        return len(self.indices) == 0


@dataclass
class VectorizerModel:
    vocabulary: dict[str, int]
    idf: np.ndarray
    doc_count: int
    settings: VectorizerSettings = field(default_factory=VectorizerSettings)

    def __post_init__(self):
        self.idf = np.asarray(self.idf, dtype=np.float64)
        if len(self.idf) != len(self.vocabulary):
            raise ValueError("idf length must match vocabulary size")
        if np.any(self.idf <= 0):
            raise ValueError("idf weights must be positive")

    @property
    def size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class TermCounts:
    """Each document's term counts, from one tokenization per document.

    Terms are numbered in first-seen order, each string stored once in
    ``terms``. Document d's distinct term ids and their counts are
    ``ids[offsets[d]:offsets[d + 1]]`` and the same slice of ``counts``.
    """

    terms: tuple[str, ...]
    ids: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


def count_terms(
    texts: Iterable[str], settings: VectorizerSettings = VectorizerSettings()
) -> TermCounts:
    """Tokenize each text once and count its terms."""
    term_ids: dict[str, int] = {}
    ids, counts, offsets = array("i"), array("i"), array("i", [0])
    for text in texts:
        for term, count in Counter(tokenize(text, settings)).items():
            ids.append(term_ids.setdefault(term, len(term_ids)))
            counts.append(count)
        offsets.append(len(ids))
    return TermCounts(
        terms=tuple(term_ids),
        ids=np.frombuffer(ids, dtype=np.intc),
        counts=np.frombuffer(counts, dtype=np.intc),
        offsets=np.frombuffer(offsets, dtype=np.intc),
    )


def fit_vectorizer(
    corpus: Corpus,
    settings: VectorizerSettings = VectorizerSettings(),
    terms: Optional[TermCounts] = None,
) -> VectorizerModel:
    """Fit vocabulary and idf over every document of ``corpus``.

    ``terms`` is ``count_terms`` of the corpus's documents when the caller has
    counted them already; otherwise they are counted here.
    """
    docs = corpus.documents()
    if not docs:
        raise EmptyCorpusError("cannot fit a vectorizer on an empty corpus")
    if terms is None:
        terms = count_terms((doc.text for doc in docs), settings)
    # each document lists a term once, so a term's id count is its document frequency
    df = np.bincount(terms.ids, minlength=len(terms.terms)).tolist()
    order = sorted(range(len(terms.terms)), key=terms.terms.__getitem__)
    vocabulary = {terms.terms[k]: i for i, k in enumerate(order)}
    n_docs = len(docs)
    idf = np.array(
        [np.log((1 + n_docs) / (1 + df[k])) + 1.0 for k in order], dtype=np.float64
    )
    return VectorizerModel(vocabulary=vocabulary, idf=idf, doc_count=n_docs, settings=settings)


def term_vectors(model: VectorizerModel, terms: TermCounts) -> Iterator[SparseVector]:
    """Raw term counts times idf, L2-normalized, per counted document in order.

    Out-of-vocabulary terms are dropped; a document with none left is empty.
    Each document's (column, count) pairs are sorted as Python lists: numpy
    temporaries per document left about 0.4 MB more resident memory on a
    600-document corpus.
    """
    columns = np.array([model.vocabulary.get(t, -1) for t in terms.terms], dtype=np.intp)
    bounds = terms.offsets.tolist()
    for start, stop in zip(bounds, bounds[1:]):
        cols = columns[terms.ids[start:stop]].tolist()
        pairs = sorted(p for p in zip(cols, terms.counts[start:stop].tolist()) if p[0] >= 0)
        if not pairs:
            yield SparseVector.empty()
            continue
        indices = np.array([col for col, _ in pairs], dtype=np.int64)
        weights = np.array([count for _, count in pairs], dtype=np.float64) * model.idf[indices]
        weights /= np.linalg.norm(weights)
        yield SparseVector(indices, weights)


def vectorize(model: VectorizerModel, text: str) -> SparseVector:
    """``text``'s vector: raw term counts times idf, L2-normalized; unknown terms dropped."""
    return next(term_vectors(model, count_terms([text], model.settings)))


def skill_index(skill_sets: Sequence[frozenset[str]]) -> dict[str, int]:
    """Column index over every skill named in ``skill_sets``, in sorted order."""
    return {skill: k for k, skill in enumerate(sorted(set().union(*skill_sets)))}


def skill_incidence(skill_sets: Sequence[frozenset[str]], index: dict[str, int]) -> np.ndarray:
    """float32 0/1 matrix; row i marks the skills of ``skill_sets[i]`` found in ``index``.

    Built with one scatter from flat (row, column) lists.
    """
    rows = np.repeat(np.arange(len(skill_sets)), [len(skills) for skills in skill_sets])
    cols = np.array([index.get(s, -1) for skills in skill_sets for s in skills], dtype=np.intp)
    found = cols >= 0
    out = np.zeros((len(skill_sets), len(index)), np.float32)
    out[rows[found], cols[found]] = 1
    return out


def jaccard_matrix(
    volunteer_skills: Sequence[frozenset[str]], task_skills: Sequence[frozenset[str]]
) -> np.ndarray:
    """Pairwise Jaccard overlap; two empty sets score 0 rather than 1.

    Intersections come from one float32 product of 0/1 incidence matrices
    over the task skills. The counts are small integers, so the BLAS product
    is exact in any summation order and thread count; they are cast to
    float64 before the quotient, so each quotient equals Python's
    ``int / int`` of the same counts.
    """
    index = skill_index(task_skills)
    tasks = skill_incidence(task_skills, index)
    inter = (skill_incidence(volunteer_skills, index) @ tasks.T).astype(np.float64)
    volunteer_sizes = np.array([len(s) for s in volunteer_skills], dtype=np.float64)
    union = volunteer_sizes[:, None] + tasks.sum(axis=1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def cosine_matrix(
    volunteer_vectors: Sequence[SparseVector], task_vectors: Sequence[SparseVector]
) -> np.ndarray:
    """Pairwise content cosine, clipped to [0, 1]; empty vectors score 0.

    One dense product over the columns up to the highest index in use. Its
    last bits depend on the operands' shapes and on the BLAS thread count.
    """
    size = 0
    for vec in [*volunteer_vectors, *task_vectors]:
        if len(vec.indices):
            size = max(size, int(vec.indices[-1]) + 1)
    xv = np.zeros((len(volunteer_vectors), size))
    xt = np.zeros((len(task_vectors), size))
    for x, vectors in ((xv, volunteer_vectors), (xt, task_vectors)):
        for i, vec in enumerate(vectors):
            if len(vec.indices):
                x[i, vec.indices] = vec.weights
    return np.clip(xv @ xt.T, 0.0, 1.0)
