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

import functools
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from itertools import filterfalse
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EmptyCorpusError, integer


def _load_stopwords() -> frozenset[str]:
    text = resources.files("swati.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


_STOPWORDS = _load_stopwords()

# Most cells in one row block: each n x m scoring stage fills the array it
# returns one block of volunteer rows at a time, so its temporaries stay
# block-sized whatever the market's size.
_BLOCK_CELLS = 1 << 14


def row_blocks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Consecutive slices of ``range(n_rows)``, each of at most ``_BLOCK_CELLS`` cells.

    A row longer than ``_BLOCK_CELLS`` cells is a block of its own.
    """
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


@dataclass(frozen=True)
class VectorizerSettings:
    """Tokenizer settings of the content vectorizer."""

    min_token_len: int = 2
    use_stopwords: bool = True

    def __post_init__(self):
        min_len = integer(self.min_token_len, "vectorizer.min_token_len", 1)
        if not isinstance(self.use_stopwords, bool):
            raise ConfigError(
                f"vectorizer.use_stopwords must be true or false, got {self.use_stopwords!r}"
            )
        try:
            _term_re(min_len)  # build the cached tokenizer pattern now
        except OverflowError:
            raise ConfigError(f"vectorizer.min_token_len {min_len} is too large") from None


@functools.cache
def _term_re(min_len: int) -> re.Pattern:
    """The maximal runs of ``[a-z0-9]`` of at least ``min_len`` characters.

    ``findall`` tries a run only at its first character, and a run shorter
    than ``min_len`` fails there and at each later character of it.
    """
    return re.compile(f"[a-z0-9]{{{min_len},}}")


def tokenize(text: str, settings: VectorizerSettings = VectorizerSettings()) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop short and stop tokens."""
    tokens = _term_re(settings.min_token_len).findall(text.lower())
    if settings.use_stopwords:
        return list(filterfalse(_STOPWORDS.__contains__, tokens))
    return tokens


@dataclass(eq=False)
class SparseRows:
    """Unit-norm sparse rows in CSR form, ``indices`` as int64 and ``weights`` as float64.

    Row r is the slice ``offsets[r]:offsets[r + 1]`` of both arrays. Raises
    ``ValueError`` unless the offsets are 1-D integers that start at 0, never
    decrease and end at the number of entries, the arrays align, every index
    is a non-negative integer, each row's indices strictly increase, every
    weight is finite and each non-empty row has unit L2 norm within 1e-9.
    """

    indices: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        indices, weights = np.asarray(self.indices), np.asarray(self.weights, dtype=np.float64)
        if indices.shape != weights.shape or indices.ndim != 1:
            raise ValueError("indices and weights must be aligned 1-D arrays")
        if indices.size and indices.dtype.kind not in "iu":
            raise ValueError("indices must be integers")
        indices = indices.astype(np.int64, copy=False)
        if np.any(indices < 0):
            raise ValueError("indices must be non-negative")
        offsets = np.asarray(self.offsets)
        if offsets.ndim != 1 or not offsets.size or offsets.dtype.kind not in "iu":
            raise ValueError("offsets must be a non-empty 1-D array of integers")
        offsets = offsets.astype(np.int64, copy=False)
        lengths = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != len(indices) or np.any(lengths < 0):
            raise ValueError("offsets must rise from 0 to the number of entries")
        starts = offsets[:-1][lengths > 0]  # the first entry of each non-empty row
        rising = np.diff(indices) > 0
        rising[starts[1:] - 1] = True  # a step into the next row may fall
        if not np.all(rising):
            raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if len(starts):
            norms = np.sqrt(np.add.reduceat(weights * weights, starts))
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("non-empty rows must have unit L2 norm")
        self.indices, self.weights, self.offsets = indices, weights, offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def rows(self, start: int, stop: int) -> "SparseRows":
        """Rows ``start`` up to ``stop``; their indices and weights are views into these."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return SparseRows(
            self.indices[lo:hi], self.weights[lo:hi], self.offsets[start : stop + 1] - lo
        )


@dataclass
class VectorizerModel:
    """A fitted vectorizer: vocabulary, idf weights and the settings used."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    settings: VectorizerSettings = field(default_factory=VectorizerSettings)

    def __post_init__(self):
        self.idf = np.asarray(self.idf, dtype=np.float64)
        if len(self.idf) != len(self.vocabulary):
            raise ValueError("idf length must match vocabulary size")
        if not np.all((self.idf > 0) & (self.idf < np.inf)):  # NaN fails both
            raise ValueError("idf weights must be positive and finite")

    @property
    def size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class TermCounts:
    """Each document's term counts, from one tokenization per document.

    Terms are numbered in first-seen order, each string stored once in
    ``terms``. Document d's distinct term ids, in increasing order, and their
    counts are ``ids[offsets[d]:offsets[d + 1]]`` and the same slice of
    ``counts``.
    """

    terms: tuple[str, ...]
    ids: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


def count_terms(
    texts: Iterable[str], settings: VectorizerSettings = VectorizerSettings()
) -> TermCounts:
    """Tokenize each text once and count its terms, all texts in one batch.

    Every token is interned into one id list. One stable sort of all
    (document, term) keys then counts each document's terms, a run of equal
    keys being one term of one document. ``np.unique`` sorts with quicksort,
    whose code alone added about 0.3-0.4 MB to the peak RSS of ``swati match``.
    """
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term's id is the count before it
    ids, lengths = array("i"), array("i")
    for text in texts:
        tokens = tokenize(text, settings)
        ids.extend(map(term_ids.__getitem__, tokens))
        lengths.append(len(tokens))
    n_terms, n_docs = max(len(term_ids), 1), len(lengths)
    keys = np.repeat(np.arange(n_docs, dtype=np.int64), np.frombuffer(lengths, np.intc))
    keys *= n_terms
    keys += np.frombuffer(ids, np.intc)
    keys.sort(kind="stable")
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    counts = np.diff(starts, append=len(keys))
    keys = keys[starts]
    offsets = np.searchsorted(keys, np.arange(n_docs + 1) * n_terms)
    keys %= n_terms
    return TermCounts(terms=tuple(term_ids), ids=keys, counts=counts, offsets=offsets)


def fit_vectorizer(
    terms: TermCounts, settings: VectorizerSettings = VectorizerSettings()
) -> VectorizerModel:
    """Fit vocabulary and idf over every document counted in ``terms``.

    ``settings`` are those ``terms`` were counted with.
    """
    n_docs = len(terms.offsets) - 1
    if not n_docs:
        raise EmptyCorpusError("cannot fit a vectorizer on an empty corpus")
    # each document lists a term once, so a term's id count is its document frequency
    df = np.bincount(terms.ids, minlength=len(terms.terms)).tolist()
    order = sorted(range(len(terms.terms)), key=terms.terms.__getitem__)
    vocabulary = {terms.terms[k]: i for i, k in enumerate(order)}
    idf = np.array(
        [np.log((1 + n_docs) / (1 + df[k])) + 1.0 for k in order], dtype=np.float64
    )
    return VectorizerModel(vocabulary=vocabulary, idf=idf, settings=settings)


def term_vectors(model: VectorizerModel, terms: TermCounts) -> SparseRows:
    """Raw term counts times idf, L2-normalized: one row per counted document, in order.

    Out-of-vocabulary terms are dropped; a document with none left is empty.
    All documents' (column, count) pairs are sorted by (document, column) at
    once. Each document's weights are divided by ``np.linalg.norm`` of their
    own contiguous slice, the same call on the same values as for a vector
    built alone, so the weights do not depend on the batch.
    """
    columns = np.array([model.vocabulary.get(t, -1) for t in terms.terms], dtype=np.int64)
    cols = columns[terms.ids]
    known = np.flatnonzero(cols >= 0)
    offsets = np.searchsorted(known, terms.offsets)
    lengths = np.diff(offsets)
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keys *= model.size
    keys += cols[known]
    order = known[np.argsort(keys, kind="stable")]  # not quicksort: see count_terms
    indices = cols[order]
    weights = terms.counts[order].astype(np.float64)
    weights *= model.idf[indices]
    bounds = offsets.tolist()
    norms = np.ones(len(lengths))
    for d in np.flatnonzero(lengths).tolist():
        norms[d] = np.linalg.norm(weights[bounds[d] : bounds[d + 1]])
    weights /= np.repeat(norms, lengths)
    return SparseRows(indices, weights, offsets)


def runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + lengths[k])`` for every k, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def skill_postings(task_skills: Sequence[frozenset[str]]) -> tuple[dict, np.ndarray, np.ndarray]:
    """Each skill some task requires and the tasks requiring it, in CSR: ``ids, ptr, cols``.

    Skill ``ids[name]`` is required by the tasks ``cols[ptr[k]:ptr[k + 1]]``,
    in increasing order. One more row, ``len(ids)``, is empty: it stands for
    every skill no task requires, so any name is looked up as
    ``ids.get(name, len(ids))``.
    """
    requiring: dict[str, list[int]] = {}
    for j, skills in enumerate(task_skills):
        for skill in skills:
            requiring.setdefault(skill, []).append(j)
    ptr = np.cumsum([0, *map(len, requiring.values()), 0])
    cols = np.array([j for tasks in requiring.values() for j in tasks], dtype=np.intp)
    return {skill: k for k, skill in enumerate(requiring)}, ptr, cols


def posting_pairs(
    ptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (row, task) pairs of the entries ``(rows[e], keys[e])``, each row with its key's tasks.

    Key k's tasks are ``cols[ptr[k]:ptr[k + 1]]``, as ``skill_postings`` gives
    them; pairs come in entry order, then in the order of ``cols``.
    """
    starts = ptr[keys]
    fan = ptr[keys + 1] - starts
    return np.repeat(rows, fan), cols[runs(starts, fan)]


def jaccard_matrix(
    volunteer_skills: Sequence[frozenset[str]], task_skills: Sequence[frozenset[str]]
) -> np.ndarray:
    """Pairwise Jaccard overlap; two empty sets score 0 rather than 1.

    Each row block's intersections are one ``np.bincount`` of the (volunteer,
    task) pairs that its volunteers' skills expand to through the task skill
    postings. The counts are exact integers in any blocking, and each
    quotient equals Python's ``int / int`` of the same counts.
    """
    ids, ptr, cols = skill_postings(task_skills)
    sizes = np.array([len(s) for s in volunteer_skills], dtype=np.intp)
    owners = np.repeat(np.arange(len(sizes)), sizes)
    keys = np.array([ids.get(s, len(ids)) for skills in volunteer_skills for s in skills], np.intp)
    task_sizes = np.array([len(s) for s in task_skills], dtype=np.float64)
    out = np.empty((len(sizes), len(task_skills)))
    for rows in row_blocks(*out.shape):
        lo, hi = np.searchsorted(owners, (rows.start, rows.stop))
        owner, task = posting_pairs(ptr, cols, owners[lo:hi] - rows.start, keys[lo:hi])
        block = out[rows]
        inter = np.bincount(owner * block.shape[1] + task, minlength=block.size)
        inter = inter.reshape(block.shape)  # not (-1, m): a block may hold no cells
        # the union is formed in the output block and divided in place; for
        # two empty sets it is 0, and so is their score
        union = np.add(sizes[rows, None], task_sizes, out=block)
        union -= inter
        np.divide(inter, union, out=union, where=union > 0)
    return out


def cosine_matrix(volunteers: SparseRows, tasks: SparseRows) -> np.ndarray:
    """Pairwise content cosine of the rows, clipped to [0, 1]; empty rows score 0.

    One dense product over the columns up to the highest index in use,
    clipped in place. Each dense operand is filled by one scatter of its
    rows' entries. The product's last bits depend on the operands' shapes and
    on the BLAS thread count, so unlike the other n x m stages it is not
    blocked: its dense (n + m) x vocabulary operands are the one transient
    beside the array it returns.
    """
    sides = (volunteers, tasks)
    size = max((int(rows.indices.max()) + 1 for rows in sides if rows.indices.size), default=0)
    xv, xt = (np.zeros((len(rows), size)) for rows in sides)
    for x, rows in zip((xv, xt), sides):
        x[np.repeat(np.arange(len(rows)), np.diff(rows.offsets)), rows.indices] = rows.weights
    out = xv @ xt.T
    return np.clip(out, 0.0, 1.0, out=out)
