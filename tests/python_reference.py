"""Pure-Python paths that the numpy greedy, chunked extractor and batch vectorizer replaced.

The global-sort greedy, the per-document span-by-span alias scan (every span
of every token of one text, its offsets from ``re.finditer``) with each
mention's raw resolved again through the ontology, the per-lexicon cue
counts, the dominant root's share, the per-document term counts and content
vectors and the row-by-row build of the cosine's dense operands are kept only
as references that tests compare the optimized code against, result for
result.
"""

import re
from collections import Counter

import numpy as np

from swati.assignment import AssignedPair, Assignment
from swati.extraction import (
    _LEX,
    _PROF,
    CUE_STEP,
    PROXIMITY_WINDOW,
    ExtractionResult,
    PreferenceCues,
    SkillMention,
    _span_distance,
)
from swati.ontology import STRIP_CHARS, normalize_skill
from swati.similarity import SparseRows, TermCounts, VectorizerSettings, tokenize


def _phrase_regex(terms):
    parts = [re.escape(t).replace(r"\ ", r"\s+") for t in terms]
    return re.compile(r"\b(?:" + "|".join(parts) + r")\b", re.IGNORECASE)


_CUE_RES = {name: _phrase_regex(terms) for name, terms in _LEX["lexicons"].items()}
_EXPERTISE_RE = _phrase_regex(_PROF["expertise_terms"])
_YEARS_RE = re.compile(r"\b(\d+)\s*\+\s*years?\b", re.IGNORECASE)


def domain_affinity(canonicals, root_of):
    """The most common root's count over the number of skills; ties broken by name."""
    if not canonicals:
        return 0.0
    roots = {}
    for skill in canonicals:
        root = root_of(skill)
        roots[root] = roots.get(root, 0) + 1
    dominant = min(roots, key=lambda r: (-roots[r], r))
    return roots[dominant] / len(canonicals)


def greedy(matrix, sort_scores, caps, epoch):
    """Sort all n*m pairs by (-score, volunteer id, task id), then take feasible ones."""
    n, m = sort_scores.shape
    order = sorted(
        ((i, j) for i in range(n) for j in range(m)),
        key=lambda ij: (-sort_scores[ij[0], ij[1]], matrix.volunteers[ij[0]], matrix.tasks[ij[1]]),
    )
    load = [0] * n
    caps_vec = [caps.get(v) for v in matrix.volunteers]
    taken = set()
    pairs = []
    for i, j in order:
        if j in taken or load[i] >= caps_vec[i]:
            continue
        taken.add(j)
        load[i] += 1
        pairs.append(
            AssignedPair(matrix.volunteers[i], matrix.tasks[j], float(matrix.utilities[i, j]))
        )
        if len(taken) == m:
            break
    return Assignment(pairs=tuple(pairs), epoch=epoch)


def _trim_span(text, start, end):
    while start < end and text[start] in STRIP_CHARS:
        start += 1
    while end > start and text[end - 1] in STRIP_CHARS:
        end -= 1
    return start, end


def find_alias_mentions(text, ontology):
    """Try every span of up to ``max_alias_tokens`` tokens at every token, longest first."""
    tokens = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    matches = []
    i = 0
    while i < len(tokens):
        matched = False
        max_len = min(ontology.max_alias_tokens, len(tokens) - i)
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


def proficiency(text, span):
    """Rescan the whole text for expertise and years phrases near ``span``."""
    score = _PROF["base"]
    for m in _EXPERTISE_RE.finditer(text):
        if _span_distance(span, m.span()) <= PROXIMITY_WINDOW:
            score += _PROF["expertise_bonus"]
            break
    for m in _YEARS_RE.finditer(text):
        if int(m.group(1)) >= _PROF["min_years"] and (
            _span_distance(span, m.span()) <= PROXIMITY_WINDOW
        ):
            score += _PROF["years_bonus"]
            break
    return min(1.0, score)


def extract_rule_based(doc, ontology):
    text = doc.text
    found = find_alias_mentions(text, ontology)
    mentions = tuple(
        SkillMention(
            raw=text[start:end],
            evidence=(start, end),
            proficiency=proficiency(text, (start, end)),
        )
        for start, end, _ in found
    )
    counts = {name: len(rx.findall(text)) for name, rx in _CUE_RES.items()}
    cues = PreferenceCues(
        domain_affinity=domain_affinity({c for _, _, c in found}, ontology.root_of),
        prior_exposure=min(1.0, CUE_STEP * counts["prior_exposure"]),
        stated_interest=min(1.0, CUE_STEP * counts["stated_interest"]),
        volunteering_history=min(1.0, CUE_STEP * counts["volunteering_history"]),
        availability=min(1.0, CUE_STEP * counts["availability"]),
    )
    # resolved afresh from the raws, not taken from the scan's canonicals
    skills, unresolved = ontology.canonicalize_report(m.raw for m in mentions)
    return ExtractionResult(doc.id, mentions, cues, frozenset(skills), tuple(unresolved))


def count_terms(texts, settings=VectorizerSettings()):
    """Count each text's terms with a ``Counter``; ids in first-seen order within each text."""
    term_ids = {}
    ids, counts, offsets = [], [], [0]
    for text in texts:
        for term, count in Counter(tokenize(text, settings)).items():
            ids.append(term_ids.setdefault(term, len(term_ids)))
            counts.append(count)
        offsets.append(len(ids))
    return TermCounts(
        terms=tuple(term_ids),
        ids=np.array(ids, dtype=np.intp),
        counts=np.array(counts, dtype=np.intp),
        offsets=np.array(offsets, dtype=np.intp),
    )


def term_vectors(model, terms):
    """Build and check each document's vector on its own, sorting its (column, count) pairs.

    Returns one single-row ``SparseRows`` per document.
    """
    columns = np.array([model.vocabulary.get(t, -1) for t in terms.terms], dtype=np.intp)
    bounds = terms.offsets.tolist()
    vectors = []
    for start, stop in zip(bounds, bounds[1:]):
        cols = columns[terms.ids[start:stop]].tolist()
        pairs = sorted(p for p in zip(cols, terms.counts[start:stop].tolist()) if p[0] >= 0)
        indices = np.array([col for col, _ in pairs], dtype=np.int64)
        weights = np.array([count for _, count in pairs], dtype=np.float64) * model.idf[indices]
        if pairs:
            weights /= np.linalg.norm(weights)
        vectors.append(SparseRows(indices, weights, [0, len(pairs)]))
    return vectors


def cosine_matrix(volunteers, tasks):
    """The cosine with each dense operand filled one row at a time, then the same product."""
    sides = [[rows.rows(r, r + 1) for r in range(len(rows))] for rows in (volunteers, tasks)]
    size = 0
    for vec in [*sides[0], *sides[1]]:
        if len(vec.indices):
            size = max(size, int(vec.indices[-1]) + 1)
    xv = np.zeros((len(sides[0]), size))
    xt = np.zeros((len(sides[1]), size))
    for x, vectors in ((xv, sides[0]), (xt, sides[1])):
        for i, vec in enumerate(vectors):
            x[i, vec.indices] = vec.weights
    out = xv @ xt.T
    return np.clip(out, 0.0, 1.0, out=out)
