"""Pure-Python paths that the numpy greedy and the one-scan extractor replaced.

The global-sort greedy, the span-by-span alias scan and the per-lexicon cue
counts are kept only as references that tests compare the optimized code
against, result for result.
"""

import re

from swati.assignment import AssignedPair, Assignment
from swati.extraction import (
    _LEX,
    _PROF,
    CUE_STEP,
    PROXIMITY_WINDOW,
    ExtractionResult,
    PreferenceCues,
    SkillMention,
    _domain_affinity,
    _span_distance,
    _trim_span,
)
from swati.ontology import normalize_skill


def _phrase_regex(terms):
    parts = [re.escape(t).replace(r"\ ", r"\s+") for t in terms]
    return re.compile(r"\b(?:" + "|".join(parts) + r")\b", re.IGNORECASE)


_CUE_RES = {name: _phrase_regex(terms) for name, terms in _LEX["lexicons"].items()}
_EXPERTISE_RE = _phrase_regex(_PROF["expertise_terms"])
_YEARS_RE = re.compile(r"\b(\d+)\s*\+\s*years?\b", re.IGNORECASE)


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
        domain_affinity=_domain_affinity({c for _, _, c in found}, ontology),
        prior_exposure=min(1.0, CUE_STEP * counts["prior_exposure"]),
        stated_interest=min(1.0, CUE_STEP * counts["stated_interest"]),
        volunteering_history=min(1.0, CUE_STEP * counts["volunteering_history"]),
        availability=min(1.0, CUE_STEP * counts["availability"]),
    )
    return ExtractionResult(doc_id=doc.id, mentions=mentions, cues=cues)
