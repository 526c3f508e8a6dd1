"""Willingness estimation for every (volunteer, task) pair at once.

A volunteer's willingness toward a task blends a history-derived acceptance
tendency with a score over profile preference cues, squashes the mix through
a gain/center logistic, and smooths the result exponentially across decision
epochs. All outputs stay in [0, 1].

The logistic uses gain 4 and center 0.5 by default so the [0, 1] input range
maps to roughly [0.12, 0.88]; a plain logistic on [0, 1] would compress into
[0.5, 0.73] and make willingness nearly constant across volunteers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, number, read_jsonl
from .extraction import Profile, TaskSpec
from .similarity import posting_pairs, row_blocks, runs, skill_postings

# Cue vector layout: (domain_affinity, prior_exposure, stated_interest,
# volunteering_history, availability). Affinity is halved when the volunteer
# shares no skill with the task, since the profile-level signal then says
# little about this particular pairing.
_NO_OVERLAP_AFFINITY_FACTOR = 0.5
# Most history records scored at once by ``tendency_matrix``: bounds the
# records x tasks relevance matrix of one block of volunteers.
_WALK_BLOCK = 128
# math.exp overflows above this input, near 709.78.
_MAX_EXP_INPUT = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class HistoryColumns:
    """Every history record of one load, one row per record.

    Row r offered a task needing the skills named by
    ``skills[k] for k in skill_ids[offsets[r]:offsets[r + 1]]`` (repeats
    kept as read) and was accepted if ``accepted[r]``.
    """

    skills: tuple[str, ...]
    skill_ids: np.ndarray
    offsets: np.ndarray
    accepted: np.ndarray


@dataclass(frozen=True)
class History:
    """A volunteer's past task offers: the consecutive rows ``records`` of ``columns``."""

    records: range
    columns: HistoryColumns


@dataclass(frozen=True)
class WillingnessParams:
    """Weights, smoothing and sigmoid of the willingness estimate."""

    history_weight: float = 0.5
    smoothing: float = 0.7
    cue_weights: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    sigmoid_gain: float = 4.0
    sigmoid_center: float = 0.5

    def __post_init__(self):
        number(self.history_weight, "willingness.history_weight", 0.0, 1.0)
        number(self.smoothing, "willingness.smoothing", 0.0, 1.0)
        number(self.sigmoid_center, "willingness.sigmoid_center")
        if number(self.sigmoid_gain, "willingness.sigmoid_gain") <= 0:
            raise ConfigError(f"willingness.sigmoid_gain must be > 0, got {self.sigmoid_gain!r}")
        weights = self.cue_weights
        if not isinstance(weights, (list, tuple)) or len(weights) != 5:
            raise ConfigError(f"willingness.cue_weights must be 5 numbers, got {weights!r}")
        object.__setattr__(self, "cue_weights", tuple(weights))  # a config gives a list
        for k, weight in enumerate(weights):
            number(weight, f"willingness.cue_weights[{k}]", 0.0)
        if abs(sum(self.cue_weights) - 1.0) > 1e-9:
            raise ConfigError("willingness.cue_weights must sum to 1")
        # the mix lies in [0, 1], so the largest input of raw_willingness's
        # math.exp is the logistic at mix 0: exactly this product, rounded alike
        if self.sigmoid_gain * self.sigmoid_center > _MAX_EXP_INPUT:
            raise ConfigError(
                "willingness.sigmoid_gain * willingness.sigmoid_center must be at most "
                f"{_MAX_EXP_INPUT}"
            )


def smooth(previous: np.ndarray, w_hat: np.ndarray, params: WillingnessParams) -> np.ndarray:
    """Exponentially smooth the raw estimate ``w_hat`` against the previous epoch's matrix.

    A run starts from ``w_hat`` itself and smooths once per later epoch, so a
    single-epoch run is smoothing-free.
    """
    return params.smoothing * previous + (1.0 - params.smoothing) * w_hat


def cue_score_matrix(
    profiles: Sequence[Profile], overlap: np.ndarray, params: WillingnessParams
) -> np.ndarray:
    """Convex combination of each volunteer's cues under the configured weights.

    Cells where the volunteer shares no skill with the task (``overlap`` is
    false) use the damped domain affinity. Each row's two candidate scores
    are one 5-element ``np.dot`` apiece; a matrix product over all rows would
    round differently. ``overlap`` must have one row per profile.
    """
    if overlap.ndim != 2 or len(overlap) != len(profiles):
        raise DimensionError(
            f"overlap has shape {overlap.shape}, expected {len(profiles)} rows of tasks"
        )
    weights = np.asarray(params.cue_weights)
    scores = np.empty(overlap.shape)
    for i, profile in enumerate(profiles):
        cues = profile.cues.as_array()
        full = float(np.dot(weights, cues))
        cues[0] *= _NO_OVERLAP_AFFINITY_FACTOR
        damped = float(np.dot(weights, cues))
        scores[i] = np.where(overlap[i], full, damped)
    return scores


def tendency_matrix(
    profiles: Sequence[Profile],
    taskspecs: Sequence[TaskSpec],
    histories: Optional[Mapping[str, History]],
) -> np.ndarray:
    """Acceptance fraction over each volunteer's history records relevant to each task.

    Records whose skills intersect the task's requirements count as relevant;
    with no relevant records the overall acceptance fraction is used, and with
    no history at all the uninformative prior 0.5. Every fraction is a
    quotient of exact integer counts.

    Each profile's rows are gathered from the history columns once, and each
    distinct skill name is mapped once to its row of the tasks'
    ``skill_postings``, the index ``jaccard_matrix`` uses. Volunteers are then
    scored in blocks of at most ``_WALK_BLOCK`` history records (a volunteer
    with more records is a block of its own). A block's 0/1 relevance is one
    scatter of the (record, task) pairs that ``posting_pairs`` expands its
    (record, skill) entries to. Its per-volunteer counts are one float32
    product of a 0/1 membership matrix (each volunteer's records, then each
    volunteer's accepted records) with the 0/1 relevance; they are at most
    the block's record count, so float32 holds them exactly. Histories from
    separate loads are scored load by load.
    """
    out = np.full((len(profiles), len(taskspecs)), 0.5)
    loads: dict[HistoryColumns, tuple[list[int], list[History]]] = {}
    for i, profile in enumerate(profiles):
        history = histories.get(profile.history_ref or profile.id) if histories else None
        if history is not None and history.records:
            rows, walks = loads.setdefault(history.columns, ([], []))
            rows.append(i)
            walks.append(history)
    for rows, walks in loads.values():
        _score_load(out, rows, walks, taskspecs)
    return out


def _score_load(
    out: np.ndarray, rows: list[int], walks: list[History], taskspecs: Sequence[TaskSpec]
) -> None:
    """Write ``out[rows]``: the tendencies of profiles whose ``walks`` share one load's columns."""
    columns = walks[0].columns
    lengths = np.array([len(h.records) for h in walks])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    records = runs(np.array([h.records.start for h in walks]), lengths)
    accepted = columns.accepted[records]
    overall = np.add.reduceat(accepted, offsets[:-1], dtype=np.int64) / lengths
    ids, ptr, cols = skill_postings([task.required_skills for task in taskspecs])
    posting_rows = np.array([ids.get(name, len(ids)) for name in columns.skills], dtype=np.intp)
    # the gathered records' skill entries, in record order, as posting rows
    entry_lengths = columns.offsets[records + 1] - columns.offsets[records]
    skills = posting_rows[columns.skill_ids[runs(columns.offsets[records], entry_lengths)]]
    entry_records = np.repeat(np.arange(len(records)), entry_lengths)
    start = 0
    while start < len(rows):
        stop, size = start + 1, lengths[start]
        while stop < len(rows) and size + lengths[stop] <= _WALK_BLOCK:
            size += lengths[stop]
            stop += 1
        first, last = offsets[start], offsets[stop]
        lo, hi = np.searchsorted(entry_records, (first, last))
        relevant = np.zeros((size, len(taskspecs)), np.float32)
        relevant[posting_pairs(ptr, cols, entry_records[lo:hi] - first, skills[lo:hi])] = 1
        # rows [0, v) mark each volunteer's records, rows [v, 2v) its accepted ones
        v = stop - start
        members = np.zeros((2 * v, size), np.float32)
        members[np.repeat(np.arange(v), lengths[start:stop]), np.arange(size)] = 1
        members[v:] = members[:v] * accepted[first:last]
        counts = (members @ relevant).astype(np.float64)
        n_relevant, n_accepted = counts[:v], counts[v:]
        block = np.repeat(overall[start:stop, None], len(taskspecs), axis=1)
        np.divide(n_accepted, n_relevant, out=block, where=n_relevant > 0)
        out[rows[start:stop]] = block
        start = stop


def raw_willingness(g, f, params: WillingnessParams) -> np.ndarray:
    """Mix history tendency and cue score, then squash through the logistic.

    Accepts scalars or arrays. ``math.exp`` runs per element because
    ``np.exp`` differs from it in the last bit on some inputs. It reads the
    elements through a ``memoryview``, so they never all exist as Python
    floats at once.
    """
    mixed = params.history_weight * np.asarray(g) + (1.0 - params.history_weight) * np.asarray(f)
    z = params.sigmoid_gain * (mixed - params.sigmoid_center)
    e = np.fromiter(map(math.exp, memoryview((-z).ravel())), dtype=np.float64, count=z.size)
    return 1.0 / (1.0 + e.reshape(z.shape))


def willingness_matrix(
    profiles: Sequence[Profile],
    taskspecs: Sequence[TaskSpec],
    histories: Optional[Mapping[str, History]],
    overlap: np.ndarray,
    params: WillingnessParams,
) -> np.ndarray:
    """Raw willingness for every pair: cues and history -> mix -> squash.

    ``overlap[i, j]`` says whether volunteer i shares a skill with task j.
    The estimate depends only on the market, the history and ``params``, so a
    multi-epoch run computes it once and smooths it per epoch with ``smooth``.
    The cue scores and the squash run per row block, over the tendencies in
    place: every step is elementwise, so the blocks give the whole matrix's
    values bit for bit.
    """
    if not profiles or not taskspecs:
        raise DimensionError("need at least one volunteer and one task")
    shape = (len(profiles), len(taskspecs))
    if overlap.shape != shape:
        raise DimensionError(f"overlap has shape {overlap.shape}, expected {shape}")
    out = tendency_matrix(profiles, taskspecs, histories)
    for rows in row_blocks(*shape):
        cues = cue_score_matrix(profiles[rows], overlap[rows], params)
        out[rows] = raw_willingness(out[rows], cues, params)
    return out


_BAD_SKILLS = "task_skills must be a list of strings"


class _SkillIds(dict):
    """Skill name -> id, giving the next id to each new name that is a ``str``.

    Only a name seen for the first time is type-checked: every key is a
    ``str``, and no other JSON value equals one. A name that is not a ``str``,
    or is unhashable, raises ``TypeError``.
    """

    def __missing__(self, name):
        if not isinstance(name, str):
            raise TypeError(name)
        self[name] = k = len(self)
        return k


def _group_records(numbered: Iterable[tuple[int, object]]) -> dict[str, History]:
    """Validate (line number, record) pairs and group them by volunteer into shared columns.

    Skill names get ids in order of first appearance. When volunteers
    interleave, one stable sort groups each volunteer's rows, in file order.
    """
    groups: dict[str, int] = {}
    names = _SkillIds()
    skill_id = names.__getitem__
    owners, ends, flags, skill_ids = [], [], [], []
    for line_no, obj in numbered:
        try:
            vid = obj["volunteer_id"]
            skills = obj["task_skills"]
            accepted = obj["accepted"]
        except (KeyError, TypeError):
            raise ParseError(
                "record needs volunteer_id, task_skills, accepted", line_no
            ) from None
        if not isinstance(vid, str):
            raise ParseError("volunteer_id must be a string", line_no)
        if not isinstance(accepted, bool):
            raise ParseError("accepted must be true or false", line_no)
        if not isinstance(skills, list):
            raise ParseError(_BAD_SKILLS, line_no)
        try:
            skill_ids += map(skill_id, skills)
        except TypeError:
            raise ParseError(_BAD_SKILLS, line_no) from None
        ends.append(len(skill_ids))
        flags.append(accepted)
        owners.append(groups.setdefault(vid, len(groups)))
    if not groups:
        return {}
    owner = np.array(owners)
    offsets = np.zeros(len(ends) + 1, np.intp)
    offsets[1:] = ends
    ids = np.array(skill_ids, dtype=np.intp)
    accepted = np.array(flags)
    if np.any(owner[1:] < owner[:-1]):
        order = np.argsort(owner, kind="stable")
        lengths = np.diff(offsets)[order]
        ids = ids[runs(offsets[:-1][order], lengths)]
        offsets[1:] = np.cumsum(lengths)
        accepted = accepted[order]
    bounds = [0, *np.cumsum(np.bincount(owner)).tolist()]
    columns = HistoryColumns(tuple(names), ids, offsets, accepted)
    return {vid: History(range(bounds[g], bounds[g + 1]), columns) for vid, g in groups.items()}


def histories_from_records(records: Iterable[dict]) -> dict[str, History]:
    """Group {volunteer_id, task_skills[], accepted} dicts into histories over shared columns.

    A malformed record raises ``ParseError`` naming its 1-based position.
    """
    return _group_records(enumerate(records, start=1))


def load_history(path: str) -> dict[str, History]:
    """Read history records from JSONL: {volunteer_id, task_skills[], accepted}."""
    return _group_records(read_jsonl(path, "history"))
