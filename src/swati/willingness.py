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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, parse_json
from .extraction import Profile, TaskSpec
from .similarity import skill_incidence, skill_index

# Cue vector layout: (domain_affinity, prior_exposure, stated_interest,
# volunteering_history, availability). Affinity is halved when the volunteer
# shares no skill with the task, since the profile-level signal then says
# little about this particular pairing.
_NO_OVERLAP_AFFINITY_FACTOR = 0.5


@dataclass(frozen=True)
class HistoryRecord:
    task_skills: frozenset[str]
    accepted: bool


@dataclass(frozen=True)
class History:
    volunteer_id: str
    records: tuple[HistoryRecord, ...] = ()


@dataclass(frozen=True)
class WillingnessParams:
    history_weight: float = 0.5
    smoothing: float = 0.7
    cue_weights: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    sigmoid_gain: float = 4.0
    sigmoid_center: float = 0.5

    def __post_init__(self):
        numbers = (self.history_weight, self.smoothing, self.sigmoid_gain, self.sigmoid_center)
        if not all(map(math.isfinite, (*numbers, *self.cue_weights))):
            raise ConfigError("willingness parameters must be finite numbers")
        if not 0.0 <= self.history_weight <= 1.0:
            raise ConfigError("history_weight must lie in [0, 1]")
        if not 0.0 <= self.smoothing <= 1.0:
            raise ConfigError("smoothing must lie in [0, 1]")
        if len(self.cue_weights) != 5 or any(w < 0 for w in self.cue_weights):
            raise ConfigError("cue_weights must be 5 non-negative values")
        if abs(sum(self.cue_weights) - 1.0) > 1e-9:
            raise ConfigError("cue_weights must sum to 1")
        if self.sigmoid_gain <= 0:
            raise ConfigError("sigmoid_gain must be positive")


class WillingnessState:
    """Last smoothed willingness matrix of one market across decision epochs.

    The state is created for fixed volunteer and task id orders and refuses
    matrices scored for any other market. The scoring functions around it are
    pure; this is the one mutable piece, with one writer per epoch.
    """

    def __init__(self, volunteers: Sequence[str], tasks: Sequence[str]):
        self.volunteers = tuple(volunteers)
        self.tasks = tuple(tasks)
        self.values: Optional[np.ndarray] = None

    def smooth(
        self,
        volunteers: Sequence[str],
        tasks: Sequence[str],
        w_hat: np.ndarray,
        params: WillingnessParams,
    ) -> np.ndarray:
        """Exponentially smooth ``w_hat`` against the stored matrix and store it.

        The first epoch initializes directly from the raw estimate, so a
        single-epoch run over a static corpus is smoothing-free.
        """
        if tuple(volunteers) != self.volunteers or tuple(tasks) != self.tasks:
            raise DimensionError("willingness state belongs to other volunteer or task ids")
        value = w_hat
        if self.values is not None:
            value = params.smoothing * self.values + (1.0 - params.smoothing) * w_hat
        # written so that NaN fails it too
        if value.size and not (value.min() >= 0.0 and value.max() <= 1.0):
            raise ValueError("willingness out of [0, 1]")
        self.values = value
        return value

    def __len__(self) -> int:
        return 0 if self.values is None else self.values.size


def cue_score_matrix(
    profiles: Sequence[Profile], overlap: np.ndarray, params: WillingnessParams
) -> np.ndarray:
    """Convex combination of each volunteer's cues under the configured weights.

    Cells where the volunteer shares no skill with the task (``overlap`` is
    false) use the damped domain affinity. Each row's two candidate scores
    are one 5-element ``np.dot`` apiece; a matrix product over all rows would
    round differently.
    """
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
    """
    task_skills = [t.required_skills for t in taskspecs]
    index = skill_index(task_skills)
    tasks_t = skill_incidence(task_skills, index).T
    out = np.full((len(profiles), len(taskspecs)), 0.5)
    for i, profile in enumerate(profiles):
        history = histories.get(profile.history_ref or profile.id) if histories else None
        if history is None or not history.records:
            continue
        records = history.records
        relevant = (skill_incidence([r.task_skills for r in records], index) @ tasks_t) > 0
        accepted = np.array([r.accepted for r in records], dtype=np.float64)
        n_relevant = relevant.sum(axis=0).astype(np.float64)
        n_accepted = accepted @ relevant
        overall = accepted.sum() / len(records)
        out[i] = np.divide(
            n_accepted, n_relevant, out=np.full(len(taskspecs), overall), where=n_relevant > 0
        )
    return out


def raw_willingness(g, f, params: WillingnessParams) -> np.ndarray:
    """Mix history tendency and cue score, then squash through the logistic.

    Accepts scalars or arrays. ``math.exp`` runs per element because
    ``np.exp`` differs from it in the last bit on some inputs.
    """
    mixed = params.history_weight * np.asarray(g) + (1.0 - params.history_weight) * np.asarray(f)
    z = params.sigmoid_gain * (mixed - params.sigmoid_center)
    e = np.fromiter(map(math.exp, (-z).ravel().tolist()), dtype=np.float64, count=z.size)
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
    multi-epoch run computes it once and smooths it per epoch with
    ``WillingnessState.smooth``.
    """
    if not profiles or not taskspecs:
        raise DimensionError("need at least one volunteer and one task")
    return raw_willingness(
        tendency_matrix(profiles, taskspecs, histories),
        cue_score_matrix(profiles, overlap, params),
        params,
    )


def _group_records(numbered: Iterable[tuple[int, object]]) -> dict[str, History]:
    """Validate (line number, record) pairs and group them by volunteer."""
    grouped: dict[str, list[HistoryRecord]] = {}
    for line_no, obj in numbered:
        try:
            vid = obj["volunteer_id"]
            skills = obj["task_skills"]
            accepted = obj["accepted"]
        except (KeyError, TypeError):
            raise ParseError(
                "record needs volunteer_id, task_skills, accepted", line_no
            ) from None
        if not isinstance(vid, str) or not isinstance(accepted, bool):
            raise ParseError("bad field types", line_no)
        if not isinstance(skills, list) or not all(isinstance(s, str) for s in skills):
            raise ParseError("task_skills must be a list of strings", line_no)
        grouped.setdefault(vid, []).append(
            HistoryRecord(task_skills=frozenset(skills), accepted=accepted)
        )
    return {vid: History(volunteer_id=vid, records=tuple(recs)) for vid, recs in grouped.items()}


def histories_from_records(records: Iterable[dict]) -> dict[str, History]:
    """Group {volunteer_id, task_skills[], accepted} dicts into History objects.

    A malformed record raises ``ParseError`` naming its 1-based position.
    """
    return _group_records(enumerate(records, start=1))


def _json_lines(fh) -> Iterator[tuple[int, object]]:
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        yield line_no, parse_json(line, line_no)


def load_history(path: str) -> dict[str, History]:
    """Read history records from JSONL: {volunteer_id, task_skills[], accepted}."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _group_records(_json_lines(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"history file {path} is not valid UTF-8") from exc
