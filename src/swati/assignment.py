"""Utility computation and capacity-constrained matching.

Two utility forms are supported because both appear in practice and they are
not equivalent:

* product form (default): ``u = (a*s + b*c) * w``, willingness discounting the
  whole blended similarity;
* split form: ``u = a*s + b*c*w``, willingness discounting only the content
  term and leaving pure skill overlap untouched.

The greedy matcher walks pairs in non-increasing utility with ties broken by
(volunteer_id, task_id) ascending, so equal inputs always produce identical
assignments.
"""

from __future__ import annotations

import enum
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, integer, number
from .extraction import Market
from .similarity import cosine_matrix, jaccard_matrix, row_blocks
from .willingness import History, WillingnessParams, smooth, willingness_matrix

# Every swati digest goes through this SHA-256. CPython's built-in one gives
# hashlib's bytes without mapping OpenSSL's libcrypto, a few MB resident. Bound
# once: on 3.11 a failed import is not cached, and each retry scans sys.path.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes


class UtilityForm(enum.Enum):
    PRODUCT = "product"
    SPLIT = "split"


@dataclass(frozen=True)
class UtilityParams:
    """Weights and form of the utility that combines skill and content similarity."""

    skill_weight: float = 0.5
    content_weight: float = 0.5
    form: UtilityForm = UtilityForm.PRODUCT

    def __post_init__(self):
        try:
            object.__setattr__(self, "form", UtilityForm(self.form))  # a config gives the value
        except ValueError:
            raise ConfigError(f"utility.form must be product or split, got {self.form!r}") from None
        number(self.skill_weight, "utility.skill_weight", 0.0, 1.0)
        number(self.content_weight, "utility.content_weight", 0.0, 1.0)
        # Rounding is monotone, so with every component in [0, 1] no utility of
        # either form exceeds the rounded sum: the tolerance lies below 1 only.
        if not 1.0 - 1e-12 <= self.skill_weight + self.content_weight <= 1.0:
            raise ConfigError(
                "utility.skill_weight + utility.content_weight must be 1, or up to 1e-12 below"
            )


class CapacityMap:
    """Volunteer capacities; ids not listed default to one task."""

    def __init__(self, capacities: Optional[Mapping[str, int]] = None, default: int = 1):
        capacities = dict(capacities or {})
        integer(default, "capacities.default", 1)
        for vid, cap in capacities.items():
            integer(cap, f"capacity for {vid!r}", 1)
        self._caps = capacities
        self.default = default

    def get(self, volunteer_id: str) -> int:
        return self._caps.get(volunteer_id, self.default)


@dataclass(frozen=True)
class AssignedPair:
    """One volunteer assigned to one task, with the pair's utility."""

    volunteer_id: str
    task_id: str
    utility: float


@dataclass(frozen=True)
class Assignment:
    """The pairs one method assigned in one epoch."""

    pairs: tuple[AssignedPair, ...]
    epoch: int = 0

    def total_utility(self) -> float:
        return float(sum(p.utility for p in self.pairs))


@dataclass(frozen=True)
class UtilityMatrix:
    """Utility and its components for every (volunteer, task) pair, one row per volunteer id."""

    volunteers: tuple[str, ...]
    tasks: tuple[str, ...]
    utilities: np.ndarray
    skill: np.ndarray
    content: np.ndarray
    willingness: np.ndarray

    def __post_init__(self):
        shape = (len(self.volunteers), len(self.tasks))
        for ids in (self.volunteers, self.tasks):
            if len(set(ids)) < len(ids):
                repeated = next(name for name, count in Counter(ids).items() if count > 1)
                raise DimensionError(f"id {repeated!r} is repeated")
        # the components first, so an error names the input, not the product
        for name in ("skill", "content", "willingness", "utilities"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
            # written so that NaN fails it too
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")

    @cached_property
    def _positions(self) -> tuple[dict[str, int], dict[str, int]]:
        return (
            {v: i for i, v in enumerate(self.volunteers)},
            {t: j for j, t in enumerate(self.tasks)},
        )

    def position(self, volunteer_id: str, task_id: str) -> tuple[int, int]:
        """Row and column of a (volunteer, task) pair."""
        rows, cols = self._positions
        return rows[volunteer_id], cols[task_id]


def utility_matrix_from_components(
    volunteers: Sequence[str],
    tasks: Sequence[str],
    skill: np.ndarray,
    content: np.ndarray,
    willingness: np.ndarray,
    params: UtilityParams,
) -> UtilityMatrix:
    """Utilities of every pair under ``params.form``, with the components they came from.

    Each component must have one row per volunteer and one column per task.
    The utilities are filled one row block at a time; the formula is
    elementwise, so the blocks give the whole matrix's values bit for bit.
    """
    shape = (len(volunteers), len(tasks))
    skill, content, willingness = (
        np.asarray(arr, dtype=np.float64) for arr in (skill, content, willingness)
    )
    for name, arr in (("skill", skill), ("content", content), ("willingness", willingness)):
        if arr.shape != shape:
            raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
    a, b = params.skill_weight, params.content_weight
    utilities = np.empty(shape)
    for rows in row_blocks(*shape):
        s, c, w = skill[rows], content[rows], willingness[rows]
        if params.form is UtilityForm.PRODUCT:
            utilities[rows] = (a * s + b * c) * w
        else:
            utilities[rows] = a * s + b * c * w
    return UtilityMatrix(
        volunteers=tuple(volunteers),
        tasks=tuple(tasks),
        utilities=utilities,
        skill=skill,
        content=content,
        willingness=willingness,
    )


def similarity_components(market: Market) -> tuple[np.ndarray, np.ndarray]:
    """The market's pairwise skill-Jaccard and content-cosine matrices.

    Both depend only on the market, so a multi-epoch run computes them once.
    """
    profiles, taskspecs = market.profiles, market.taskspecs
    if not profiles or not taskspecs:
        raise DimensionError("need at least one volunteer and one task")
    skill = jaccard_matrix([p.skills for p in profiles], [t.required_skills for t in taskspecs])
    return skill, cosine_matrix(market.volunteer_vectors, market.task_vectors)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's place among the ids in Python string order."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _top_cells(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major rows and columns of the entries at least the k-th largest, ties included.

    The k-th largest is the k-th largest among the row blocks' k largest, so
    no copy of all scores is made: the blocks' k largest hold every entry
    above it and at least k entries not below it.
    """
    if k < scores.size:
        # the k smallest negated scores so far: numpy's selection is slow when
        # the k-th largest falls in a long run of equal scores
        kept = np.empty(0, dtype=scores.dtype)
        for rows in row_blocks(*scores.shape):
            kept = np.concatenate((kept, np.negative(scores[rows]).ravel()))
            if kept.size > k:
                kept.partition(k - 1)
                kept = kept[:k]
        cutoff = -kept[k - 1]
    else:
        cutoff = scores.min()
    return np.nonzero(scores >= cutoff)


# a round first orders this many live pairs per task, and twice as many each round after
_ROUND_PAIRS_PER_TASK = 4
# pairs are filtered against the matching state in blocks of this many
_WALK_BLOCK = 256


def _greedy(matrix: UtilityMatrix, sort_scores: np.ndarray, caps: CapacityMap) -> Assignment:
    """Take each feasible pair in (-score, volunteer id, task id) order.

    A pair is live while its volunteer has spare capacity and its task is
    free. A dead pair never comes back to life, so walking all n*m pairs in
    that order takes what walking only the live ones takes. Each round orders
    the live pairs that score at least the k-th largest live score, ties at
    that cutoff included, so every live pair left out ranks after every pair
    let in. The walk checks them all, so none is live after the round. k
    doubles each round, so a market where every row outranks the next needs
    few rounds.

    A round sorts its pairs by score, then by one tie rank: a pair's place
    among all n*m pairs in (volunteer id, task id) order, from the ids' ranks,
    so no round sorts more than its own pairs.
    """
    n, m = sort_scores.shape
    v_rank = _id_ranks(matrix.volunteers)
    t_rank = _id_ranks(matrix.tasks)
    # no volunteer can take more than the m tasks; the walk reads the lists,
    # and the arrays mirror them for the numpy filters
    left = [min(caps.get(v), m) for v in matrix.volunteers]
    open_ = [True] * m
    spare = np.array(left, dtype=np.int64)
    free = np.ones(m, dtype=bool)
    pairs = []
    k = _ROUND_PAIRS_PER_TASK * m
    while True:
        live_rows, live_cols = np.flatnonzero(spare), np.flatnonzero(free)
        if not live_rows.size:
            return Assignment(pairs=tuple(pairs))
        live = sort_scores
        if live_rows.size < n or live_cols.size < m:
            live = sort_scores[np.ix_(live_rows, live_cols)]
        r, c = _top_cells(live, k)
        rows, cols = live_rows[r], live_cols[c]
        ties = v_rank[rows] * m + t_rank[cols]
        order = np.lexsort((ties, -live[r, c]))
        rows, cols = rows[order], cols[order]
        # a block first drops the pairs whose volunteer or task was used up
        # before it began; the rest are checked one by one as the state changes
        for start in range(0, order.size, _WALK_BLOCK):
            block_rows = rows[start : start + _WALK_BLOCK]
            block_cols = cols[start : start + _WALK_BLOCK]
            keep = (spare[block_rows] > 0) & free[block_cols]
            for i, j in zip(block_rows[keep].tolist(), block_cols[keep].tolist()):
                if not open_[j] or not left[i]:
                    continue
                open_[j] = free[j] = False
                left[i] -= 1
                spare[i] -= 1
                pairs.append(
                    AssignedPair(matrix.volunteers[i], matrix.tasks[j], float(matrix.utilities[i, j]))
                )
                if len(pairs) == m:
                    return Assignment(pairs=tuple(pairs))
        k *= 2


def assign_swati(matrix: UtilityMatrix, caps: CapacityMap) -> Assignment:
    """Greedy matching by descending utility under capacity constraints."""
    return _greedy(matrix, matrix.utilities, caps)


def assign_skill_only(matrix: UtilityMatrix, caps: CapacityMap) -> Assignment:
    """Greedy matching by skill similarity alone.

    Reported pair utilities are still the full utility values, so baselines
    and the main method compare on a single objective.
    """
    return _greedy(matrix, matrix.skill, caps)


def assign_random(matrix: UtilityMatrix, caps: CapacityMap, seed: int) -> Assignment:
    """Assign each task (in id order) to a uniformly random free volunteer."""
    rng = random.Random(seed)
    vol_order = sorted(range(len(matrix.volunteers)), key=lambda i: matrix.volunteers[i])
    load = [0] * len(matrix.volunteers)
    caps_vec = [caps.get(v) for v in matrix.volunteers]
    pairs = []
    for j in sorted(range(len(matrix.tasks)), key=lambda j: matrix.tasks[j]):
        candidates = [i for i in vol_order if load[i] < caps_vec[i]]
        if not candidates:
            continue
        i = candidates[rng.randrange(len(candidates))]
        load[i] += 1
        pairs.append(
            AssignedPair(matrix.volunteers[i], matrix.tasks[j], float(matrix.utilities[i, j]))
        )
    return Assignment(pairs=tuple(pairs))


def canonical_assignment_bytes(assignment: Assignment) -> bytes:
    """Canonical serialization used for digests: compact JSON, fixed key order."""
    payload = {
        "epoch": assignment.epoch,
        "pairs": [[p.volunteer_id, p.task_id, p.utility] for p in assignment.pairs],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def assignment_digest(assignment: Assignment) -> bytes:
    return sha256(canonical_assignment_bytes(assignment)).digest()


METHODS = ("swati", "skill", "random")


def assign(
    method: str, matrix: UtilityMatrix, caps: CapacityMap, seed: Optional[int] = None
) -> Assignment:
    """Run one of ``METHODS`` on the matrix; ``random`` draws with ``seed``."""
    if method == "swati":
        return assign_swati(matrix, caps)
    if method == "skill":
        return assign_skill_only(matrix, caps)
    if method != "random":
        raise ConfigError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if type(seed) is not int:  # a float seed is hashed, and NaN hashes by identity
        raise ConfigError(f"method 'random' needs an integer seed (--seed or config), got {seed!r}")
    return assign_random(matrix, caps, seed)


@dataclass
class EpochResult:
    """What ``match_market`` returns: the last epoch's matrix and assignments."""

    matrix: UtilityMatrix
    assignments: dict[str, Assignment]
    # wall seconds of "similarity", "willingness" (the raw estimate and every
    # epoch's smoothing), "utility" (the matrix) and each method
    seconds: dict[str, float]


def match_market(
    market: Market,
    histories: Optional[Mapping[str, History]],
    caps: CapacityMap,
    utility_params: UtilityParams,
    willingness_params: WillingnessParams,
    methods: Sequence[str] = ("swati",),
    epochs: int = 1,
    seed: Optional[int] = None,
) -> EpochResult:
    """Score a market once, smooth its willingness over ``epochs``, run each method once.

    Earlier epochs only advance the smoothing, since their assignments would
    never be read; every method assigns the last epoch's utilities, and each
    assignment is labelled with that epoch, ``epochs - 1``. The smoothing
    stops at the first epoch that returns its input unchanged, because every
    later epoch would return it too, so a large ``epochs`` costs no more.
    """
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    profiles, taskspecs = market.profiles, market.taskspecs
    clock = time.perf_counter
    t0 = clock()
    skill, content = similarity_components(market)
    t1 = clock()
    # a Jaccard score is positive exactly where the pair shares a skill
    w_hat = willingness_matrix(profiles, taskspecs, histories, skill > 0, willingness_params)
    willingness = w_hat
    for _ in range(epochs - 1):
        smoothed = smooth(willingness, w_hat, willingness_params)
        # every epoch smooths the same raw estimate, so once an epoch returns
        # its input bit for bit, so does every later one
        if np.array_equal(smoothed, willingness):
            break
        willingness = smoothed
    t2 = clock()
    matrix = utility_matrix_from_components(
        [p.id for p in profiles], [t.id for t in taskspecs], skill, content, willingness,
        utility_params,
    )
    seconds = {"similarity": t1 - t0, "willingness": t2 - t1, "utility": clock() - t2}
    assignments = {}
    for method in methods:
        start = clock()
        assignments[method] = replace(assign(method, matrix, caps, seed), epoch=epochs - 1)
        seconds[method] = clock() - start
    return EpochResult(matrix=matrix, assignments=assignments, seconds=seconds)
