"""Exact maximum-utility assignments and a feasibility check, for testing the matchers.

``assign_optimal_bruteforce`` searches every assignment of an instance up to
8x8, and ``validate_assignment`` is the feasibility check every matcher's
result must pass. ``optimal_pairs`` solves larger instances: each volunteer
becomes ``min(capacity, m)`` identical rows, the rows and tasks are padded
with zero-utility dummies to a square, and the Hungarian method (Kuhn 1955;
Munkres 1957) solves the square problem. Utilities are non-negative, so a
pair matched to a dummy is a task left unassigned or a volunteer slot left
empty, and the square optimum is the capacitated one. The implementation is
the O(N^3) shortest-augmenting-path form with the inner scan over columns
done by numpy.
"""

from typing import Optional

import numpy as np

from swati.assignment import AssignedPair, Assignment, CapacityMap, UtilityMatrix


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix, minimizing the total."""
    size = cost.shape[0]
    # index 0 is a virtual column that holds the row being inserted
    row_pot = np.zeros(size + 1)
    col_pot = np.zeros(size + 1)
    row_of = np.zeros(size + 1, dtype=np.int64)  # row_of[j]: 1-based row on column j
    prev = np.zeros(size + 1, dtype=np.int64)
    padded = np.zeros((size + 1, size + 1))
    padded[1:, 1:] = cost
    for row in range(1, size + 1):
        row_of[0] = row
        col = 0
        slack = np.full(size + 1, np.inf)
        used = np.zeros(size + 1, dtype=bool)
        while row_of[col]:
            used[col] = True
            i = row_of[col]
            reduced = padded[i] - row_pot[i] - col_pot
            better = ~used & (reduced < slack)
            slack[better] = reduced[better]
            prev[better] = col
            candidates = np.flatnonzero(~used)
            nxt = candidates[np.argmin(slack[candidates])]
            delta = slack[nxt]
            row_pot[row_of[used]] += delta
            col_pot[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    assigned = np.empty(size, dtype=np.int64)
    assigned[row_of[1:] - 1] = np.arange(size)
    return assigned


def optimal_pairs(matrix, caps) -> list[tuple[int, int]]:
    """(row, column) pairs of one maximum-total-utility assignment."""
    n, m = matrix.utilities.shape
    slots = np.repeat(np.arange(n), [min(caps.get(v), m) for v in matrix.volunteers])
    size = max(slots.size, m)
    utilities = np.zeros((size, size))
    utilities[: slots.size, :m] = matrix.utilities[slots]
    columns = hungarian(utilities.max(initial=0.0) - utilities)
    return [
        (int(slots[s]), int(j))
        for s, j in enumerate(columns[: slots.size])
        if j < m
    ]


def optimal_total(matrix, caps) -> float:
    return float(sum(matrix.utilities[i, j] for i, j in optimal_pairs(matrix, caps)))


class InstanceTooLargeError(ValueError):
    """Brute-force matching is guarded to small instances."""


_BRUTE_FORCE_LIMIT = 8


def assign_optimal_bruteforce(matrix: UtilityMatrix, caps: CapacityMap) -> Assignment:
    """Exhaustive maximum-total-utility matching for tiny instances.

    Ties prefer leaving a task unassigned, then the lowest volunteer id,
    scanning tasks in id order; the result is therefore unique.
    """
    n, m = len(matrix.volunteers), len(matrix.tasks)
    if n > _BRUTE_FORCE_LIMIT or m > _BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"{n}x{m} exceeds the {_BRUTE_FORCE_LIMIT}x{_BRUTE_FORCE_LIMIT} guard"
        )
    task_order = sorted(range(m), key=lambda j: matrix.tasks[j])
    vol_order = sorted(range(n), key=lambda i: matrix.volunteers[i])
    start = tuple(min(caps.get(matrix.volunteers[i]), m) for i in range(n))
    memo: dict[tuple[int, tuple[int, ...]], tuple[float, int]] = {}

    def best(k: int, state: tuple[int, ...]) -> float:
        if k == m:
            return 0.0
        key = (k, state)
        if key in memo:
            return memo[key][0]
        j = task_order[k]
        best_total, choice = best(k + 1, state), -1
        for i in vol_order:
            if state[i] == 0:
                continue
            next_state = state[:i] + (state[i] - 1,) + state[i + 1 :]
            cand = float(matrix.utilities[i, j]) + best(k + 1, next_state)
            if cand > best_total:
                best_total, choice = cand, i
        memo[key] = (best_total, choice)
        return best_total

    best(0, start)
    pairs = []
    state = start
    for k in range(m):
        _, choice = memo[(k, state)]
        if choice >= 0:
            j = task_order[k]
            pairs.append(
                AssignedPair(
                    matrix.volunteers[choice],
                    matrix.tasks[j],
                    float(matrix.utilities[choice, j]),
                )
            )
            state = state[:choice] + (state[choice] - 1,) + state[choice + 1 :]
    return Assignment(pairs=tuple(pairs))


def validate_assignment(
    assignment: Assignment, caps: CapacityMap, matrix: Optional[UtilityMatrix] = None
) -> None:
    """Shared feasibility check: task uniqueness, capacity bounds, utility range."""
    seen_tasks: set[str] = set()
    load: dict[str, int] = {}
    for pair in assignment.pairs:
        if pair.task_id in seen_tasks:
            raise ValueError(f"task {pair.task_id!r} assigned twice")
        seen_tasks.add(pair.task_id)
        load[pair.volunteer_id] = load.get(pair.volunteer_id, 0) + 1
        if load[pair.volunteer_id] > caps.get(pair.volunteer_id):
            raise ValueError(f"volunteer {pair.volunteer_id!r} over capacity")
        if not 0.0 <= pair.utility <= 1.0:
            raise ValueError(f"utility {pair.utility} out of [0, 1]")
        if matrix is not None:
            cell = matrix.utilities[matrix.position(pair.volunteer_id, pair.task_id)]
            if abs(pair.utility - cell) > 1e-9:
                raise ValueError(
                    f"utility for ({pair.volunteer_id}, {pair.task_id}) "
                    "does not match the matrix"
                )
