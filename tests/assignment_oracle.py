"""Exact maximum-utility assignment under capacities, for checking the greedy beyond 8x8.

Each volunteer becomes ``min(capacity, m)`` identical rows, the rows and
tasks are padded with zero-utility dummies to a square, and the Hungarian
method (Kuhn 1955; Munkres 1957) solves the square problem. Utilities are
non-negative, so a pair matched to a dummy is a task left unassigned or a
volunteer slot left empty, and the square optimum is the capacitated one.
The implementation is the O(N^3) shortest-augmenting-path form with the
inner scan over columns done by numpy.
"""

import numpy as np


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
