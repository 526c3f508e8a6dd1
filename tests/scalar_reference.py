"""Per-pair scalar reference for the matrix scoring kernel.

These are the one-pair-at-a-time formulas the kernel replaced, kept only as
the reference that tests compare the matrices against bit for bit.
"""

import math

import numpy as np

from swati.assignment import UtilityForm

NO_OVERLAP_AFFINITY_FACTOR = 0.5


def skill_sim(a, b):
    """Jaccard overlap; two empty sets score 0 rather than 1."""
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def content_sim(a, b):
    """Cosine of two unit-norm sparse vectors over their shared indices, clipped.

    ``a`` and ``b`` are single-row ``SparseRows``.
    """
    if not len(a.indices) or not len(b.indices):
        return 0.0
    _, ia, ib = np.intersect1d(a.indices, b.indices, assume_unique=True, return_indices=True)
    return min(1.0, max(0.0, float(np.dot(a.weights[ia], b.weights[ib]))))


def cue_vector(volunteer, task):
    cues = volunteer.cues
    affinity = cues.domain_affinity
    if not (volunteer.skills & task.required_skills):
        affinity *= NO_OVERLAP_AFFINITY_FACTOR
    return np.array(
        [
            affinity,
            cues.prior_exposure,
            cues.stated_interest,
            cues.volunteering_history,
            cues.availability,
        ]
    )


def profile_score(cue_vec, params):
    return float(np.dot(np.asarray(params.cue_weights), cue_vec))


def history_records(rows):
    """Each volunteer's records, as (task skill set, accepted) pairs in row order."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row["volunteer_id"], []).append(
            (frozenset(row["task_skills"]), row["accepted"])
        )
    return grouped


def loaded_records(history):
    """A loaded ``History``'s records, as (task skill set, accepted) pairs."""
    columns = history.columns
    return [
        (
            frozenset(columns.skills[k] for k in
                      columns.skill_ids[columns.offsets[r] : columns.offsets[r + 1]]),
            bool(columns.accepted[r]),
        )
        for r in history.records
    ]


def history_tendency(records, task):
    """Acceptance fraction over ``records`` relevant to ``task``; see ``history_records``."""
    if not records:
        return 0.5
    relevant = [r for r in records if r[0] & task.required_skills]
    pool = relevant if relevant else records
    return sum(1 for _, accepted in pool if accepted) / len(pool)


def raw_willingness(g, f, params):
    mixed = params.history_weight * g + (1.0 - params.history_weight) * f
    z = params.sigmoid_gain * (mixed - params.sigmoid_center)
    return 1.0 / (1.0 + math.exp(-z))


def pair_willingness(volunteer, task, records, state, params):
    """Willingness of one pair, smoothed against ``state`` (a dict keyed by id pair)."""
    f = profile_score(cue_vector(volunteer, task), params)
    g = history_tendency(records, task)
    w_hat = raw_willingness(g, f, params)
    pair = (volunteer.id, task.id)
    previous = state.get(pair)
    if previous is None:
        value = w_hat
    else:
        value = params.smoothing * previous + (1.0 - params.smoothing) * w_hat
    state[pair] = value
    return value


def compute_utility(s, c, w, params):
    a, b = params.skill_weight, params.content_weight
    if params.form is UtilityForm.PRODUCT:
        return (a * s + b * c) * w
    return a * s + b * c * w
