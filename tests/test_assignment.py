import functools
import itertools
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from swati import similarity
from swati.assignment import (
    METHODS,
    Assignment,
    AssignedPair,
    CapacityMap,
    UtilityForm,
    UtilityMatrix,
    UtilityParams,
    assign,
    assign_random,
    assign_skill_only,
    assign_swati,
    assignment_digest,
    canonical_assignment_bytes,
    match_market,
    similarity_components,
    utility_matrix_from_components,
)
from swati.corpus import SyntheticConfig, generate_synthetic, generate_synthetic_history
from swati.errors import ConfigError, DimensionError
from swati.extraction import Market, PreferenceCues, Profile, TaskSpec, build_market
from swati.similarity import SparseRows
from swati.willingness import (
    WillingnessParams,
    histories_from_records,
    smooth,
    willingness_matrix,
)

import assignment_oracle
from assignment_oracle import (
    InstanceTooLargeError,
    assign_optimal_bruteforce,
    validate_assignment,
)
import python_reference as ref_paths
import scalar_reference as ref
from conftest import TEST_MARKET_SHAPE, row_list, sparse_rows


def _matrix(utilities, skill=None, content=None, willingness=None, params=None):
    """UtilityMatrix with U == given array (components s=c=u, w=1 by default)."""
    u = np.asarray(utilities, dtype=np.float64)
    n, m = u.shape
    vols = [f"v{i + 1}" for i in range(n)]
    tasks = [f"t{j + 1}" for j in range(m)]
    return utility_matrix_from_components(
        vols,
        tasks,
        u if skill is None else np.asarray(skill, dtype=np.float64),
        u if content is None else np.asarray(content, dtype=np.float64),
        np.ones_like(u) if willingness is None else np.asarray(willingness, dtype=np.float64),
        params or UtilityParams(),
    )


def _pairs(assignment):
    return {(p.volunteer_id, p.task_id) for p in assignment.pairs}


def _match(market, histories, params, epochs=1):
    return match_market(market, histories, CapacityMap(), UtilityParams(), params, epochs=epochs)


# --- utility computation ----------------------------------------------------


def _utility(s, c, w, params):
    return _matrix([[0.0]], [[s]], [[c]], [[w]], params).utilities[0, 0]


def test_compute_utility_upper_endpoint():
    for form in UtilityForm:
        params = UtilityParams(form=form)
        assert _utility(1.0, 1.0, 1.0, params) == 1.0


def test_compute_utility_zero_willingness_separates_forms():
    product = UtilityParams(form=UtilityForm.PRODUCT)
    split = UtilityParams(form=UtilityForm.SPLIT)
    assert _utility(0.8, 0.6, 0.0, product) == 0.0
    assert _utility(0.8, 0.6, 0.0, split) == pytest.approx(0.4, abs=1e-12)


def test_compute_utility_hand_value():
    params = UtilityParams()
    assert _utility(0.6, 0.4, 0.5, params) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
def test_matrix_rejects_values_outside_unit_interval(bad):
    with pytest.raises(ValueError):
        _matrix([[0.5, bad]])


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
def test_matrix_rejects_willingness_outside_unit_interval(bad):
    """The only check on smoothed willingness names it, also where the utilities inherit it."""
    valid = np.full((1, 2), 0.5)
    willingness = np.array([[0.5, bad]])
    with pytest.raises(ValueError, match="^willingness "):
        UtilityMatrix(("v1",), ("t1", "t2"), valid, valid, valid, willingness)
    with pytest.raises(ValueError, match="^willingness "):
        _matrix(valid, willingness=willingness)


def test_utility_params_validation():
    with pytest.raises(ConfigError):
        UtilityParams(skill_weight=0.6, content_weight=0.6)
    with pytest.raises(ConfigError):
        UtilityParams(skill_weight=-0.1, content_weight=1.1)
    # a sum may fall short of 1 by the tolerance, but never exceed it
    with pytest.raises(ConfigError):
        UtilityParams(skill_weight=0.5000000000005, content_weight=0.5)
    UtilityParams(skill_weight=0.4999999999995, content_weight=0.5)


# weights summing to 1 give or take a few tolerances
_NEAR_ONE_WEIGHTS = st.tuples(st.floats(0, 1), st.floats(-3e-12, 3e-12)).map(
    lambda pair: (pair[0], min(1.0, max(0.0, 1.0 - pair[0] + pair[1])))
)
_UNIT = st.floats(0, 1)


@example((0.5000000000005, 0.5), UtilityForm.PRODUCT, (0.5, 0.5, 0.5))
@given(_NEAR_ONE_WEIGHTS, st.sampled_from(UtilityForm), st.tuples(_UNIT, _UNIT, _UNIT))
def test_accepted_utility_params_keep_utilities_in_unit_interval(weights, form, components):
    """At every 0/1 corner of (skill, content, willingness) and at drawn values."""
    try:
        params = UtilityParams(*weights, form=form)
    except ConfigError:
        reject()
    for s, c, w in [components, *itertools.product((0.0, 1.0), repeat=3)]:
        assert 0.0 <= _utility(s, c, w, params) <= 1.0


def test_capacity_map_defaults_and_validation():
    caps = CapacityMap({"v1": 3})
    assert caps.get("v1") == 3
    assert caps.get("anyone") == 1
    with pytest.raises(ConfigError):
        CapacityMap({"v1": 0})


# --- matrix construction ----------------------------------------------------


def _tiny_market(seed=3, n=4, m=3, builtin=None):
    corpus = generate_synthetic(
        SyntheticConfig(seed=seed, n_volunteers=n, n_tasks=m, **TEST_MARKET_SHAPE), builtin
    )
    return build_market(corpus, builtin)


def _take_rows(rows, order):
    """The rows ``order`` of ``rows``, in that order."""
    each = row_list(rows)
    return sparse_rows((each[i].indices, each[i].weights) for i in order)


def _take_volunteers(market, order):
    """``market`` with its volunteers, and their vectors, ``order`` in that order."""
    return replace(
        market,
        profiles=tuple(market.profiles[i] for i in order),
        volunteer_vectors=_take_rows(market.volunteer_vectors, order),
    )


def _reference_market(builtin_ontology):
    """Generated market with history, plus every branch the kernel special-cases.

    Volunteer ``v-empty`` and task ``t-empty`` have no skills and no content;
    the first volunteer has no history and the second only irrelevant history.
    Returns the histories and, for the reference, the same rows as records.
    """
    market, rows = _epoch_rows(builtin_ontology, seed=31, n=40, m=30)

    def with_empty_row(rows):
        return SparseRows(rows.indices, rows.weights, [*rows.offsets, rows.offsets[-1]])

    market = Market(
        profiles=(*market.profiles, Profile("v-empty", frozenset(), PreferenceCues(0.6, 0.2))),
        taskspecs=(*market.taskspecs, TaskSpec("t-empty", frozenset())),
        volunteer_vectors=with_empty_row(market.volunteer_vectors),
        task_vectors=with_empty_row(market.task_vectors),
    )
    profiles = market.profiles
    dropped = {profiles[0].history_ref, profiles[1].history_ref}
    rows = [row for row in rows if row["volunteer_id"] not in dropped]
    rows += [
        {"volunteer_id": profiles[1].history_ref, "task_skills": ["No Such Skill"],
         "accepted": accepted}
        for accepted in (True, False, True)
    ]
    return market, histories_from_records(rows), ref.history_records(rows)


def test_matrix_matches_scalar_composition(builtin_ontology):
    """The kernel equals the per-pair reference bit for bit across smoothing epochs."""
    market, histories, records = _reference_market(builtin_ontology)
    profiles, taskspecs = market.profiles, market.taskspecs
    vectors = row_list(market.volunteer_vectors), row_list(market.task_vectors)
    skill, content = similarity_components(market)
    shape = (len(profiles), len(taskspecs))
    # a different history weight per epoch makes the raw estimates move, so
    # smoothing combines distinct previous and new values
    epoch_params = [WillingnessParams(history_weight=hw) for hw in (0.5, 0.2, 0.9)]
    volunteers, tasks = [p.id for p in profiles], [t.id for t in taskspecs]
    for form in UtilityForm:
        up = UtilityParams(skill_weight=0.6, content_weight=0.4, form=form)
        willingness, ref_state = None, {}
        for wp in epoch_params:
            w_hat = willingness_matrix(profiles, taskspecs, histories, skill > 0, wp)
            willingness = w_hat if willingness is None else smooth(willingness, w_hat, wp)
            matrix = utility_matrix_from_components(
                volunteers, tasks, skill, content, willingness, up
            )
            s_ref, c_ref, w_ref, u_ref = (np.empty(shape) for _ in range(4))
            for i, prof in enumerate(profiles):
                history = records.get(prof.history_ref or prof.id)
                for j, task in enumerate(taskspecs):
                    s_ref[i, j] = ref.skill_sim(prof.skills, task.required_skills)
                    c_ref[i, j] = ref.content_sim(vectors[0][i], vectors[1][j])
                    w_ref[i, j] = ref.pair_willingness(prof, task, history, ref_state, wp)
                    # the reference cosine may differ from the BLAS product in
                    # the last bits, so utilities use the kernel's content
                    u_ref[i, j] = ref.compute_utility(s_ref[i, j], content[i, j], w_ref[i, j], up)
            assert np.array_equal(matrix.skill, s_ref)
            assert np.array_equal(matrix.willingness, w_ref)
            assert np.array_equal(matrix.utilities, u_ref)
            assert np.allclose(matrix.content, c_ref, rtol=0.0, atol=1e-12)
            assert len(ref_state) == skill.size


def test_hoisted_raw_willingness_reproduces_epoch_states(builtin_ontology):
    """Raw willingness scored once per market gives every epoch's matrix bit for bit.

    The reference rescores each pair from its cues and history in every epoch
    and smooths it against the previous epoch, as ``match`` did before.
    """
    market, histories, records = _reference_market(builtin_ontology)
    profiles, taskspecs = market.profiles, market.taskspecs
    params = WillingnessParams(smoothing=0.6)
    ref_state = {}
    for epoch in range(3):
        result = _match(market, histories, params, epochs=epoch + 1)
        expected = np.array(
            [
                [
                    ref.pair_willingness(
                        prof, task, records.get(prof.history_ref), ref_state, params
                    )
                    for task in taskspecs
                ]
                for prof in profiles
            ]
        )
        assert np.array_equal(result.matrix.willingness, expected)
        assert result.assignments["swati"].epoch == epoch


def _constant_willingness_matrix(market, w):
    skill, content = similarity_components(market)
    return utility_matrix_from_components(
        [p.id for p in market.profiles], [t.id for t in market.taskspecs], skill, content,
        np.full(skill.shape, w), UtilityParams(),
    )


def test_matrix_shape_and_range(builtin_ontology):
    market = _tiny_market(seed=5, n=2, m=3, builtin=builtin_ontology)
    matrix = _constant_willingness_matrix(market, 0.5)
    assert matrix.utilities.shape == (2, 3)
    assert matrix.utilities.min() >= 0.0 and matrix.utilities.max() <= 1.0


def test_matrix_row_permutation(builtin_ontology):
    market = _tiny_market(seed=9, n=4, m=3, builtin=builtin_ontology)
    base = _constant_willingness_matrix(market, 0.7)
    perm = [2, 0, 3, 1]
    shuffled = _constant_willingness_matrix(_take_volunteers(market, perm), 0.7)
    assert np.allclose(shuffled.utilities, base.utilities[perm, :])


def test_matrix_requires_nonempty_inputs(builtin_ontology):
    market = _tiny_market(builtin=builtin_ontology)
    with pytest.raises(DimensionError):
        similarity_components(_take_volunteers(market, []))
    with pytest.raises(DimensionError):
        willingness_matrix(
            [], market.taskspecs, None, np.zeros((0, 3), dtype=bool), WillingnessParams()
        )


@pytest.mark.parametrize("shape", [(3, 2), (3, 3), (1, 3), (2,)])
@pytest.mark.parametrize("component", ["skill", "content", "willingness"])
def test_components_of_another_shape_are_a_dimension_error(component, shape):
    """2 volunteers x 3 tasks: a component of any other shape, broadcastable or
    not, is the engine's error before any arithmetic."""
    components = {name: np.full((2, 3), 0.5) for name in ("skill", "content", "willingness")}
    components[component] = np.full(shape, 0.5)
    with pytest.raises(DimensionError, match=f"{component} has shape"):
        utility_matrix_from_components(
            ["v1", "v2"], ["t1", "t2", "t3"], **components, params=UtilityParams()
        )


@pytest.mark.parametrize(
    "volunteers, tasks, message",
    [
        (("v", "v"), ("t0", "t1"), "id 'v' is repeated"),
        (("v0", "v1", "v0"), ("t0",), "id 'v0' is repeated"),
        (("v0",), ("t1", "t0", "t0", "t1"), "id 't1' is repeated"),
    ],
    ids=["volunteer_twice", "volunteer_apart", "tasks"],
)
def test_repeated_ids_are_a_dimension_error(volunteers, tasks, message):
    """An id names one row or column, as capacities and ``position`` assume."""
    shape = (len(volunteers), len(tasks))
    with pytest.raises(DimensionError, match=message):
        UtilityMatrix(volunteers, tasks, *(np.full(shape, 0.5) for _ in range(4)))


@pytest.mark.parametrize("repeat", ["profile", "taskspec"])
def test_match_market_rejects_a_market_with_a_repeated_id(builtin_ontology, repeat):
    market = _tiny_market(builtin=builtin_ontology)
    if repeat == "profile":
        market = _take_volunteers(market, [*range(len(market.profiles)), 0])
    else:
        order = [*range(1, len(market.taskspecs))] * 2
        market = replace(
            market,
            taskspecs=tuple(market.taskspecs[j] for j in order),
            task_vectors=_take_rows(market.task_vectors, order),
        )
    with pytest.raises(DimensionError, match="is repeated"):
        match_market(market, None, CapacityMap(), UtilityParams(), WillingnessParams())


_SKILL_NAMES = "ABCDEF"


def _exact_vector(rng):
    """Empty, one term of weight 1 or four terms of weight 1/2: every cosine
    of two such vectors is a sum of multiples of 1/4, exact in any order."""
    kind = rng.randrange(3)
    if kind == 0:
        return [], []
    indices = sorted(rng.sample(range(8), 1 if kind == 1 else 4))
    return indices, [1.0 if kind == 1 else 0.5] * len(indices)


def _random_market(seed, n, m):
    rng = random.Random(seed)
    profiles, volunteer_vectors, taskspecs, task_vectors = [], [], [], []
    for i in range(n):
        skills = frozenset(rng.sample(_SKILL_NAMES, rng.randint(0, 3)))
        volunteer_vectors.append(_exact_vector(rng))
        profiles.append(Profile(f"v{i}", skills, PreferenceCues(*(rng.random() for _ in range(5)))))
    for j in range(m):
        skills = frozenset(rng.sample(_SKILL_NAMES, rng.randint(0, 3)))
        task_vectors.append(_exact_vector(rng))
        taskspecs.append(TaskSpec(f"t{j}", skills))
    rows = [
        {"volunteer_id": p.id, "task_skills": rng.sample(_SKILL_NAMES + "XY", rng.randint(0, 2)),
         "accepted": rng.random() < 0.5}
        for p in profiles
        if rng.random() < 0.7
        for _ in range(rng.randint(1, 4))
    ]
    market = Market(
        profiles=tuple(profiles),
        taskspecs=tuple(taskspecs),
        volunteer_vectors=sparse_rows(volunteer_vectors),
        task_vectors=sparse_rows(task_vectors),
    )
    return market, rows


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    m=st.integers(1, 9),
    cells=st.integers(1, 12),
    with_history=st.booleans(),
)
@example(seed=1, n=1, m=5, cells=3, with_history=True)  # n = 1, a row longer than a block
@example(seed=2, n=7, m=1, cells=3, with_history=False)  # m = 1; 3-row blocks, 7 rows
@example(seed=3, n=7, m=3, cells=6, with_history=True)  # 2-row blocks, 7 rows
def test_row_blocks_equal_the_scalar_reference_bit_for_bit(seed, n, m, cells, with_history):
    """Every n x m stage, and the greedy's cutoff, with blocks of a few cells."""
    market, rows = _random_market(seed, n, m)
    profiles, taskspecs = market.profiles, market.taskspecs
    histories = histories_from_records(rows) if with_history else None
    records = ref.history_records(rows if with_history else [])
    wp = WillingnessParams()
    with mock.patch.object(similarity, "_BLOCK_CELLS", cells):
        skill, content = similarity_components(market)
        w = willingness_matrix(profiles, taskspecs, histories, skill > 0, wp)
        matrices = {
            form: utility_matrix_from_components(
                [p.id for p in profiles], [t.id for t in taskspecs], skill, content, w,
                UtilityParams(skill_weight=0.6, content_weight=0.4, form=form),
            )
            for form in UtilityForm
        }
        assignments = {
            form: assign_swati(matrix, CapacityMap()) for form, matrix in matrices.items()
        }
    s_ref = np.array([[ref.skill_sim(p.skills, t.required_skills) for t in taskspecs]
                      for p in profiles])
    c_ref = np.array([[ref.content_sim(a, b) for b in row_list(market.task_vectors)]
                      for a in row_list(market.volunteer_vectors)])
    w_ref = np.array([
        [ref.raw_willingness(ref.history_tendency(records.get(p.id), t),
                             ref.profile_score(ref.cue_vector(p, t), wp), wp)
         for t in taskspecs]
        for p in profiles
    ])
    assert skill.tobytes() == s_ref.tobytes()
    assert content.tobytes() == c_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()
    for form, matrix in matrices.items():
        up = UtilityParams(skill_weight=0.6, content_weight=0.4, form=form)
        u_ref = np.array([
            [ref.compute_utility(s_ref[i, j], c_ref[i, j], w_ref[i, j], up) for j in range(m)]
            for i in range(n)
        ])
        assert matrix.utilities.tobytes() == u_ref.tobytes()
        assert assignments[form] == ref_paths.greedy(matrix, matrix.utilities, CapacityMap(), 0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    levels=st.sampled_from([2, 3, 0]),
    cells=st.integers(1, 30),
    data=st.data(),
)
def test_top_cells_cutoff_is_the_kth_largest_across_row_blocks(seed, n, m, levels, cells, data):
    """The cutoff from the row blocks' k largest is the k-th largest of all
    scores, and every score at least that is let in, ties included."""
    import swati.assignment as assignment

    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(n, m)) / (levels - 1) if levels else rng.uniform(
        size=(n, m))
    k = data.draw(st.integers(1, n * m + 2), label="k")
    with mock.patch.object(similarity, "_BLOCK_CELLS", cells):
        rows, cols = assignment._top_cells(scores, k)
    cutoff = np.sort(scores, axis=None)[::-1][min(k, n * m) - 1]
    expected_rows, expected_cols = np.nonzero(scores >= cutoff)
    assert rows.tolist() == expected_rows.tolist() and cols.tolist() == expected_cols.tolist()


# --- greedy matcher ---------------------------------------------------------


def test_swati_single_pair():
    assignment = assign_swati(_matrix([[0.9]]), CapacityMap())
    assert assignment.pairs == (AssignedPair("v1", "t1", 0.9),)


def test_swati_respects_capacity():
    assignment = assign_swati(_matrix([[0.9, 0.8]]), CapacityMap({"v1": 1}))
    assert _pairs(assignment) == {("v1", "t1")}


def test_swati_lexicographic_tie_break():
    assignment = assign_swati(_matrix([[0.5, 0.5], [0.5, 0.5]]), CapacityMap())
    assert [(p.volunteer_id, p.task_id) for p in assignment.pairs] == [
        ("v1", "t1"),
        ("v2", "t2"),
    ]


def test_swati_deterministic(builtin_ontology):
    market = _tiny_market(seed=17, n=5, m=5, builtin=builtin_ontology)
    a, b = (_match(market, None, WillingnessParams()) for _ in range(2))
    assert a.assignments == b.assignments


def test_swati_scaling_invariance():
    rng = np.random.default_rng(0)
    u = rng.uniform(size=(5, 6)) * 0.25
    base = _pairs(assign_swati(_matrix(u), CapacityMap()))
    for k in (0.5, 0.25, 2.0, 4.0):
        # powers of two scale floats exactly, preserving the order
        scaled = _pairs(assign_swati(_matrix(u * k), CapacityMap()))
        assert scaled == base


def test_swati_equals_skill_only_when_s_equals_c():
    rng = np.random.default_rng(1)
    s = rng.uniform(size=(4, 4))
    matrix = _matrix(s, skill=s, content=s, willingness=np.ones_like(s))
    assert _pairs(assign_swati(matrix, CapacityMap())) == _pairs(
        assign_skill_only(matrix, CapacityMap())
    )


def _id_list(rng, prefix, k):
    """k distinct ids whose string order differs from row order ("x10" < "x2")."""
    return [f"{prefix}{i}" for i in rng.permutation(k)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    m=st.integers(1, 80),
    levels=st.sampled_from([2, 3, 5, 0]),
    max_cap=st.integers(1, 4),
)
def test_greedy_matches_global_sort_reference(seed, n, m, levels, max_cap):
    """The lexsort walk picks exactly what a global sort of all n*m pairs picks.

    ``levels`` > 0 draws scores from that many values (heavy ties), 0 from
    uniform floats; markets up to 80x80 span several walk blocks.
    """
    rng = np.random.default_rng(seed)

    def scores():
        if levels:
            return rng.integers(0, levels, size=(n, m)) / (levels - 1)
        return rng.uniform(size=(n, m))

    utilities = scores()
    matrix = UtilityMatrix(
        volunteers=tuple(_id_list(rng, "v", n)),
        tasks=tuple(_id_list(rng, "t", m)),
        utilities=utilities,
        skill=scores(),
        content=utilities,
        willingness=np.ones((n, m)),
    )
    caps = CapacityMap(
        {v: int(rng.integers(1, max_cap + 1)) for v in matrix.volunteers},
        default=max_cap,
    )
    assert assign_swati(matrix, caps) == ref_paths.greedy(matrix, matrix.utilities, caps, 0)
    assert assign_skill_only(matrix, caps) == ref_paths.greedy(matrix, matrix.skill, caps, 0)


def _score_matrix(utilities, skill=None, volunteers=None, tasks=None):
    n, m = utilities.shape
    return UtilityMatrix(
        volunteers=tuple(volunteers or (f"v{i}" for i in range(n))),
        tasks=tuple(tasks or (f"t{j}" for j in range(m))),
        utilities=utilities,
        skill=utilities if skill is None else skill,
        content=utilities,
        willingness=np.ones((n, m)),
    )


def _assert_greedy_matches_reference(matrix, caps):
    assert assign_swati(matrix, caps) == ref_paths.greedy(matrix, matrix.utilities, caps, 0)
    assert assign_skill_only(matrix, caps) == ref_paths.greedy(matrix, matrix.skill, caps, 0)


@pytest.fixture
def rounds(monkeypatch):
    """Record (live scores' shape, k, pairs let in) of every greedy round."""
    import swati.assignment as assignment

    seen = []
    original = assignment._top_cells

    def recording(scores, k):
        r, c = original(scores, k)
        seen.append((scores.shape, k, r.size))
        return r, c

    monkeypatch.setattr(assignment, "_top_cells", recording)
    return seen


@pytest.mark.parametrize("cap", [1, 2])
def test_greedy_rounds_when_every_row_outranks_the_next(rounds, cap):
    """Each round takes only a few rows' best tasks, so k must keep doubling."""
    rng = np.random.default_rng(3)
    n = m = 60
    utilities = (np.arange(n)[::-1, None] + rng.uniform(size=(n, m))) / n
    _assert_greedy_matches_reference(_score_matrix(utilities), CapacityMap(default=cap))
    swati_rounds = rounds[: len(rounds) // 2]
    assert len(swati_rounds) >= 3
    assert [k for _, k, _ in swati_rounds] == [4 * m * 2**r for r in range(len(swati_rounds))]
    for shape, k, taken_in in swati_rounds:
        assert taken_in == min(k, shape[0] * shape[1])  # distinct scores: exactly k pairs


@pytest.mark.parametrize("n, m", [(120, 40), (40, 120)])
@pytest.mark.parametrize("levels", [2, 3])
def test_greedy_cutoff_inside_a_tie_run(rounds, n, m, levels):
    """With 2-3 score levels the k-th largest score sits inside a run of equal
    scores; every pair of that run is let in, in (volunteer id, task id) order."""
    rng = np.random.default_rng(n * levels)
    utilities = rng.integers(0, levels, size=(n, m)) / (levels - 1)
    skill = rng.integers(0, levels, size=(n, m)) / (levels - 1)
    matrix = _score_matrix(
        utilities, skill,
        volunteers=_id_list(rng, "v", n),
        tasks=_id_list(rng, "t", m),
    )
    caps = CapacityMap({v: int(rng.integers(1, 5)) for v in matrix.volunteers})
    _assert_greedy_matches_reference(matrix, caps)
    assert any(taken_in > k for shape, k, taken_in in rounds if k < shape[0] * shape[1])


def test_greedy_round_where_all_but_the_first_candidate_is_blocked(rounds):
    """The first round's candidates are volunteer 0's row and task 0's column;
    taking (v0, t0) blocks every other one of them."""
    n, m = 13, 3
    utilities = np.full((n, m), 0.1)
    utilities[0, :] = 0.8
    utilities[:, 0] = 0.8
    utilities[0, 0] = 0.9
    utilities[1:, 1:] += np.arange((n - 1) * (m - 1)).reshape(n - 1, m - 1) / 1000
    matrix = _score_matrix(utilities)
    assignment = assign_swati(matrix, CapacityMap())
    assert assignment == ref_paths.greedy(matrix, matrix.utilities, CapacityMap(), 0)
    assert rounds[0] == ((n, m), 4 * m, n + m - 1)  # ties at 0.8 let in
    assert len(rounds) == 2
    assert assignment.pairs[0] == AssignedPair("v0", "t0", 0.9)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1)])
@pytest.mark.parametrize("cap", [1, 3])
def test_greedy_single_volunteer_or_task(shape, cap):
    rng = np.random.default_rng(sum(shape) + cap)
    utilities = rng.integers(0, 3, size=shape) / 2
    _assert_greedy_matches_reference(_score_matrix(utilities), CapacityMap(default=cap))


@pytest.mark.parametrize("cap", [10, 11, 50, 10**20])
def test_greedy_capacity_above_task_count(rounds, cap):
    """A volunteer can take at most m tasks, so a larger capacity changes nothing.

    Every task outranks the next, so the first round takes only the first
    few tasks and leaves every volunteer live for the next one.
    """
    rng = np.random.default_rng(cap % 97)
    n, m = 6, 10
    utilities = (np.arange(m)[::-1] + rng.uniform(size=(n, m))) / m
    matrix = _score_matrix(utilities)
    caps = CapacityMap({"v1": cap + 1}, default=cap)
    _assert_greedy_matches_reference(matrix, caps)
    assert assign_swati(matrix, caps) == assign_swati(matrix, CapacityMap(default=m))
    # the first round's 4m pairs reach 7 tasks; every volunteer stays live
    assert [shape for shape, _, _ in rounds[:2]] == [(n, m), (n, m - 7)]


# --- baselines ----------------------------------------------------------------


def test_random_respects_capacity():
    assignment = assign_random(_matrix([[0.9, 0.8]]), CapacityMap({"v1": 1}), seed=0)
    assert len(assignment.pairs) == 1


def test_random_reproducible():
    matrix = _matrix(np.random.default_rng(2).uniform(size=(4, 5)))
    a = assign_random(matrix, CapacityMap(), seed=42)
    b = assign_random(matrix, CapacityMap(), seed=42)
    assert a == b


def test_random_perfect_matching_when_square():
    matrix = _matrix(np.random.default_rng(3).uniform(size=(6, 6)))
    assignment = assign_random(matrix, CapacityMap(), seed=7)
    assert len(assignment.pairs) == 6
    assert len({p.volunteer_id for p in assignment.pairs}) == 6


def test_skill_only_ignores_willingness():
    skill = [[1.0, 0.5]]
    willingness = [[0.1, 0.9]]
    matrix = _matrix(
        np.zeros((1, 2)), skill=skill, content=np.zeros((1, 2)), willingness=willingness
    )
    assignment = assign_skill_only(matrix, CapacityMap({"v1": 1}))
    assert _pairs(assignment) == {("v1", "t1")}
    # reported utility is the full utility of that cell, not the skill score
    assert assignment.pairs[0].utility == pytest.approx(
        float(matrix.utilities[0, 0]), abs=1e-12
    )


def test_skill_only_all_ties_reduce_to_lexicographic():
    s = np.full((2, 2), 0.4)
    matrix = _matrix(np.zeros((2, 2)), skill=s, content=np.zeros((2, 2)),
                     willingness=np.full((2, 2), 0.5))
    assignment = assign_skill_only(matrix, CapacityMap())
    assert [(p.volunteer_id, p.task_id) for p in assignment.pairs] == [
        ("v1", "t1"),
        ("v2", "t2"),
    ]


def test_skill_only_zero_skill_still_covers():
    matrix = _matrix(
        np.zeros((2, 5)), skill=np.zeros((2, 5)), content=np.zeros((2, 5)),
        willingness=np.ones((2, 5)),
    )
    assignment = assign_skill_only(matrix, CapacityMap({"v1": 2, "v2": 2}, default=2))
    assert len(assignment.pairs) == 4  # min(N*c, M)


# --- brute force oracle -------------------------------------------------------


def test_bruteforce_single_cell():
    assignment = assign_optimal_bruteforce(_matrix([[0.9]]), CapacityMap())
    assert _pairs(assignment) == {("v1", "t1")}


def test_bruteforce_prefers_skipping_zero_utility():
    assignment = assign_optimal_bruteforce(_matrix([[0.0]]), CapacityMap())
    assert assignment.pairs == ()


def test_bruteforce_beats_greedy_on_crafted_instance():
    u = [[0.9, 0.8], [0.85, 0.1]]
    matrix = _matrix(u)
    greedy = assign_swati(matrix, CapacityMap())
    optimal = assign_optimal_bruteforce(matrix, CapacityMap())
    assert greedy.total_utility() == pytest.approx(1.0, abs=1e-9)
    assert _pairs(optimal) == {("v1", "t2"), ("v2", "t1")}
    assert optimal.total_utility() == pytest.approx(1.65, abs=1e-9)


def _oracle_market(rng, n, m, levels, max_cap):
    utilities = (
        rng.integers(0, levels, size=(n, m)) / (levels - 1) if levels else rng.uniform(size=(n, m))
    )
    matrix = _matrix(utilities)
    caps = CapacityMap({v: int(rng.integers(1, max_cap + 1)) for v in matrix.volunteers})
    return matrix, caps


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    levels=st.sampled_from([0, 2, 3]),
    max_cap=st.integers(1, 3),
)
def test_hungarian_oracle_matches_bruteforce(seed, n, m, levels, max_cap):
    matrix, caps = _oracle_market(np.random.default_rng(seed), n, m, levels, max_cap)
    pairs = assignment_oracle.optimal_pairs(matrix, caps)
    validate_assignment(
        Assignment(tuple(AssignedPair(matrix.volunteers[i], matrix.tasks[j],
                                      float(matrix.utilities[i, j])) for i, j in pairs)),
        caps,
        matrix,
    )
    expected = assign_optimal_bruteforce(matrix, caps).total_utility()
    assert assignment_oracle.optimal_total(matrix, caps) == pytest.approx(expected, abs=1e-9)


def test_hungarian_oracle_agrees_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for n, m, max_cap in [(40, 40, 1), (30, 50, 3), (50, 20, 2)]:
        matrix, caps = _oracle_market(rng, n, m, 0, max_cap)
        slots = np.repeat(np.arange(n), [min(caps.get(v), m) for v in matrix.volunteers])
        rows, cols = optimize.linear_sum_assignment(matrix.utilities[slots], maximize=True)
        expected = matrix.utilities[slots][rows, cols].sum()
        assert assignment_oracle.optimal_total(matrix, caps) == pytest.approx(expected, abs=1e-9)


def test_bruteforce_guard():
    with pytest.raises(InstanceTooLargeError):
        assign_optimal_bruteforce(_matrix(np.zeros((9, 1))), CapacityMap())


def test_greedy_half_approximation_sample():
    rng = random.Random(123)
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        u = np.array([[rng.random() for _ in range(m)] for _ in range(n)])
        caps = CapacityMap({f"v{i + 1}": rng.choice([1, 2]) for i in range(n)})
        matrix = _matrix(u)
        greedy_total = assign_swati(matrix, caps).total_utility()
        optimal_total = assign_optimal_bruteforce(matrix, caps).total_utility()
        assert greedy_total >= 0.5 * optimal_total - 1e-9


# --- shared validator ---------------------------------------------------------


def test_validator_accepts_all_algorithms(builtin_ontology):
    rng = np.random.default_rng(11)
    matrix = _matrix(rng.uniform(size=(5, 4)))
    caps = CapacityMap({"v1": 2})
    for assignment in (
        assign_swati(matrix, caps),
        assign_skill_only(matrix, caps),
        assign_random(matrix, caps, seed=5),
        assign_optimal_bruteforce(matrix, caps),
    ):
        validate_assignment(assignment, caps, matrix)


def test_validator_rejects_duplicate_task():
    bad = Assignment(
        pairs=(AssignedPair("v1", "t1", 0.5), AssignedPair("v2", "t1", 0.4))
    )
    with pytest.raises(ValueError):
        validate_assignment(bad, CapacityMap())


def test_validator_rejects_over_capacity():
    bad = Assignment(
        pairs=(AssignedPair("v1", "t1", 0.5), AssignedPair("v1", "t2", 0.4))
    )
    with pytest.raises(ValueError):
        validate_assignment(bad, CapacityMap({"v1": 1}))


def test_validator_rejects_wrong_utility():
    matrix = _matrix([[0.5]])
    bad = Assignment(pairs=(AssignedPair("v1", "t1", 0.9),))
    with pytest.raises(ValueError):
        validate_assignment(bad, CapacityMap(), matrix)


# --- epochs -------------------------------------------------------------------


def _epoch_rows(builtin_ontology, seed=23, n=6, m=5):
    """A generated market and its history rows."""
    cfg = SyntheticConfig(seed=seed, n_volunteers=n, n_tasks=m, **TEST_MARKET_SHAPE)
    corpus = generate_synthetic(cfg, builtin_ontology)
    market = build_market(corpus, builtin_ontology)
    return market, generate_synthetic_history(cfg, corpus, builtin_ontology)


def _epoch_inputs(builtin_ontology, seed=23, n=6, m=5):
    market, rows = _epoch_rows(builtin_ontology, seed, n, m)
    return market, histories_from_records(rows)


def test_match_market_digest_is_stable(builtin_ontology):
    market, histories = _epoch_inputs(builtin_ontology)
    digests = []
    for _ in range(2):
        result = _match(market, histories, WillingnessParams())
        digests.append(assignment_digest(result.assignments["swati"]))
    assert digests[0] == digests[1]


def test_first_epoch_takes_the_raw_estimate(builtin_ontology):
    market, histories = _epoch_inputs(builtin_ontology)
    params = WillingnessParams(smoothing=0.6)
    result = _match(market, histories, params, epochs=1)
    skill, _ = similarity_components(market)
    w_hat = willingness_matrix(market.profiles, market.taskspecs, histories, skill > 0, params)
    assert result.matrix.willingness.tobytes() == w_hat.tobytes()


@pytest.mark.parametrize("smoothing", [0.0, 1.0, 0.7])
def test_static_inputs_make_epochs_identical(builtin_ontology, smoothing):
    market, histories = _epoch_inputs(builtin_ontology)
    params = WillingnessParams(smoothing=smoothing)
    first = _match(market, histories, params, epochs=1)
    second = _match(market, histories, params, epochs=2)
    assert _pairs(first.assignments["swati"]) == _pairs(second.assignments["swati"])
    assert np.allclose(first.matrix.willingness, second.matrix.willingness)


def test_match_market_equals_the_epoch_loop(builtin_ontology):
    """Only the last epoch is assigned; it matches assigning after every epoch."""
    market, histories = _epoch_inputs(builtin_ontology, n=9, m=7)
    params = WillingnessParams(smoothing=0.6)
    caps = CapacityMap(default=2)
    result = match_market(
        market, histories, caps, UtilityParams(), params, methods=METHODS, epochs=3, seed=4
    )
    skill, content = similarity_components(market)
    w_hat = willingness_matrix(market.profiles, market.taskspecs, histories, skill > 0, params)
    volunteers = [p.id for p in market.profiles]
    tasks = [t.id for t in market.taskspecs]
    willingness = w_hat
    for epoch in range(3):
        if epoch:
            willingness = smooth(willingness, w_hat, params)
        matrix = utility_matrix_from_components(
            volunteers, tasks, skill, content, willingness, UtilityParams()
        )
        expected = {
            method: replace(assign(method, matrix, caps, seed=4), epoch=epoch)
            for method in METHODS
        }
    assert np.array_equal(result.matrix.utilities, matrix.utilities)
    assert np.array_equal(result.matrix.willingness, willingness)
    assert result.assignments == expected
    assert list(result.assignments) == list(METHODS)
    assert all(a.epoch == 2 for a in result.assignments.values())


def test_smoothing_stops_once_an_epoch_changes_nothing(builtin_ontology, monkeypatch):
    """A huge ``epochs`` smooths only until the matrix stops changing, with the same result."""
    import swati.assignment as assignment

    calls = []
    monkeypatch.setattr(
        assignment, "smooth", lambda *args: calls.append(1) or smooth(*args)
    )
    market, histories = _epoch_inputs(builtin_ontology)
    params = WillingnessParams(smoothing=0.6)
    run = functools.partial(
        match_market, market, histories, CapacityMap(), UtilityParams(), params,
        methods=METHODS, seed=4,
    )
    huge = run(epochs=10**6)
    assert len(calls) <= 3
    five = run(epochs=5)
    assert huge.matrix.utilities.tobytes() == five.matrix.utilities.tobytes()
    assert huge.matrix.willingness.tobytes() == five.matrix.willingness.tobytes()
    assert {method: a.pairs for method, a in huge.assignments.items()} == {
        method: a.pairs for method, a in five.assignments.items()
    }


@pytest.mark.parametrize("method, calls", [("swati", 1), ("skill", 0)])
def test_match_market_runs_one_greedy(builtin_ontology, monkeypatch, method, calls):
    import swati.assignment as assignment

    seen = []
    original = assignment.assign_swati
    monkeypatch.setattr(
        assignment, "assign_swati", lambda *a, **k: seen.append(1) or original(*a, **k)
    )
    market, histories = _epoch_inputs(builtin_ontology)
    match_market(
        market, histories, CapacityMap(), UtilityParams(), WillingnessParams(),
        methods=(method,), epochs=3,
    )
    assert len(seen) == calls


@pytest.mark.parametrize(
    "methods, epochs, seed",
    [(("swati",), 0, None), (("random",), 1, None), (("greedy",), 1, 1)],
    ids=["zero_epochs", "random_without_seed", "unknown_method"],
)
def test_match_market_rejects_bad_requests(builtin_ontology, methods, epochs, seed):
    market, histories = _epoch_inputs(builtin_ontology)
    with pytest.raises(ConfigError):
        match_market(
            market, histories, CapacityMap(), UtilityParams(), WillingnessParams(),
            methods=methods, epochs=epochs, seed=seed,
        )


def test_canonical_bytes_round_trip():
    assignment = Assignment(pairs=(AssignedPair("v1", "t1", 0.25),), epoch=2)
    blob = canonical_assignment_bytes(assignment)
    assert blob == b'{"epoch":2,"pairs":[["v1","t1",0.25]]}'
    assert len(assignment_digest(assignment)) == 32
