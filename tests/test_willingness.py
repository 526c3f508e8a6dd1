import json
import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from swati import willingness
from swati.errors import ConfigError, DimensionError, ParseError
from swati.extraction import PreferenceCues, Profile, TaskSpec
from swati.willingness import (
    History,
    WillingnessParams,
    cue_score_matrix,
    histories_from_records,
    load_history,
    raw_willingness,
    smooth,
    tendency_matrix,
    willingness_matrix,
)

import scalar_reference as ref

# Logistic endpoints for gain 4, center 0.5, evaluated by hand:
# sigma(2) and sigma(-2).
SIGMA_PLUS = 0.8807970779778823
SIGMA_MINUS = 0.11920292202211755


def _profile(cues: PreferenceCues, skills=frozenset()):
    return Profile(id="v1", skills=frozenset(skills), cues=cues)


def _task(skills=frozenset()):
    return TaskSpec(id="t1", required_skills=frozenset(skills))


def _cue_score(cues, overlap=True, params=WillingnessParams()):
    return cue_score_matrix([_profile(cues)], np.array([[overlap]]), params)[0, 0]


def _row(vid, skills, accepted):
    return {"volunteer_id": vid, "task_skills": list(skills), "accepted": accepted}


def _history_tendency(records, task):
    """Tendency of volunteer v1 with (task skills, accepted) ``records`` toward ``task``."""
    histories = histories_from_records([_row("v1", *record) for record in records])
    return tendency_matrix([_profile(PreferenceCues())], [task], histories)[0, 0]


def _smooth(previous, w_hat, params):
    """One pair's willingness after an epoch that held ``previous`` and now estimates ``w_hat``."""
    return smooth(np.array([[previous]]), np.array([[w_hat]]), params)[0, 0]


def test_cue_vector_zeros():
    assert _cue_score(PreferenceCues()) == 0.0
    assert _cue_score(PreferenceCues(), overlap=False) == 0.0


def test_cue_vector_all_ones_with_overlap():
    cues = PreferenceCues(1.0, 1.0, 1.0, 1.0, 1.0)
    assert _cue_score(cues) == pytest.approx(1.0, abs=1e-12)


def test_cue_vector_affinity_halved_without_overlap():
    cues = PreferenceCues(domain_affinity=0.8)
    affinity_only = WillingnessParams(cue_weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    assert _cue_score(cues, overlap=True, params=affinity_only) == pytest.approx(0.8, abs=1e-12)
    assert _cue_score(cues, overlap=False, params=affinity_only) == pytest.approx(
        0.4, abs=1e-12
    )


def test_cue_scores_pick_damping_per_cell():
    profiles = [_profile(PreferenceCues(0.8, 0.4)), _profile(PreferenceCues(0.2))]
    overlap = np.array([[True, False], [False, True]])
    scores = cue_score_matrix(profiles, overlap, WillingnessParams())
    assert scores == pytest.approx(np.array([[0.24, 0.16], [0.02, 0.04]]), abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (0, 3), (1,), (1, 2, 2)])
def test_cue_scores_need_one_overlap_row_per_profile(shape):
    """One profile: an overlap without exactly one row is refused, not read
    past (three rows once returned uninitialized memory in the last two)."""
    with pytest.raises(DimensionError, match="overlap has shape"):
        cue_score_matrix([_profile(PreferenceCues(0.8))], np.ones(shape, dtype=bool),
                         WillingnessParams())


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (1, 3), (3,), (2, 3, 1)])
def test_willingness_matrix_needs_an_overlap_per_pair(shape):
    profiles = [_profile(PreferenceCues(0.8)), _profile(PreferenceCues(0.2))]
    tasks = [_task({"A"}), _task(), _task({"B"})]
    with pytest.raises(DimensionError, match=r"overlap has shape .*, expected \(2, 3\)"):
        willingness_matrix(profiles, tasks, None, np.ones(shape, dtype=bool),
                           WillingnessParams())


def test_profile_score_endpoints():
    assert _cue_score(PreferenceCues(1.0, 1.0, 1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert _cue_score(PreferenceCues()) == 0.0


def test_profile_score_weighted_dot():
    params = WillingnessParams(cue_weights=(0.4, 0.3, 0.1, 0.1, 0.1))
    cues = PreferenceCues(domain_affinity=0.5, prior_exposure=1.0)
    assert _cue_score(cues, params=params) == pytest.approx(0.5, abs=1e-12)


def test_history_tendency_prior():
    profile, task = _profile(PreferenceCues()), _task({"A"})
    assert tendency_matrix([profile], [task], None)[0, 0] == 0.5
    assert _history_tendency([], task) == 0.5
    # a history that exists but holds no rows of its load
    columns = histories_from_records([_row("v1", "A", True)])["v1"].columns
    for at in (0, 1):
        empty = {"v1": History(range(at, at), columns)}
        assert tendency_matrix([profile], [task], empty)[0, 0] == 0.5


def test_history_tendency_intersecting_records():
    records = [("A", True), ("AB", True), ("A", False), ("Z", False)]
    assert _history_tendency(records, _task({"A"})) == pytest.approx(2 / 3, abs=1e-12)


def test_history_tendency_fallback_overall():
    records = [("Z", accepted) for accepted in (True, True, True, True, False)]
    assert _history_tendency(records, _task({"A"})) == pytest.approx(0.8, abs=1e-12)


def _reference_tendency(profiles, taskspecs, rows):
    records = ref.history_records(rows)
    return np.array(
        [
            [ref.history_tendency(records.get(p.history_ref or p.id), t) for t in taskspecs]
            for p in profiles
        ]
    )


# tasks name A-D; records also name X and Y, which no task names, repeat
# names within a record, or name none
_TASK_SKILLS = st.frozensets(st.sampled_from("ABCD"), max_size=3)
_ROWS = st.lists(
    st.builds(_row, st.sampled_from(["h0", "h1", "h2", "h3"]),
              st.lists(st.sampled_from("ABCDXY"), max_size=4), st.booleans()),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tendency_matrix_equals_per_pair_reference(data):
    """Rows in any volunteer order, loaded at once or split over two loads,
    with or without a history of no rows."""
    block = data.draw(st.integers(1, 5), label="block")
    rows = data.draw(_ROWS, label="rows")
    if data.draw(st.booleans(), label="two loads"):
        histories = {
            **histories_from_records(r for r in rows if r["volunteer_id"] < "h2"),
            **histories_from_records(r for r in rows if r["volunteer_id"] >= "h2"),
        }
    else:
        histories = histories_from_records(rows)
    if histories and data.draw(st.booleans(), label="empty history"):
        # h4 exists but holds no rows, at any position of one load's columns
        columns = next(iter(histories.values())).columns
        at = data.draw(st.integers(0, columns.accepted.size), label="empty at")
        histories["h4"] = History(range(at, at), columns)
    # a volunteer without history, one sharing another's history, one under its own id
    refs = data.draw(
        st.lists(st.sampled_from(["h0", "h1", "h2", "h3", "h4", "none"]), min_size=1, max_size=6)
    )
    profiles = [
        Profile(id=hid, skills=frozenset(), cues=PreferenceCues(),
                history_ref=None if k % 2 else hid)
        for k, hid in enumerate(refs)
    ]
    tasks = [
        TaskSpec(id=f"t{j}", required_skills=skills)
        for j, skills in enumerate(data.draw(st.lists(_TASK_SKILLS, min_size=1, max_size=5)))
    ]
    with mock.patch.object(willingness, "_WALK_BLOCK", block):
        got = tendency_matrix(profiles, tasks, histories)
    assert np.array_equal(got, _reference_tendency(profiles, tasks, rows))


@pytest.mark.parametrize("task_skills", [["A", "AB", "", "CD", "D", "ABCD"], ["", ""]])
def test_tendency_matrix_blocks_at_full_size(task_skills):
    """Block edges at the module's block size: one history longer than a block,
    histories that fill several blocks, a shared history, no history, records
    that no task names, and a task without skills, or only such tasks."""
    rng = random.Random(7)

    def rows(vid, n, skills="ABCDXY"):
        return [
            _row(vid, rng.sample(skills, rng.randint(0, 2)), rng.random() < 0.6)
            for _ in range(n)
        ]

    size = willingness._WALK_BLOCK
    history_rows = [
        *rows("long", size + 37),
        *rows("irrelevant", 9, "XY"),
        *(row for k in range(8) for row in rows(f"h{k}", size // 3 + k)),
    ]
    histories = histories_from_records(history_rows)
    profiles = [
        Profile(id=vid, skills=frozenset(), cues=PreferenceCues(), history_ref=hid)
        for vid, hid in [("v0", "h0"), ("long", None), ("v2", "h1"), ("v3", "h1"),
                         ("v4", "none"), ("irrelevant", None),
                         *((f"w{k}", f"h{k}") for k in range(2, 8))]
    ]
    tasks = [
        TaskSpec(id=f"t{j}", required_skills=frozenset(skills))
        for j, skills in enumerate(task_skills)
    ]
    got = tendency_matrix(profiles, tasks, histories)
    assert np.array_equal(got, _reference_tendency(profiles, tasks, history_rows))
    assert np.all(got[4] == 0.5)  # no history
    assert np.all(got[5] == got[5, 0])  # nothing relevant: the overall fraction


class _UnreadTask:
    @property
    def required_skills(self):
        raise AssertionError("task skills read")


def test_tendency_matrix_without_history_skips_the_tasks():
    """With no history for any profile the prior is returned before tasks are read."""
    histories = histories_from_records([_row("other", "A", True)])
    for given in (None, {}, histories):
        got = tendency_matrix([_profile(PreferenceCues())], [_UnreadTask()], given)
        assert got.tolist() == [[0.5]]


def test_raw_willingness_center():
    params = WillingnessParams()
    assert raw_willingness(0.5, 0.5, params) == pytest.approx(0.5, abs=1e-12)


def test_raw_willingness_hand_values():
    params = WillingnessParams()
    assert raw_willingness(1.0, 1.0, params) == pytest.approx(SIGMA_PLUS, abs=1e-12)
    assert raw_willingness(0.0, 0.0, params) == pytest.approx(SIGMA_MINUS, abs=1e-12)


def test_raw_willingness_history_only_mixing():
    params = WillingnessParams(history_weight=1.0)
    for f in (0.0, 0.3, 1.0):
        expected = 1.0 / (1.0 + math.exp(-4.0 * (0.3 - 0.5)))
        assert raw_willingness(0.3, f, params) == pytest.approx(expected, abs=1e-12)


def test_smooth_convex_combination():
    params = WillingnessParams(smoothing=0.7)
    assert _smooth(0.4, 0.8, params) == pytest.approx(0.52, abs=1e-12)


def test_smooth_leaves_its_inputs_unchanged():
    previous, w_hat = np.array([[0.4]]), np.array([[0.8]])
    smooth(previous, w_hat, WillingnessParams())
    assert previous.tolist() == [[0.4]] and w_hat.tolist() == [[0.8]]


def test_smoothing_one_freezes_state():
    params = WillingnessParams(smoothing=1.0)
    assert _smooth(0.4, 0.9, params) == pytest.approx(0.4)


@given(st.floats(0, 1), st.floats(0, 1))
def test_smoothing_zero_is_identity(prev, w_hat):
    params = WillingnessParams(smoothing=0.0)
    assert _smooth(prev, w_hat, params) == w_hat


@st.composite
def _accepted_params(draw):
    """``WillingnessParams`` that validate, over any positive gain and finite center."""
    try:
        return WillingnessParams(
            history_weight=draw(st.floats(0, 1)),
            sigmoid_gain=draw(st.floats(0, 1e308, exclude_min=True)),
            sigmoid_center=draw(st.floats(-1e308, 1e308)),
        )
    except ConfigError:
        reject()


# the largest gain at center 0.5, and one whose product is exactly the bound
@example(0.0, 0.0, WillingnessParams(sigmoid_gain=1400.0))
@example(0.0, 0.0, WillingnessParams(sigmoid_gain=2 * math.log(sys.float_info.max)))
@given(st.floats(0, 1), st.floats(0, 1), _accepted_params())
def test_raw_willingness_closure(g, f, params):
    # a far negative center can take the logistic's input to +inf, which gives 1
    with np.errstate(over="ignore"):
        for p in (WillingnessParams(), params):
            assert 0.0 <= raw_willingness(g, f, p) <= 1.0


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_smoothing_contraction(prev_a, prev_b, hat_a, hat_b, lam):
    params = WillingnessParams(smoothing=lam)
    out_a = _smooth(prev_a, hat_a, params)
    out_b = _smooth(prev_b, hat_b, params)
    bound = lam * abs(prev_a - prev_b) + (1 - lam) * abs(hat_a - hat_b)
    assert abs(out_a - out_b) <= bound + 1e-12


def test_monotone_in_history_and_cues():
    params = WillingnessParams()
    grid = np.linspace(0, 1, 10)
    for f in grid:
        values = [raw_willingness(g, f, params) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
    for g in grid:
        values = [raw_willingness(g, f, params) for f in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"history_weight": 1.2},
        {"smoothing": -0.1},
        {"cue_weights": (0.5, 0.5)},
        {"cue_weights": (0.5, 0.5, 0.5, 0.5, 0.5)},
        {"cue_weights": (-0.2, 0.3, 0.3, 0.3, 0.3)},
        {"sigmoid_gain": 0.0},
        # math.exp of the logistic at mix 0 would overflow
        {"sigmoid_gain": 2000.0},
        {"sigmoid_gain": 1e308},
        {"sigmoid_gain": 200.0, "sigmoid_center": 3.6},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConfigError):
        WillingnessParams(**kwargs)


def test_pair_willingness_composes():
    cues = PreferenceCues(1.0, 1.0, 1.0, 1.0, 1.0)
    value = willingness_matrix(
        [_profile(cues, {"A"})], [_task({"A"})], None, np.array([[True]]), WillingnessParams()
    )
    # g = 0.5 prior, f = 1.0 -> mix 0.75 -> sigma(1)
    assert value[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def _contents(histories):
    """Each volunteer's record range and records, in the mapping's order, with the
    skill names of its load and each record's skill ids, repeats kept as read."""
    return [
        (vid, h.records, ref.loaded_records(h), h.columns.skills,
         [h.columns.skill_ids[h.columns.offsets[r] : h.columns.offsets[r + 1]].tolist()
          for r in h.records])
        for vid, h in histories.items()
    ]


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def test_load_history_grouping(tmp_path):
    rows = [_row("v1", "A", True), _row("v1", "B", False), _row("v2", ["A", "C"], True)]
    histories = load_history(_write_rows(tmp_path / "h.jsonl", rows))
    assert set(histories) == {"v1", "v2"}
    assert len(histories["v1"].records) == 2
    assert ref.loaded_records(histories["v2"]) == [(frozenset({"A", "C"}), True)]


def test_load_history_groups_interleaved_volunteers_in_file_order(tmp_path):
    rows = [
        _row("v2", ["B", "B"], True),
        _row("v1", [], False),
        _row("v2", ["A", "Z"], False),
        _row("v3", ["Z"], True),
        _row("v1", ["C", "A"], True),
    ]
    histories = load_history(_write_rows(tmp_path / "h.jsonl", rows))
    assert _contents(histories) == _contents(histories_from_records(rows))
    assert list(histories) == ["v2", "v1", "v3"]
    columns = histories["v1"].columns
    assert all(h.columns is columns for h in histories.values())
    assert columns.skills == ("B", "A", "Z", "C")
    assert [h.records for h in histories.values()] == [range(0, 2), range(2, 4), range(4, 5)]
    loaded = {vid: ref.loaded_records(h) for vid, h in histories.items()}
    assert loaded == ref.history_records(rows)
    flipped = histories_from_records(rows[:-1] + [_row("v1", ["C", "A"], False)])
    assert _contents(histories) != _contents(flipped)


def test_load_history_rejects_bad_rows(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"volunteer_id": "v1", "task_skills": "A", "accepted": true}\n')
    with pytest.raises(ParseError):
        load_history(str(path))


def test_histories_from_records_matches_file_loader(tmp_path):
    rows = [_row("v1", "A", True), _row("v2", "B", False), _row("v1", "BA", False)]
    loaded = load_history(_write_rows(tmp_path / "h.jsonl", rows))
    assert _contents(histories_from_records(rows)) == _contents(loaded)
    assert load_history(_write_rows(tmp_path / "empty.jsonl", [])) == {}


def test_load_history_reports_line_numbers(tmp_path):
    path = tmp_path / "h.jsonl"
    good = json.dumps({"volunteer_id": "v1", "task_skills": ["A"], "accepted": True})
    path.write_text(good + "\n\n" + '{"volunteer_id": "v1", "accepted": true}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_history(str(path))
    with pytest.raises(ParseError, match="line 2"):
        histories_from_records([json.loads(good), {"volunteer_id": "v1"}])


_MISSING = "record needs volunteer_id, task_skills, accepted"
_VOLUNTEER = "volunteer_id must be a string"
_ACCEPTED = "accepted must be true or false"
_SKILLS = "task_skills must be a list of strings"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"volunteer_id": "v9", "task_skills": ["A"]}', _MISSING),
        ('["v9", ["A"], true]', _MISSING),
        ('"v9"', _MISSING),
        ('{"volunteer_id": 9, "task_skills": ["A"], "accepted": true}', _VOLUNTEER),
        ('{"volunteer_id": "v9", "task_skills": ["A"], "accepted": 1}', _ACCEPTED),
        ('{"volunteer_id": "v9", "task_skills": ["A"], "accepted": null}', _ACCEPTED),
        ('{"volunteer_id": "v9", "task_skills": "A", "accepted": true}', _SKILLS),
        ('{"volunteer_id": "v9", "task_skills": {"A": 1}, "accepted": true}', _SKILLS),
        *(
            (f'{{"volunteer_id": "v9", "task_skills": {skills}, "accepted": false}}', _SKILLS)
            for element in ("1", "null", "true", "NaN", "[]", "{}")
            for skills in (f"[{element}]", f'["A", "new", {element}]', f'[{element}, "A"]')
        ),
    ],
)
def test_load_history_error_text_and_line(tmp_path, line, message):
    """A malformed line 2 fails with its message, before a later structural error."""
    good = json.dumps(_row("v1", "A", True))
    path = tmp_path / "h.jsonl"
    path.write_text(f'{good}\n{line}\n{{"volunteer_id": "v1"}}\n')
    with pytest.raises(ParseError) as from_file:
        load_history(str(path))
    with pytest.raises(ParseError) as from_rows:
        histories_from_records([json.loads(good), json.loads(line), {"volunteer_id": "v1"}])
    for raised in (from_file.value, from_rows.value):
        assert (str(raised), raised.line) == (f"line 2: {message}", 2)
