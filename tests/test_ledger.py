import dataclasses
import hashlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swati.assignment import Assignment, AssignedPair, assignment_digest, sha256
from swati.errors import (
    DuplicateTaskError,
    EpochRangeError,
    IllegalTransitionError,
    ParseError,
    UnknownTaskError,
)
from swati.ledger import (
    ZERO_DIGEST,
    Ledger,
    export_ledger_text,
    load_ledger,
    save_ledger,
    verify,
)


# SHA-256 pads to 64-byte blocks: 55 bytes is the longest that leaves room for
# the length in one block, so 55, 56, 63, 64 and 65 cross the padding's edges
@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
@example(b"")
@example(b"a" * 55)
@example(b"b" * 56)
@example(b"c" * 63)
@example(b"d" * 64)
@example(b"e" * 65)
@example(bytes(range(200)))
def test_sha256_matches_hashlib(data):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_sha256_matches_hashlib_on_one_mebibyte():
    data = (bytes(range(251)) * 4178)[: 1 << 20]  # a period prime to the block size
    assert sha256(data).digest() == hashlib.sha256(data).digest()


def _ledger_with_assignment():
    ledger = Ledger()
    for task in ("t1", "t2", "t3"):
        ledger.post_task(task)
    assignment = Assignment(
        pairs=(AssignedPair("v2", "t2", 0.8), AssignedPair("v1", "t1", 0.9))
    )
    ledger.commit_assignment(assignment)
    return ledger, assignment


def test_genesis_record():
    ledger = Ledger()
    record = ledger.post_task("t1")
    assert record.index == 0
    assert record.prev_hash == ZERO_DIGEST
    assert len(record.hash) == 32


def test_duplicate_post_rejected():
    ledger = Ledger()
    ledger.post_task("t1")
    with pytest.raises(DuplicateTaskError):
        ledger.post_task("t1")


def test_records_chain():
    ledger = Ledger()
    first = ledger.post_task("t1")
    second = ledger.post_task("t2")
    assert second.index == 1
    assert second.prev_hash == first.hash


def test_commit_assignment_in_task_order():
    ledger, assignment = _ledger_with_assignment()
    assigned = [r for r in ledger.records if r.event == "Assigned"]
    assert [r.task_id for r in assigned] == ["t1", "t2"]
    digest = assignment_digest(assignment)
    assert all(r.assignment_digest == digest for r in assigned)
    assert all(r.volunteer_id is not None for r in assigned)


def test_commit_unposted_task_is_atomic():
    ledger = Ledger()
    ledger.post_task("t1")
    before = list(ledger.records)
    bad = Assignment(
        pairs=(AssignedPair("v1", "t1", 0.9), AssignedPair("v2", "t9", 0.8))
    )
    with pytest.raises(IllegalTransitionError):
        ledger.commit_assignment(bad)
    assert ledger.records == before
    assert ledger.state_index["t1"].value == "Posted"


def test_commit_naming_a_task_twice_is_atomic():
    ledger = Ledger()
    ledger.post_task("t1")
    ledger.post_task("t2")
    before, head = list(ledger.records), ledger.head()
    bad = Assignment(
        pairs=(AssignedPair("v1", "t1", 0.9), AssignedPair("v2", "t1", 0.8))
    )
    with pytest.raises(IllegalTransitionError, match="'t1' is assigned twice"):
        ledger.commit_assignment(bad)
    assert ledger.records == before
    assert ledger.head() == head
    assert ledger.state_index["t1"].value == "Posted"
    assert verify(ledger).ok


def test_double_commit_rejected():
    ledger, assignment = _ledger_with_assignment()
    with pytest.raises(IllegalTransitionError):
        ledger.commit_assignment(assignment)


def test_transitions():
    ledger, _ = _ledger_with_assignment()
    ledger.transition("t1", "Completed")
    assert ledger.state_index["t1"].value == "Completed"
    ledger.transition("t2", "Cancelled")
    with pytest.raises(IllegalTransitionError):
        ledger.transition("t3", "Completed")  # still Posted
    ledger.transition("t3", "Cancelled")  # Posted -> Cancelled is legal
    with pytest.raises(UnknownTaskError):
        ledger.transition("t9", "Completed")
    with pytest.raises(IllegalTransitionError):
        ledger.transition("t1", "Posted")


_U64_END = 1 << 64  # the first epoch the record encoding cannot hold


# a float, a string or a bool once reached the u64 encoding, which raised
# struct.error or appended True as epoch 1
@pytest.mark.parametrize("epoch", [-1, _U64_END, 1.5, "1", True])
def test_an_epoch_outside_u64_is_refused_and_appends_nothing(epoch):
    ledger, _ = _ledger_with_assignment()
    before = list(ledger.records)
    with pytest.raises(EpochRangeError, match=f"epoch {re.escape(repr(epoch))} is not an integer"):
        ledger.post_task("t4", epoch=epoch)
    with pytest.raises(EpochRangeError):
        ledger.transition("t3", "Cancelled", epoch=epoch)
    ledger.post_task("t4")
    ledger.post_task("t5")
    before += ledger.records[-2:]
    bad = Assignment(
        pairs=(AssignedPair("v1", "t4", 0.5), AssignedPair("v2", "t5", 0.5)), epoch=epoch
    )
    with pytest.raises(EpochRangeError):
        ledger.commit_assignment(bad)
    assert ledger.records == before and ledger.head() == before[-1].hash
    assert [ledger.state_index[t].value for t in ("t3", "t4", "t5")] == ["Posted"] * 3
    assert verify(ledger).ok


def test_the_u64_epoch_edges_round_trip(tmp_path):
    ledger = Ledger()
    ledger.post_task("t1", epoch=0)
    ledger.post_task("t2", epoch=_U64_END - 1)
    ledger.commit_assignment(
        Assignment(pairs=(AssignedPair("v1", "t2", 0.5),), epoch=_U64_END - 1)
    )
    ledger.transition("t1", "Cancelled", epoch=_U64_END - 1)
    path = tmp_path / "ledger.bin"
    save_ledger(ledger, str(path))
    loaded = load_ledger(str(path))
    assert loaded.records == ledger.records
    assert [r.epoch for r in loaded.records] == [0] + [_U64_END - 1] * 3
    assert verify(loaded).ok


def test_verify_clean_ledger():
    ledger, _ = _ledger_with_assignment()
    result = verify(ledger)
    assert result.ok and result.first_bad_index is None


def test_verify_detects_payload_tamper():
    ledger, _ = _ledger_with_assignment()
    k = 2
    tampered = list(ledger.records)
    tampered[k] = dataclasses.replace(tampered[k], task_id="t9")
    result = verify(Ledger(tampered))
    assert (result.ok, result.first_bad_index, result.reason) == (False, k, "hash mismatch")


def test_verify_detects_hash_field_tamper():
    ledger, _ = _ledger_with_assignment()
    k = 1
    tampered = list(ledger.records)
    tampered[k] = dataclasses.replace(tampered[k], hash=hashlib.sha256(b"x").digest())
    result = verify(Ledger(tampered))
    assert (result.first_bad_index, result.reason) == (k, "hash mismatch")


def test_verify_detects_splice():
    ledger, _ = _ledger_with_assignment()
    k = 2
    spliced = list(ledger.records)
    del spliced[k]
    result = verify(Ledger(spliced))
    assert (result.first_bad_index, result.reason) == (k, "link broken")


def test_verify_head_anchor_detects_tail_truncation():
    ledger, _ = _ledger_with_assignment()
    head = ledger.head()
    truncated = Ledger(ledger.records[:-1])
    assert verify(truncated).ok  # a bare chain cannot see tail loss
    result = verify(truncated, expected_head=head)
    assert (result.ok, result.first_bad_index, result.reason) == (
        False,
        len(truncated.records),
        "head mismatch",
    )
    assert verify(ledger, expected_head=head).ok


def test_verify_detects_forged_history():
    # internally consistent records that replay an illegal transition
    ledger = Ledger()
    ledger.post_task("t1")
    forged = Ledger(ledger.records)
    forged._append("t1", "Completed", None, 0, None)  # Posted -> Completed
    result = verify(forged)
    assert (result.first_bad_index, result.reason) == (1, "illegal transition")


def test_state_index_matches_replay():
    ledger, _ = _ledger_with_assignment()
    ledger.transition("t1", "Completed")
    replayed = Ledger(ledger.records)
    assert replayed.state_index == ledger.state_index


def test_persistence_round_trip(tmp_path):
    ledger, _ = _ledger_with_assignment()
    ledger.transition("t1", "Completed")
    path = tmp_path / "ledger.bin"
    save_ledger(ledger, str(path))
    loaded = load_ledger(str(path))
    assert loaded.records == ledger.records
    assert verify(loaded).ok
    # append still works after reload
    loaded.transition("t2", "Cancelled")
    assert verify(loaded).ok


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "ledger.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_ledger(str(path))


def test_load_rejects_truncated_file(tmp_path):
    ledger, _ = _ledger_with_assignment()
    path = tmp_path / "ledger.bin"
    save_ledger(ledger, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ParseError):
        load_ledger(str(path))


def test_text_export(tmp_path):
    ledger, _ = _ledger_with_assignment()
    path = tmp_path / "ledger.txt"
    export_ledger_text(ledger, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(ledger.records)
    assert '"event": "Posted"' in lines[0]


def test_timestamps_are_logical_and_monotone():
    ledger, _ = _ledger_with_assignment()
    stamps = [r.timestamp for r in ledger.records]
    assert stamps == sorted(stamps)
    assert stamps == list(range(len(stamps)))


# --- the binary log's error texts -------------------------------------------

_HEADER = b"SWLG\x00\x01"


def _assigned_frame():
    """The frame of an Assigned record (every optional field present) and its fields' sizes."""
    ledger, _ = _ledger_with_assignment()
    record = next(r for r in ledger.records if r.event == "Assigned")
    task, event, volunteer = (
        s.encode() for s in (record.task_id, record.event, record.volunteer_id)
    )
    sizes = [
        ("index", 8),
        ("prev_hash", 32),
        ("task_id", 4 + len(task)),
        ("event", 4 + len(event)),
        ("volunteer flag", 1),
        ("volunteer_id", 4 + len(volunteer)),
        ("epoch", 8),
        ("digest flag", 1),
        ("assignment_digest", 32),
        ("timestamp", 8),
        ("hash", 32),
    ]
    frame = record.core_bytes() + record.hash
    assert sum(size for _, size in sizes) == len(frame)
    return frame, sizes


def _framed(frame):
    return _HEADER + len(frame).to_bytes(4, "big") + frame


def _load_error(tmp_path, data):
    path = tmp_path / "ledger.bin"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_ledger(str(path))
    return str(err.value)


def _field_cuts():
    frame, sizes = _assigned_frame()
    start = 0
    for name, size in sizes:
        # at the field's first byte and at its last; a length-prefixed
        # field's last byte is inside its text
        for cut in sorted({start, start + size - 1}):
            yield pytest.param(frame[:cut], f"truncated {name}", id=f"{name}@{cut}")
        start += size


@pytest.mark.parametrize("frame, message", _field_cuts())
def test_load_names_the_truncated_field(tmp_path, frame, message):
    assert _load_error(tmp_path, _framed(frame)) == message


def _replace_at(frame, offset, data):
    return frame[:offset] + data + frame[offset + len(data) :]


def _field_offset(name):
    _, sizes = _assigned_frame()
    names = [n for n, _ in sizes]
    return sum(size for _, size in sizes[: names.index(name)])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: _replace_at(f, _field_offset("volunteer flag"), b"\x02"),
         "bad volunteer presence flag"),
        (lambda f: _replace_at(f, _field_offset("digest flag"), b"\xff"),
         "bad digest presence flag"),
        (lambda f: _replace_at(f, _field_offset("task_id") + 4, b"\xff"),
         "task_id is not valid UTF-8"),
        (lambda f: _replace_at(f, _field_offset("event") + 4, b"\xc3"),
         "event is not valid UTF-8"),
        (lambda f: _replace_at(f, _field_offset("volunteer_id") + 4, b"\x80"),
         "volunteer_id is not valid UTF-8"),
        (lambda f: f + b"\x00", "trailing bytes in record frame"),
    ],
    ids=["volunteer_flag", "digest_flag", "task_id_utf8", "event_utf8", "volunteer_id_utf8",
         "trailing"],
)
def test_load_rejects_a_malformed_frame(tmp_path, edit, message):
    frame, _ = _assigned_frame()
    assert _load_error(tmp_path, _framed(edit(frame))) == message


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "not a ledger file"),
        (b"SWL", "not a ledger file"),
        (b"NOPE\x00\x01", "not a ledger file"),
        (b"SWLG", "truncated ledger header"),
        (b"SWLG\x00", "truncated ledger header"),
        (b"SWLG\x00\x02", "unsupported ledger version"),
        (b"SWLG\x01\x01", "unsupported ledger version"),
        (_HEADER + b"\x00", "truncated frame length"),
        (_HEADER + b"\x00\x00\x00", "truncated frame length"),
        (_HEADER + b"\x00\x00\x00\x09" + b"\x00" * 8, "truncated record frame"),
        (_HEADER + b"\x00\x00\x00\x00", "truncated index"),
    ],
    ids=["empty", "short_magic", "bad_magic", "no_version", "half_version", "version_2",
         "version_257", "frame_length_1", "frame_length_3", "short_frame", "empty_frame"],
)
def test_load_rejects_a_malformed_file(tmp_path, data, message):
    assert _load_error(tmp_path, data) == message


def test_load_accepts_a_header_without_records(tmp_path):
    path = tmp_path / "ledger.bin"
    path.write_bytes(_HEADER)
    assert load_ledger(str(path)).records == []


def test_load_reads_absent_optional_fields(tmp_path):
    ledger = Ledger()
    ledger.post_task("té")
    path = tmp_path / "ledger.bin"
    save_ledger(ledger, str(path))
    loaded = load_ledger(str(path))
    assert loaded.records == ledger.records
    assert (loaded.records[0].volunteer_id, loaded.records[0].assignment_digest) == (None, None)
