"""Append-only, hash-chained task lifecycle ledger.

This simulates the enforcement role of an on-chain contract on a single node:
every lifecycle event (Posted, Assigned, Completed, Cancelled) is an
append-only record whose hash covers its predecessor's hash, so any historical
mutation or deletion is detectable by replay. Timestamps are a logical
counter, not wall clock, so ledgers are bit-reproducible in tests.

Record hashing uses SHA-256 over a canonical, length-prefixed encoding so
independent verifiers can interoperate byte-exactly:

    core = u64be(index)
         || prev_hash (32 raw bytes)
         || lp(task_id)                 lp(x) = u32be(len(utf8)) || utf8
         || lp(event)                   "Posted"|"Assigned"|"Completed"|"Cancelled"
         || opt(volunteer_id)           0x00, or 0x01 || lp(value)
         || u64be(epoch)
         || opt(assignment_digest)      0x00, or 0x01 || 32 raw bytes
         || u64be(timestamp)
    hash = sha256(core)

The persisted binary log is ``b"SWLG" || u16be(1)`` followed by one
``u32be(len(core) + 32) || core || hash`` frame per record. Tail truncation is
invisible to a bare chain, so ``verify`` accepts an optional expected head
digest (the anchor a contract would hold) to pin the final record.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from .assignment import Assignment, assignment_digest
from .errors import (
    DuplicateTaskError,
    IllegalTransitionError,
    ParseError,
    UnknownTaskError,
)

ZERO_DIGEST = b"\x00" * 32
_MAGIC = b"SWLG"
_VERSION = 1


class TaskState(enum.Enum):
    POSTED = "Posted"
    ASSIGNED = "Assigned"
    COMPLETED = "Completed"
    CANCELLED = "Cancelled"


_LEGAL = {
    TaskState.POSTED: {TaskState.ASSIGNED, TaskState.CANCELLED},
    TaskState.ASSIGNED: {TaskState.COMPLETED, TaskState.CANCELLED},
    TaskState.COMPLETED: set(),
    TaskState.CANCELLED: set(),
}

_EVENTS = {state.value for state in TaskState}


@dataclass(frozen=True)
class LedgerRecord:
    index: int
    prev_hash: bytes
    task_id: str
    event: str
    volunteer_id: Optional[str]
    epoch: int
    assignment_digest: Optional[bytes]
    timestamp: int
    hash: bytes

    def core_bytes(self) -> bytes:
        return _encode_core(
            self.index,
            self.prev_hash,
            self.task_id,
            self.event,
            self.volunteer_id,
            self.epoch,
            self.assignment_digest,
            self.timestamp,
        )


def _lp(value: str) -> bytes:
    data = value.encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _encode_core(
    index: int,
    prev_hash: bytes,
    task_id: str,
    event: str,
    volunteer_id: Optional[str],
    epoch: int,
    digest: Optional[bytes],
    timestamp: int,
) -> bytes:
    parts = [struct.pack(">Q", index), prev_hash, _lp(task_id), _lp(event)]
    parts.append(b"\x00" if volunteer_id is None else b"\x01" + _lp(volunteer_id))
    parts.append(struct.pack(">Q", epoch))
    parts.append(b"\x00" if digest is None else b"\x01" + digest)
    parts.append(struct.pack(">Q", timestamp))
    return b"".join(parts)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_bad_index: Optional[int] = None
    reason: Optional[str] = None


class Ledger:
    """In-memory ledger; appends are serialized by the caller."""

    def __init__(self, records: Iterable[LedgerRecord] = ()):
        self.records: list[LedgerRecord] = list(records)
        self._clock = max((r.timestamp for r in self.records), default=-1) + 1
        self.state_index: dict[str, TaskState] = {}
        for record in self.records:
            if record.event in _EVENTS:
                self.state_index[record.task_id] = TaskState(record.event)

    def head(self) -> bytes:
        return self.records[-1].hash if self.records else ZERO_DIGEST

    def _append(
        self,
        task_id: str,
        event: str,
        volunteer_id: Optional[str],
        epoch: int,
        digest: Optional[bytes],
    ) -> LedgerRecord:
        index = len(self.records)
        prev_hash = self.head()
        timestamp = self._clock
        core = _encode_core(
            index, prev_hash, task_id, event, volunteer_id, epoch, digest, timestamp
        )
        record = LedgerRecord(
            index=index,
            prev_hash=prev_hash,
            task_id=task_id,
            event=event,
            volunteer_id=volunteer_id,
            epoch=epoch,
            assignment_digest=digest,
            timestamp=timestamp,
            hash=hashlib.sha256(core).digest(),
        )
        self.records.append(record)
        self._clock += 1
        self.state_index[task_id] = TaskState(event)
        return record

    def post_task(self, task_id: str, epoch: int = 0) -> LedgerRecord:
        if task_id in self.state_index:
            raise DuplicateTaskError(f"task {task_id!r} already registered")
        return self._append(task_id, TaskState.POSTED.value, None, epoch, None)

    def commit_assignment(self, assignment: Assignment) -> list[LedgerRecord]:
        """Record one Assigned event per pair, in task-id order, atomically.

        All preconditions are checked before anything is appended, so a failed
        commit leaves the ledger untouched.
        """
        pairs = sorted(assignment.pairs, key=lambda p: p.task_id)
        for pair in pairs:
            state = self.state_index.get(pair.task_id)
            if state is not TaskState.POSTED:
                raise IllegalTransitionError(
                    f"task {pair.task_id!r} is {state.value if state else 'unknown'}, "
                    "expected Posted"
                )
        digest = assignment_digest(assignment)
        return [
            self._append(
                pair.task_id,
                TaskState.ASSIGNED.value,
                pair.volunteer_id,
                assignment.epoch,
                digest,
            )
            for pair in pairs
        ]

    def transition(self, task_id: str, event: str, epoch: int = 0) -> LedgerRecord:
        if event not in (TaskState.COMPLETED.value, TaskState.CANCELLED.value):
            raise IllegalTransitionError(f"direct transition to {event!r} not allowed")
        state = self.state_index.get(task_id)
        if state is None:
            raise UnknownTaskError(task_id)
        if TaskState(event) not in _LEGAL[state]:
            raise IllegalTransitionError(
                f"{state.value} -> {event} is not a legal transition"
            )
        return self._append(task_id, event, None, epoch, None)


def verify(ledger: Ledger, expected_head: Optional[bytes] = None) -> VerifyResult:
    """Recompute every hash, check chain links, and replay the state machine.

    Reports the first violation. ``expected_head`` pins the final record so
    tail truncation is also detected.
    """
    states: dict[str, TaskState] = {}
    for pos, record in enumerate(ledger.records):
        expected_prev = ledger.records[pos - 1].hash if pos > 0 else ZERO_DIGEST
        if record.prev_hash != expected_prev:
            return VerifyResult(False, pos, "link broken")
        if hashlib.sha256(record.core_bytes()).digest() != record.hash:
            return VerifyResult(False, pos, "hash mismatch")
        if record.index != pos:
            return VerifyResult(False, pos, "index mismatch")
        if pos > 0 and record.timestamp <= ledger.records[pos - 1].timestamp:
            return VerifyResult(False, pos, "timestamp not monotone")
        if record.event not in _EVENTS:
            return VerifyResult(False, pos, "unknown event")
        event_state = TaskState(record.event)
        current = states.get(record.task_id)
        if current is None:
            if event_state is not TaskState.POSTED:
                return VerifyResult(False, pos, "illegal transition")
        elif event_state not in _LEGAL[current]:
            return VerifyResult(False, pos, "illegal transition")
        if event_state is TaskState.ASSIGNED and (
            record.volunteer_id is None or record.assignment_digest is None
        ):
            return VerifyResult(False, pos, "assigned record missing fields")
        states[record.task_id] = event_state
    if expected_head is not None and ledger.head() != expected_head:
        return VerifyResult(False, len(ledger.records), "head mismatch")
    return VerifyResult(True)


# --- persistence -----------------------------------------------------------


def save_ledger(ledger: Ledger, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack(">H", _VERSION))
        for record in ledger.records:
            frame = record.core_bytes() + record.hash
            fh.write(struct.pack(">I", len(frame)) + frame)


def _read_exact(data: bytes, offset: int, size: int, what: str) -> tuple[bytes, int]:
    if offset + size > len(data):
        raise ParseError(f"truncated {what}")
    return data[offset : offset + size], offset + size


def _decode_record(frame: bytes) -> LedgerRecord:
    off = 0
    raw, off = _read_exact(frame, off, 8, "index")
    index = struct.unpack(">Q", raw)[0]
    prev_hash, off = _read_exact(frame, off, 32, "prev_hash")

    def read_lp(off: int, what: str) -> tuple[str, int]:
        raw, off = _read_exact(frame, off, 4, what)
        length = struct.unpack(">I", raw)[0]
        data, off = _read_exact(frame, off, length, what)
        try:
            return data.decode("utf-8"), off
        except UnicodeDecodeError:
            raise ParseError(f"{what} is not valid UTF-8") from None

    task_id, off = read_lp(off, "task_id")
    event, off = read_lp(off, "event")
    flag, off = _read_exact(frame, off, 1, "volunteer flag")
    volunteer_id = None
    if flag == b"\x01":
        volunteer_id, off = read_lp(off, "volunteer_id")
    elif flag != b"\x00":
        raise ParseError("bad volunteer presence flag")
    raw, off = _read_exact(frame, off, 8, "epoch")
    epoch = struct.unpack(">Q", raw)[0]
    flag, off = _read_exact(frame, off, 1, "digest flag")
    digest = None
    if flag == b"\x01":
        digest, off = _read_exact(frame, off, 32, "assignment_digest")
    elif flag != b"\x00":
        raise ParseError("bad digest presence flag")
    raw, off = _read_exact(frame, off, 8, "timestamp")
    timestamp = struct.unpack(">Q", raw)[0]
    record_hash, off = _read_exact(frame, off, 32, "hash")
    if off != len(frame):
        raise ParseError("trailing bytes in record frame")
    return LedgerRecord(
        index=index,
        prev_hash=prev_hash,
        task_id=task_id,
        event=event,
        volunteer_id=volunteer_id,
        epoch=epoch,
        assignment_digest=digest,
        timestamp=timestamp,
        hash=record_hash,
    )


def load_ledger(path: str) -> Ledger:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ParseError("not a ledger file")
    raw, offset = _read_exact(data, 4, 2, "ledger header")
    if struct.unpack(">H", raw)[0] != _VERSION:
        raise ParseError("unsupported ledger version")
    records = []
    while offset < len(data):
        raw, offset = _read_exact(data, offset, 4, "frame length")
        length = struct.unpack(">I", raw)[0]
        frame, offset = _read_exact(data, offset, length, "record frame")
        records.append(_decode_record(frame))
    return Ledger(records)


def export_ledger_text(ledger: Ledger, path: str) -> None:
    """Human-inspectable JSONL mirror of the binary log (hex digests)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for record in ledger.records:
            fh.write(
                json.dumps(
                    {
                        "index": record.index,
                        "prev_hash": record.prev_hash.hex(),
                        "task_id": record.task_id,
                        "event": record.event,
                        "volunteer_id": record.volunteer_id,
                        "epoch": record.epoch,
                        "assignment_digest": (
                            record.assignment_digest.hex()
                            if record.assignment_digest
                            else None
                        ),
                        "timestamp": record.timestamp,
                        "hash": record.hash.hex(),
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")
