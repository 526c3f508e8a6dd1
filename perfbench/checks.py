"""Correctness checks on the artifacts of one ``swati match``.

Each check returns a list of error strings (empty when the artifacts are
correct) and a dict of facts read from the artifacts, which the benchmark
reports as metrics.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

MATCH_ARTIFACTS = ("assignment.jsonl", "ledger.bin", "quality.csv", "manifest.json")


@dataclass(frozen=True)
class CorpusFacts:
    volunteers: frozenset[str]
    tasks: frozenset[str]

    @classmethod
    def read(cls, path: Path) -> "CorpusFacts":
        volunteers, tasks = set(), set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                (volunteers if doc["kind"] == "volunteer" else tasks).add(doc["id"])
        return cls(frozenset(volunteers), frozenset(tasks))


def digests(out: Path, artifacts: tuple[str, ...]) -> dict[str, str]:
    result = {}
    for name in artifacts:
        path = out / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return result


def check_match(out: Path, corpus: CorpusFacts, capacity: int) -> tuple[list[str], dict]:
    """Feasibility of assignment.jsonl and agreement of quality.csv with it."""
    errors: list[str] = []
    missing = [name for name in MATCH_ARTIFACTS if not (out / name).exists()]
    if missing:
        return [f"missing artifacts {missing}"], {}
    with open(out / "assignment.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    seen: set[str] = set()
    load: Counter = Counter()
    for row in rows:
        vid, tid, utility = row["volunteer_id"], row["task_id"], row["utility"]
        if tid in seen:
            errors.append(f"task {tid} assigned twice")
        seen.add(tid)
        if tid not in corpus.tasks:
            errors.append(f"unknown task {tid}")
        if vid not in corpus.volunteers:
            errors.append(f"unknown volunteer {vid}")
        if not 0.0 <= utility <= 1.0:
            errors.append(f"utility {utility} of ({vid}, {tid}) outside [0, 1]")
        load[vid] += 1
    over = sorted(v for v, n in load.items() if n > capacity)
    if over:
        errors.append(f"volunteers over capacity {capacity}: {over[:5]}")

    # the engine sums pair utilities in assignment order, as here
    total = sum(row["utility"] for row in rows)
    pairs = len(rows)
    expected = [
        "swati",
        f"{total:.6f}",
        f"{(total / pairs if pairs else 0.0):.6f}",
        f"{(pairs / len(corpus.tasks)):.6f}",
        str(pairs),
    ]
    with open(out / "quality.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[1:] != [expected]:
        errors.append(f"quality.csv rows {table[1:]} disagree with assignment.jsonl {expected}")
    facts = {
        "total_utility": total,
        "coverage": pairs / len(corpus.tasks),
        "pairs_assigned": pairs,
        "saturated_volunteers": sum(1 for n in load.values() if n == capacity),
    }
    return errors, facts


def check_verify(stdout: str, exit_code: int, expected_records: int) -> tuple[list[str], dict]:
    """Outcome of ``swati verify <ledger.bin> --expect-head <manifest head>``."""
    lines = stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"swati verify printed no verdict (exit {exit_code})"], {}
    errors = []
    if exit_code != 0 or not verdict.get("ok"):
        errors.append(f"swati verify failed: {verdict}")
    if verdict.get("records") != expected_records:
        errors.append(f"ledger has {verdict.get('records')} records, expected {expected_records}")
    return errors, {"ledger_records": verdict.get("records", 0)}
