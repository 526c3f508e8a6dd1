"""The benchmark's traced child still runs against the engine.

``perfbench/child.py --spans`` wraps the engine's public functions and reads
counts from their return values (``load_history`` must return a mapping of
histories with a sized ``records``). A change of those return types fails
every traced benchmark run; this test fails first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from swati.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_traced_match_reports_counts(tmp_path):
    gen = tmp_path / "gen"
    assert main(["gen", "--out", str(gen), "--seed", "2", "--n-volunteers", "10",
                 "--n-tasks", "8"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"history_path": str(gen / "history.jsonl")}))
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--spans", str(spans),
         "match", "--corpus", str(gen / "corpus.jsonl"), "--config", str(config),
         "--out", str(tmp_path / "out"), "--method", "swati"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["exit_code"] == 0
    # perfbench/child.py still wraps the deleted extract_rule_based,
    # build_profile, build_taskspec and run_epoch; it lists the names as
    # missing until the benchmark drops those spans (ROADMAP item 1)
    assert trace["missing"] == [
        "extraction.extract_rule_based", "extraction.build_profile",
        "extraction.build_taskspec", "assignment.run_epoch",
    ]
    assert trace["counts"]["similarity.vocab_size"] > 0

    def lines(name):
        return sum(1 for line in (gen / name).read_text().splitlines() if line.strip())

    assert trace["counts"]["willingness.history_records"] == lines("history.jsonl") > 0
    assert trace["counts"]["corpus.docs"] == lines("corpus.jsonl") == 18
    # match_market scores its 10 x 8 pairs through the traced
    # utility_matrix_from_components
    assert trace["counts"]["assignment.pairs_scored"] == 80
    assert "willingness.load_history" in {span[0] for span in trace["spans"]}
