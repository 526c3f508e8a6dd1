"""swati's benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload match-400-hist --seed 1 --seconds 55 --trace 0

The benchmark generates the workload's inputs with ``swati gen`` from the
seed, then runs the real ``swati match`` command on them in fresh child
processes, one at a time, until the next run would end after ``--seconds``.
Every run's artifacts are checked. Untraced runs scale their times by the
host's current speed, gauged with ``calibrate.py``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` each untraced run is paired with a traced run of the same
command (see ``child.py``); the traced artifacts must be byte-identical to
the untraced ones. The traced spans give the per-layer numbers.

See NOTES.md for why the workloads are what they are and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S
from checks import MATCH_ARTIFACTS, CorpusFacts, check_match, check_verify, digests
from child import TRACED

ROOT = Path(__file__).resolve().parent.parent
BENCH = "perfbench"
WORK = ".perfbench_work"
DEFAULT_SEED = 1
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    """``swati match --method swati`` on a generated market with its history."""

    n_volunteers: int
    n_tasks: int
    epochs: int = 1
    capacity: int = 1


WORKLOADS = {
    "match-400-hist": Workload(400, 400),
    "rematch-120x480-cap4-e3": Workload(120, 480, epochs=3, capacity=4),
}

# sha256 of every artifact for DEFAULT_SEED, from the seed commit
PINNED: dict[str, dict[str, str]] = {
    "match-400-hist": {
        "assignment.jsonl": "3d6352bded31189a701276c161e0c3bc0472b6977fb8b3f69c4cccdd040952dc",
        "ledger.bin": "cd130a4905ba529f16f3dc1a09fda6395dc188092036cf061fe73bfb7c06fa0f",
        "quality.csv": "ba5190fcfe9a7549ed003091a37a03847ce8d5fa4096a2e4fbd3e439397f50ff",
        "manifest.json": "25447b59129c463d0ee736f643c71452828452c29209a1cc393ff8d66007e4c7",
    },
    "rematch-120x480-cap4-e3": {
        "assignment.jsonl": "bea0cc035a900f09e2db448c00682b91bc2a0ddfaa2543b85a675c5d7a4859b9",
        "ledger.bin": "df07d4df2b484e8b34508d3a2c3845d1d8246df6d3c587dcbf1763b13422c6be",
        "quality.csv": "a3b13f76ec697466483ce01812fd86b3a74842a47bf3fc0717bf06f8f10c7463",
        "manifest.json": "c6929f1a9b08c9c6c2d20bbc05893647fbf9b7d6afb0abeb3cd33e9d785c5de6",
    },
}

# per-layer counts; unit and whether higher is better live in BENCHMARK.json
COUNTS = (
    "corpus.docs",
    "extraction.mentions",
    "extraction.unresolved",
    "similarity.vocab_size",
    "similarity.empty_vectors",
    "willingness.history_records",
    "willingness.state_pairs",
    "assignment.pairs_scored",
    "assignment.pairs_assigned",
    "assignment.saturated_volunteers",
    "assignment.skill_overlap_ratio",
    "ledger.records",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, inputs not generated)."""


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process on one core keeps runs on a shared machine comparable
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns children one at a time, each bounded by the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, args: list[str], log: Path) -> Proc:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stdout=log.with_suffix(".out").read_text(encoding="utf-8", errors="replace"),
        )

    def swati(self, argv: list[str], log: Path, spans: Path | None = None) -> Proc:
        trace = ["--spans", str(spans)] if spans else []
        return self.spawn([f"{BENCH}/child.py", *trace, *argv], log)


@dataclass
class Inputs:
    corpus: str  # paths relative to ROOT, so manifests do not depend on the checkout
    config: str
    facts: CorpusFacts
    history_records: int


def generate(runner: Runner, name: str, wl: Workload, seed: int, work: Path) -> Inputs:
    """``swati gen`` from the seed into fixed paths, plus the workload's config."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    rel = inputs.relative_to(ROOT).as_posix()
    proc = runner.swati(
        ["gen", "--out", rel, "--seed", str(seed),
         "--n-volunteers", str(wl.n_volunteers), "--n-tasks", str(wl.n_tasks)],
        work / "gen",
    )
    if proc.exit_code != 0:
        raise BenchError(f"swati gen failed with exit code {proc.exit_code}, see {work}/gen.err")
    config: dict = {"history_path": f"{rel}/history.jsonl"}
    if wl.capacity != 1:
        config["capacities"] = {"default": wl.capacity}
    (inputs / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
    with open(inputs / "history.jsonl", encoding="utf-8") as fh:
        history_records = sum(1 for line in fh if line.strip())
    return Inputs(
        corpus=f"{rel}/corpus.jsonl",
        config=f"{rel}/config.json",
        facts=CorpusFacts.read(inputs / "corpus.jsonl"),
        history_records=history_records,
    )


@dataclass
class Outcome:
    proc: Proc
    errors: list[str]
    facts: dict
    digests: dict


def run_command(
    runner: Runner, wl: Workload, inputs: Inputs, out: Path, spans: Path | None = None,
    verify: bool = True,
) -> Outcome:
    """One ``swati`` command on the inputs, then the checks on its artifacts.

    ``verify=False`` skips ``swati verify``: the caller then requires the
    artifacts to be byte-identical to those of a run that was verified.
    """
    rel = out.relative_to(ROOT).as_posix()
    argv = ["match", "--corpus", inputs.corpus, "--config", inputs.config, "--out", rel,
            "--method", "swati", "--epochs", str(wl.epochs)]
    proc = runner.swati(argv, out.with_name(out.name + "-cmd"), spans)
    if proc.exit_code != 0:
        return Outcome(proc, [f"swati match exited {proc.exit_code}"], {}, {})
    try:
        errors, facts = check_artifacts(runner, wl, inputs, out, spans, verify)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # a malformed artifact is a failed run, not a crashed benchmark
        errors, facts = [f"unreadable artifact: {exc!r}"], {}
    return Outcome(proc, errors, facts, digests(out, MATCH_ARTIFACTS))


def check_artifacts(
    runner: Runner, wl: Workload, inputs: Inputs, out: Path, spans: Path | None, verify: bool
) -> tuple[list[str], dict]:
    """Every check on one command's artifacts, and ``swati verify`` on its ledger."""
    errors, facts = check_match(out, inputs.facts, wl.capacity)
    if not errors and verify:
        rel = out.relative_to(ROOT).as_posix()
        head = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["ledger_head"]
        verify_spans = spans.with_name(spans.stem + "-verify.json") if spans else None
        verified = runner.swati(
            ["verify", f"{rel}/ledger.bin", "--expect-head", head],
            out.with_name(out.name + "-verify"),
            verify_spans,
        )
        more, ledger = check_verify(
            verified.stdout, verified.exit_code, len(inputs.facts.tasks) + facts["pairs_assigned"]
        )
        errors += more
        facts.update(ledger)
    return errors, facts


def compare_digests(outcome: Outcome, reference: dict, what: str) -> None:
    if outcome.digests and reference:
        changed = sorted(k for k, v in outcome.digests.items() if reference.get(k) != v)
        if changed:
            outcome.errors.append(f"{changed} differ from {what}")


# --- per-layer numbers from spans ------------------------------------------


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Inclusive seconds, self seconds and calls per span name.

    Inclusive time counts only the outermost span of a name, so a function
    that calls itself is not counted twice. Self time is the span's duration
    minus its direct children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return table


def traced_layers(span_files: list[Path]) -> tuple[dict, dict, float, list[str]]:
    """Merge the span files of one traced command (the command and its verify)."""
    table: dict[str, dict[str, float]] = {}
    counts: dict = {}
    missing: set[str] = set()
    import_s = 0.0
    for index, path in enumerate(span_files):
        data = json.loads(path.read_text(encoding="utf-8"))
        missing.update(data["missing"])
        if index == 0:
            counts, import_s = data["counts"], data["import_s"]
        for name, entry in layer_times(data["spans"]).items():
            total = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in total:
                total[key] += entry[key]
    return table, counts, import_s, sorted(missing)


# --- the run ---------------------------------------------------------------


def probe_setup(runner: Runner, inputs: Inputs, work: Path) -> float:
    """Spawn-to-exit seconds of the set-up every command pays (see setup_probe.py)."""
    proc = runner.spawn([f"{BENCH}/setup_probe.py", inputs.config, inputs.corpus],
                        work / "setup")
    if proc.exit_code != 0:
        raise BenchError(f"set-up probe exited {proc.exit_code}, see {work}/setup.err")
    return proc.wall_s


def calibrate(runner: Runner, work: Path) -> float:
    """Spawn-to-exit seconds of the reference program (see calibrate.py)."""
    proc = runner.spawn([f"{BENCH}/calibrate.py"], work / "calibrate")
    if proc.exit_code != 0:
        raise BenchError(f"calibrate.py exited {proc.exit_code}, see {work}/calibrate.err")
    return proc.wall_s


def should_stop(cycles: list[float], seconds: float, deadline: float) -> bool:
    """Whether the next cycle, as long as a typical one, would end after --seconds.

    A cycle is one command, or one traced pair, with its checks and calibration.
    """
    typical = median(cycles)
    return sum(cycles) + typical > seconds or time.monotonic() + 2 * typical > deadline


def trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and the slowest value, once there are five or more.

    On a shared host a run's times scatter around a level that the host sets;
    the mean of the middle values estimates that level with less scatter than
    the median of ten or so values does.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def say(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    wl = WORKLOADS[name]
    runner = Runner(started + DEADLINE_S)
    work = ROOT / WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs = generate(runner, name, wl, seed, work)
    say(
        f"workload {name}, seed {seed}: swati match on {wl.n_volunteers} volunteers x "
        f"{wl.n_tasks} tasks ({inputs.history_records} history records, epochs {wl.epochs}, "
        f"capacity {wl.capacity}); measuring {seconds:g} s, trace {int(trace)}"
    )
    # untraced runs gauge the host's speed before the first timed child and
    # after each command and each set-up probe
    calib = [] if trace else [calibrate(runner, work)]
    setup: list[float] = []

    pinned = PINNED[name] if seed == DEFAULT_SEED else {}
    plain: list[Outcome] = []
    traced: list[tuple[Outcome, list[Path]]] = []
    cycles: list[float] = []
    while True:
        k = len(cycles)
        cycle_start = time.monotonic()
        out = work / f"run-{k}"
        # the first untraced run is verified; the others must match its artifacts
        if not trace:
            plain.append(run_command(runner, wl, inputs, out, verify=k == 0))
            calib.append(calibrate(runner, work))
            setup.append(probe_setup(runner, inputs, work))
            calib.append(calibrate(runner, work))
        else:
            spans = work / f"spans-{k}.json"
            # alternate which of the pair goes first
            for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_run:
                    outcome = run_command(runner, wl, inputs, work / f"traced-{k}", spans)
                    traced.append((outcome, [spans, spans.with_name(spans.stem + "-verify.json")]))
                else:
                    plain.append(run_command(runner, wl, inputs, out, verify=k == 0))
            compare_digests(traced[-1][0], plain[-1].digests, "the untraced run's artifacts")
        cycles.append(time.monotonic() - cycle_start)
        if should_stop(cycles, seconds, runner.deadline):
            break

    outcomes = plain + [o for o, _ in traced]
    for outcome in outcomes:
        compare_digests(outcome, pinned, f"the digests pinned for seed {DEFAULT_SEED}")
        compare_digests(outcome, plain[0].digests, "the first run's artifacts")
        if plain[0].errors and not outcome.errors:
            # unverified runs stand or fall with the first run they match
            outcome.errors.append("artifacts identical to the first run's, which failed")
    failed = [o for o in outcomes if o.errors]
    for outcome in failed:
        say(f"FAILED: {'; '.join(outcome.errors[:3])}")
    facts = plain[0].facts
    walls = [o.proc.wall_s for o in plain]
    say(f"runs: {len(outcomes)} attempted, {len(failed)} failed, fail_ratio "
        f"{len(failed) / len(outcomes):.4f}")

    if trace:
        metrics = per_layer(traced, walls, facts)
    else:
        metrics = end_to_end(wl, [o.proc for o in plain], setup, calib, facts)
    for key, metric in metrics.items():
        say(f"{key:44s} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": not failed and bool(facts),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def end_to_end(
    wl: Workload, procs: list[Proc], setup: list[float], calib: list[float], facts: dict
) -> dict:
    """Times are scaled to the reference speed (see calibrate.py).

    The scale uses the same statistic over the calibration runs as ``wall_s``
    does over the commands: both then weigh the host's slow spells alike.
    """
    walls = [p.wall_s for p in procs]
    scale = REFERENCE_S / trimmed_mean(calib)
    wall = trimmed_mean(walls) * scale
    setup_s = median(setup) * scale
    say(f"wall_s over {len(walls)} runs, unscaled: {', '.join(f'{w:.3f}' for w in walls)}")
    say(f"setup_s over {len(setup)} probes, unscaled: {', '.join(f'{s:.3f}' for s in setup)}")
    say(f"calibration over {len(calib)} runs: {', '.join(f'{c:.3f}' for c in calib)}")
    say(f"unscaled: wall_s {trimmed_mean(walls):.4f} s, setup_s {median(setup):.4f} s; "
        f"scale {scale:.4f}")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "pairs_per_s": {"value": wl.n_volunteers * wl.n_tasks * wl.epochs / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": median([p.peak_rss_mb for p in procs]), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "total_utility": {"value": facts.get("total_utility", 0.0), "unit": "utility"},
        "coverage": {"value": facts.get("coverage", 0.0), "unit": "ratio"},
    }


def per_layer(traced, plain_walls, facts) -> dict:
    tables, counts, imports = [], {}, []
    missing: list[str] = []
    for _, span_files in traced:
        present = [p for p in span_files if p.exists()]
        if not present:
            continue
        table, counts, import_s, missing = traced_layers(present)
        tables.append(table)
        imports.append(import_s)
    if missing:
        say(f"spans missing (function no longer exists): {', '.join(missing)}")
    metrics: dict = {}
    for name, _, _ in TRACED:
        for key, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
            values = [t.get(name, {}).get(key, 0) for t in tables] or [0]
            metrics[f"{name}.{key}"] = {"value": median(values), "unit": unit}
    counts = dict(counts)
    counts["assignment.pairs_assigned"] = facts.get("pairs_assigned", 0)
    counts["assignment.saturated_volunteers"] = facts.get("saturated_volunteers", 0)
    counts["ledger.records"] = facts.get("ledger_records", 0)
    for key in COUNTS:
        unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = {"value": counts.get(key, 0), "unit": unit}
    main_s = metrics["cli.main.s"]["value"]
    traced_wall = median([o.proc.wall_s for o, _ in traced])
    metrics["cli.import_s"] = {"value": median(imports) if imports else 0.0, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - median(plain_walls), "unit": "s"}
    metrics["trace.coverage"] = {
        "value": 1.0 - metrics["cli.main.self_s"]["value"] / main_s if main_s else 0.0,
        "unit": "ratio",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swati" / "cli.py").is_file():
        print(f"perfbench: no swati sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
