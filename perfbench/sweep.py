"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the repository root::

    python3 perfbench/sweep.py --workload match-400-hist --seeds 1-10 [--trace 1] [--json FILE]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the run
length from BENCHMARK.json. For each metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound. ``--json``
also writes every run's result and the summary to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the runs and the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["log"] = proc.stdout.strip().splitlines()[:-1]
        results.append(result)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if args.trace == 0 or k.endswith(".s")}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    summary = summarise(results, bounds)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{args.workload}: {len(results)} seeds, fail_ratio {failed}/{attempted}")
    for name, row in summary.items():
        bound = "" if row["bound"] is None else f" bound {row['bound']}"
        print(f"  {name:44s} median {row['median']:.6g} {row['unit']} "
              f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}{bound}")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"workload": args.workload, "runs": results, "summary": summary},
                       indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
