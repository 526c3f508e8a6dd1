"""Assignment quality metrics, utility CDFs, and scaling benchmarks.

Average utility divides by the number of assigned pairs, not by the number of
tasks: the two only coincide at full coverage, and reported totals, averages
and coverages stay mutually consistent this way (total = avg * pairs,
coverage = pairs / tasks).

Benchmark timings attribute to each method only the pipeline stages it
actually needs: random assignment skips straight to the draw, skill-only
matching needs extraction and similarity, and the willingness-aware matcher
pays for every stage. Plot data is emitted as CSV; rendering happens outside
the engine.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Sequence

from .assignment import METHODS, Assignment, CapacityMap, UtilityParams, match_market
from .corpus import SyntheticConfig, generate_synthetic
from .errors import ConfigError, InconsistentInputError
from .extraction import build_market
from .ontology import Ontology
from .willingness import WillingnessParams

_STAGES_BY_METHOD = {
    "random": ("assignment",),
    "skill": ("extraction", "similarity", "assignment"),
    "swati": ("extraction", "similarity", "willingness", "assignment"),
}


@dataclass(frozen=True)
class QualityReport:
    """Total and mean utility, task coverage and pair count of one assignment."""

    method: str
    total_utility: float
    avg_utility: float
    coverage: float
    pair_count: int


def quality(assignment: Assignment, m_tasks: int, method: str = "") -> QualityReport:
    pairs = assignment.pairs
    if len(pairs) > m_tasks:
        raise InconsistentInputError(
            f"{len(pairs)} pairs cannot cover only {m_tasks} tasks"
        )
    total = assignment.total_utility()
    avg = total / len(pairs) if pairs else 0.0
    coverage = len(pairs) / m_tasks if m_tasks else 0.0
    return QualityReport(
        method=method,
        total_utility=total,
        avg_utility=avg,
        coverage=coverage,
        pair_count=len(pairs),
    )


def utility_cdf(assignment: Assignment, bins: int) -> list[tuple[float, float]]:
    """Empirical CDF of per-pair utilities at equally spaced thresholds over [0, 1].

    Empty assignments report zero everywhere rather than a degenerate 1.
    """
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    utilities = [p.utility for p in assignment.pairs]
    count = max(len(utilities), 1)  # no pairs: 0 / 1 at every threshold
    thresholds = [k / bins for k in range(1, bins + 1)]
    return [(t, sum(1 for u in utilities if u <= t) / count) for t in thresholds]


@dataclass
class TimingReport:
    """Per-stage wall seconds of one method at one market size, per repetition."""

    market_size: int
    method: str
    stage_seconds: dict[str, list[float]]
    repetitions: int

    def rep_totals(self) -> list[float]:
        return [
            sum(times[rep] for times in self.stage_seconds.values())
            for rep in range(self.repetitions)
        ]

    def median_total(self) -> float:
        import statistics  # only ``bench`` reads medians; it is slow to import

        return statistics.median(self.rep_totals())

    def dispersion(self) -> tuple[float, float, float]:
        import statistics

        totals = self.rep_totals()
        return min(totals), statistics.median(totals), max(totals)


@dataclass
class BenchResult:
    """Timings, quality reports and utility CDFs of a scaling benchmark."""

    timings: list[TimingReport] = field(default_factory=list)
    quality: list[tuple[int, QualityReport]] = field(default_factory=list)
    # size -> method -> utility_cdf points
    cdf: dict[int, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)


# Bench markets have this fixed shape; the config's ``synthetic`` section is not read.
BENCH_MARKET_SHAPE = {
    "skills_per_volunteer": (3, 4),
    "skills_per_task": (2, 3),
    "cue_density": 0.7,
}
_CDF_BINS = 20


def bench_scaling(
    sizes: Sequence[int],
    methods: Sequence[str],
    seed: int,
    ontology: Ontology,
    repetitions: int = 3,
    utility_params: UtilityParams = UtilityParams(),
    willingness_params: WillingnessParams = WillingnessParams(),
) -> BenchResult:
    """Time each method over synthetic markets with |V| = |T| = size.

    Stages are re-run and re-timed per repetition; methods run sequentially so
    their timings do not interfere.
    """
    if list(sizes) != sorted(set(sizes)):  # ``BenchResult.cdf`` holds one entry per size
        raise ConfigError("sizes must be strictly ascending")
    if repetitions < 3:
        raise ConfigError("need at least 3 repetitions")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")

    result = BenchResult()
    for idx, size in enumerate(sizes):
        cfg = SyntheticConfig(
            seed=seed + idx, n_volunteers=size, n_tasks=size, **BENCH_MARKET_SHAPE
        )
        corpus = generate_synthetic(cfg, ontology)
        caps = CapacityMap()
        stage_times = {"extraction": [], "similarity": [], "willingness": []}
        assign_times: dict[str, list[float]] = {m: [] for m in methods}

        for _ in range(repetitions):
            t0 = time.perf_counter()
            market = build_market(corpus, ontology)
            stage_times["extraction"].append(time.perf_counter() - t0)
            run = match_market(
                market, None, caps, utility_params, willingness_params,
                methods=methods, seed=seed + idx,
            )
            stage_times["similarity"].append(run.seconds["similarity"])
            stage_times["willingness"].append(run.seconds["willingness"])
            # every method is charged the utility matrix it is assigned on
            for method in methods:
                assign_times[method].append(run.seconds["utility"] + run.seconds[method])

        for method in methods:
            times = {**stage_times, "assignment": assign_times[method]}
            stages = {stage: list(times[stage]) for stage in _STAGES_BY_METHOD[method]}
            result.timings.append(
                TimingReport(
                    market_size=size,
                    method=method,
                    stage_seconds=stages,
                    repetitions=repetitions,
                )
            )
            report = quality(run.assignments[method], size, method=method)
            result.quality.append((size, report))
            points = utility_cdf(run.assignments[method], _CDF_BINS)
            result.cdf.setdefault(size, {})[method] = points
    return result


# --- CSV emission ----------------------------------------------------------


def write_quality_csv(path: str, reports: Sequence[QualityReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "total_utility", "avg_utility", "coverage", "pairs"])
        for r in reports:
            writer.writerow(
                [r.method, f"{r.total_utility:.6f}", f"{r.avg_utility:.6f}",
                 f"{r.coverage:.6f}", r.pair_count]
            )


def write_cdf_csv(path: str, per_method: dict[str, list[tuple[float, float]]]) -> None:
    """Wide CDF table: threshold column plus one fraction column per method."""
    methods = list(per_method)
    thresholds = [t for t, _ in next(iter(per_method.values()))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", *methods])
        for row_idx, threshold in enumerate(thresholds):
            row = [f"{threshold:.6f}"]
            for method in methods:
                row.append(f"{per_method[method][row_idx][1]:.6f}")
            writer.writerow(row)


def write_timing_csv(path: str, reports: Sequence[TimingReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "method", "stage", "rep", "seconds"])
        for report in reports:
            for stage, times in report.stage_seconds.items():
                for rep, seconds in enumerate(times):
                    writer.writerow(
                        [report.market_size, report.method, stage, rep, f"{seconds:.6f}"]
                    )
