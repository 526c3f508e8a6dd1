import csv

import numpy as np
import pytest

from swati.assignment import Assignment, AssignedPair, CapacityMap, assign_swati, utility_matrix_from_components, UtilityParams
from swati.errors import ConfigError, InconsistentInputError
from swati.metrics import (
    bench_scaling,
    quality,
    utility_cdf,
    write_cdf_csv,
    write_quality_csv,
    write_timing_csv,
)


def _assignment(utilities, epoch=0):
    pairs = tuple(
        AssignedPair(f"v{i + 1}", f"t{i + 1}", u) for i, u in enumerate(utilities)
    )
    return Assignment(pairs=pairs, epoch=epoch)


def test_quality_arithmetic():
    report = quality(_assignment([0.5, 0.7]), m_tasks=4, method="swati")
    assert report.total_utility == pytest.approx(1.2, abs=1e-9)
    assert report.avg_utility == pytest.approx(0.6, abs=1e-9)
    assert report.coverage == pytest.approx(0.5, abs=1e-9)
    assert report.pair_count == 2


def test_quality_empty_assignment():
    report = quality(_assignment([]), m_tasks=10)
    assert (report.total_utility, report.avg_utility, report.coverage) == (0, 0, 0)


def test_quality_rejects_more_pairs_than_tasks():
    with pytest.raises(InconsistentInputError):
        quality(_assignment([0.5, 0.5]), m_tasks=1)


def test_quality_reference_row_consistency():
    # 270 pairs at 0.62 average: total 167.4, coverage 0.90 of 300 tasks.
    # The three columns are mutually consistent only when avg divides by pairs
    report = quality(_assignment([0.62] * 270), m_tasks=300)
    assert report.total_utility == pytest.approx(167.4, abs=1e-9)
    assert report.avg_utility == pytest.approx(0.62, abs=1e-9)
    assert report.coverage == pytest.approx(0.90, abs=1e-9)


def test_quality_matches_assignment_objective():
    rng = np.random.default_rng(5)
    u = rng.uniform(size=(6, 6))
    matrix = utility_matrix_from_components(
        [f"v{i}" for i in range(6)], [f"t{j}" for j in range(6)],
        u, u, np.ones_like(u), UtilityParams(),
    )
    assignment = assign_swati(matrix, CapacityMap())
    report = quality(assignment, 6)
    assert report.total_utility == pytest.approx(assignment.total_utility(), abs=1e-9)


def test_quality_permutation_invariant():
    a = quality(_assignment([0.1, 0.5, 0.9]), 5)
    b = quality(_assignment([0.9, 0.1, 0.5]), 5)
    assert a.total_utility == pytest.approx(b.total_utility)
    assert a.avg_utility == pytest.approx(b.avg_utility)


def test_cdf_single_value():
    assert utility_cdf(_assignment([0.5]), bins=2) == [(0.5, 1.0), (1.0, 1.0)]


def test_cdf_two_values():
    assert utility_cdf(_assignment([0.25, 0.75]), bins=2) == [(0.5, 0.5), (1.0, 1.0)]


def test_cdf_empty_assignment_is_zero():
    assert utility_cdf(_assignment([]), bins=4) == [
        (0.25, 0.0),
        (0.5, 0.0),
        (0.75, 0.0),
        (1.0, 0.0),
    ]


def test_cdf_requires_two_bins():
    with pytest.raises(ConfigError):
        utility_cdf(_assignment([0.5]), bins=1)


def test_cdf_monotone_and_terminal():
    rng = np.random.default_rng(9)
    points = utility_cdf(_assignment(rng.uniform(size=40).tolist()), bins=10)
    fractions = [f for _, f in points]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


def test_bench_scaling_shapes_and_stages(builtin_ontology, tmp_path):
    result = bench_scaling(
        [4, 8], ["random", "skill", "swati"], seed=3, repetitions=3,
        ontology=builtin_ontology,
    )
    assert len(result.timings) == 6
    by_method = {(r.market_size, r.method): r for r in result.timings}
    assert set(by_method[(4, "random")].stage_seconds) == {"assignment"}
    assert set(by_method[(4, "skill")].stage_seconds) == {
        "extraction", "similarity", "assignment",
    }
    assert set(by_method[(8, "swati")].stage_seconds) == {
        "extraction", "similarity", "willingness", "assignment",
    }
    for report in result.timings:
        assert report.repetitions == 3
        assert all(len(v) == 3 for v in report.stage_seconds.values())
        assert all(t >= 0 for v in report.stage_seconds.values() for t in v)
        lo, med, hi = report.dispersion()
        assert lo <= med <= hi

    write_timing_csv(str(tmp_path / "timing.csv"), result.timings)
    with open(tmp_path / "timing.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["size", "method", "stage", "rep", "seconds"]
    assert len(rows) > 6
    assert list(result.cdf) == [4, 8]
    assert list(result.cdf[8]) == ["random", "skill", "swati"]
    assert all(len(points) == 20 for points in result.cdf[8].values())


def test_bench_validates_inputs(builtin_ontology):
    with pytest.raises(ConfigError):
        bench_scaling([8, 4], ["random"], seed=1, ontology=builtin_ontology)
    with pytest.raises(ConfigError):  # one CDF per size
        bench_scaling([4, 4], ["random"], seed=1, ontology=builtin_ontology)
    with pytest.raises(ConfigError):
        bench_scaling([4], ["random"], seed=1, repetitions=2, ontology=builtin_ontology)
    with pytest.raises(ConfigError):
        bench_scaling([4], ["nonsense"], seed=1, ontology=builtin_ontology)


def test_quality_csv_round_trip(tmp_path):
    report = quality(_assignment([0.5, 0.7]), 4, method="swati")
    path = tmp_path / "q.csv"
    write_quality_csv(str(path), [report])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "swati"
    assert float(rows[0]["total_utility"]) == pytest.approx(1.2)
    assert rows[0]["pairs"] == "2"


def test_cdf_csv_wide_format(tmp_path):
    per_method = {
        "swati": [(0.5, 0.2), (1.0, 1.0)],
        "skill": [(0.5, 0.6), (1.0, 1.0)],
    }
    path = tmp_path / "cdf.csv"
    write_cdf_csv(str(path), per_method)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "swati", "skill"]
    assert rows[1] == ["0.500000", "0.200000", "0.600000"]
