"""Release acceptance suite.

One test per criterion; each prints a ``[acceptance] ...: PASS/FAIL`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). Heavy
fixtures are shared across criteria so the suite stays fast.
"""

import dataclasses
import hashlib
import json
import math
import random
import statistics
import time

import numpy as np
import pytest

from swati.assignment import (
    METHODS,
    Assignment,
    AssignedPair,
    CapacityMap,
    UtilityForm,
    UtilityParams,
    assign_random,
    assign_skill_only,
    assign_swati,
    match_market,
    utility_matrix_from_components,
)
from swati.cli import main as cli_main
from swati.corpus import SyntheticConfig, generate_synthetic, generate_synthetic_history
from swati.extraction import build_market, extract_corpus, extraction_stats
from swati.ledger import Ledger, verify
from swati.metrics import bench_scaling, quality, utility_cdf
from swati.similarity import (
    SparseRows,
    VectorizerModel,
    VectorizerSettings,
    cosine_matrix,
    count_terms,
    fit_vectorizer,
    jaccard_matrix,
)
from swati.willingness import (
    WillingnessParams,
    histories_from_records,
    raw_willingness,
    smooth,
    willingness_matrix,
)
from swati.corpus import Corpus, Document

import assignment_oracle
from assignment_oracle import assign_optimal_bruteforce, validate_assignment
from conftest import TEST_MARKET_SHAPE, vectorize

SEEDS = (1, 2, 3, 4, 5)


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def _component_matrix(u, params=None):
    u = np.asarray(u, dtype=np.float64)
    n, m = u.shape
    return utility_matrix_from_components(
        [f"v{i + 1}" for i in range(n)],
        [f"t{j + 1}" for j in range(m)],
        u,
        u,
        np.ones_like(u),
        params or UtilityParams(),
    )


@pytest.fixture(scope="module")
def market_runs(builtin_ontology):
    """Criterion-1 corpora: one seeded market run per seed, all three methods."""
    runs = {}
    for seed in SEEDS:
        start = time.perf_counter()
        cfg = SyntheticConfig(seed=seed, n_volunteers=342, n_tasks=300, **TEST_MARKET_SHAPE)
        corpus = generate_synthetic(cfg, builtin_ontology)
        histories = histories_from_records(
            generate_synthetic_history(cfg, corpus, builtin_ontology)
        )
        market = build_market(corpus, builtin_ontology)
        result = match_market(
            market, histories, CapacityMap(), UtilityParams(), WillingnessParams(),
            methods=METHODS, seed=seed,
        )
        runs[seed] = {
            "matrix": result.matrix,
            **result.assignments,
            "elapsed": time.perf_counter() - start,
        }
    return runs


def test_c01_method_ordering_and_margin(market_runs):
    ratios = []
    ok = True
    details = []
    for seed in SEEDS:
        run = market_runs[seed]
        reports = {
            name: quality(run[name], 300, method=name)
            for name in ("swati", "skill", "random")
        }
        ratios.append(reports["swati"].total_utility / reports["skill"].total_utility)
        ok &= (
            reports["swati"].total_utility > reports["skill"].total_utility
            > reports["random"].total_utility
        )
        ok &= (
            reports["swati"].coverage
            >= reports["skill"].coverage
            >= reports["random"].coverage
        )
        ok &= run["elapsed"] <= 120.0
    median_ratio = statistics.median(ratios)
    ok &= median_ratio >= 1.15
    details.append(f"median swati/skill ratio {median_ratio:.3f}")
    details.append(f"max seed time {max(r['elapsed'] for r in market_runs.values()):.1f}s")
    _verdict("C1 ordering + margin", ok, "; ".join(details))


def test_c02_greedy_approximation():
    start = time.perf_counter()
    rng = random.Random(2024)
    worst = 1.0
    good = 0
    total = 500
    for _ in range(total):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        u = np.array([[rng.random() for _ in range(m)] for _ in range(n)])
        caps = CapacityMap({f"v{i + 1}": rng.choice([1, 2]) for i in range(n)})
        matrix = _component_matrix(u)
        greedy_total = assign_swati(matrix, caps).total_utility()
        optimal_total = assign_optimal_bruteforce(matrix, caps).total_utility()
        if optimal_total > 0:
            ratio = greedy_total / optimal_total
            worst = min(worst, ratio)
            assert greedy_total >= 0.5 * optimal_total - 1e-9
            if ratio >= 0.9:
                good += 1
        else:
            good += 1
    elapsed = time.perf_counter() - start
    ok = worst >= 0.5 and good / total >= 0.95 and elapsed <= 30.0
    _verdict(
        "C2 greedy 1/2-approximation",
        ok,
        f"worst ratio {worst:.3f}, {good}/{total} above 0.9x, {elapsed:.1f}s",
    )


def test_c02_greedy_approximation_beyond_brute_force():
    """C2 at 40x40 against the exact capacitated optimum of the Hungarian oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 1.0
    for trial in range(12):
        n, m = 40 + trial % 3, 40 - trial % 4
        u = rng.uniform(size=(n, m)) if trial % 2 else rng.integers(0, 4, size=(n, m)) / 3
        matrix = _component_matrix(u)
        caps = CapacityMap({f"v{i + 1}": int(rng.integers(1, 4)) for i in range(n)})
        greedy_total = assign_swati(matrix, caps).total_utility()
        optimal_total = assignment_oracle.optimal_total(matrix, caps)
        assert greedy_total <= optimal_total + 1e-9
        assert greedy_total >= 0.5 * optimal_total - 1e-9
        worst = min(worst, greedy_total / optimal_total)
    elapsed = time.perf_counter() - start
    _verdict(
        "C2 greedy 1/2-approximation at 40x40",
        worst >= 0.5 and elapsed <= 30.0,
        f"worst ratio {worst:.3f}, {elapsed:.1f}s",
    )


def test_c02_greedy_approximation_on_the_c1_markets(market_runs):
    """C2 on C1's five 342x300 markets against the Hungarian oracle's optimum."""
    ratios = []
    for seed in SEEDS:
        run = market_runs[seed]
        optimal_total = assignment_oracle.optimal_total(run["matrix"], CapacityMap())
        greedy_total = run["swati"].total_utility()
        assert greedy_total <= optimal_total + 1e-9
        assert greedy_total >= 0.5 * optimal_total - 1e-9
        ratios.append(greedy_total / optimal_total)
    _verdict(
        "C2 greedy 1/2-approximation on the C1 markets",
        min(ratios) >= 0.5,
        "greedy/optimum " + ", ".join(f"{ratio:.3f}" for ratio in ratios),
    )


def test_c03_feasibility_fuzz():
    rng = random.Random(777)
    violations = 0
    for i in range(100):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        u = np.array([[rng.random() for _ in range(m)] for _ in range(n)])
        caps = CapacityMap({f"v{i + 1}": rng.randint(1, 3) for i in range(n)})
        matrix = _component_matrix(u)
        assignments = [
            assign_swati(matrix, caps),
            assign_skill_only(matrix, caps),
            assign_random(matrix, caps, seed=i),
        ]
        if n <= 6 and m <= 6:
            assignments.append(assign_optimal_bruteforce(matrix, caps))
        for assignment in assignments:
            try:
                validate_assignment(assignment, caps, matrix)
            except ValueError:
                violations += 1
    _verdict("C3 feasibility fuzz", violations == 0, f"{violations} violations")


def test_c04_cmd_match_determinism(tmp_path):
    gen_dir = tmp_path / "gen"
    rc = cli_main(
        ["gen", "--out", str(gen_dir), "--seed", "42", "--n-volunteers", "30",
         "--n-tasks", "20"]
    )
    assert rc == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"history_path": str(gen_dir / "history.jsonl")}))
    digests = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        rc = cli_main(
            ["match", "--config", str(config_path), "--corpus",
             str(gen_dir / "corpus.jsonl"), "--method", "swati", "--out", str(out)]
        )
        assert rc == 0
        blobs = b"".join(
            (out / name).read_bytes()
            for name in ("assignment.jsonl", "ledger.bin", "quality.csv", "manifest.json")
        )
        digests.append(hashlib.sha256(blobs).hexdigest())
    ok = len(set(digests)) == 1
    _verdict("C4 byte-identical reruns", ok, f"3 runs, digest {digests[0][:12]}...")


def test_c05_similarity_math():
    checks = []
    jaccard = jaccard_matrix(
        [frozenset("AB"), frozenset("ABC"), frozenset()],
        [frozenset("AB"), frozenset("C"), frozenset("BCD"), frozenset()],
    )
    checks.append(abs(jaccard[0, 0] - 1.0) <= 1e-9)
    checks.append(abs(jaccard[0, 1] - 0.0) <= 1e-9)
    checks.append(abs(jaccard[1, 2] - 0.5) <= 1e-9)
    checks.append(jaccard[2, 3] == 0.0)

    # rows a = (0.6, 0.8) and b = (1, 0), and an empty row
    volunteers = SparseRows(np.array([0, 1]), np.array([0.6, 0.8]), [0, 2, 2])
    tasks = SparseRows(np.array([0, 0, 1]), np.array([1.0, 0.6, 0.8]), [0, 1, 3])
    cosine = cosine_matrix(volunteers, tasks)
    checks.append(abs(cosine[0, 0] - 0.6) <= 1e-9)
    checks.append(abs(cosine[0, 1] - 1.0) <= 1e-9)
    checks.append(cosine[1, 0] == 0.0)

    corpus = Corpus(
        volunteers=(
            Document(id="v1", kind="volunteer", text="apple banana"),
            Document(id="v2", kind="volunteer", text="apple cherry"),
        ),
        tasks=(Document(id="t1", kind="task", text="apple banana damson"),),
    )
    model = fit_vectorizer(count_terms(doc.text for doc in corpus.documents()))
    idf = lambda t: model.idf[model.vocabulary[t]]
    checks.append(abs(idf("apple") - 1.0) <= 1e-9)
    checks.append(abs(idf("banana") - (math.log(4 / 3) + 1)) <= 1e-9)
    checks.append(abs(idf("cherry") - (math.log(2) + 1)) <= 1e-9)
    vec = vectorize(model, "apple banana damson")
    norm = math.sqrt(idf("apple") ** 2 + idf("banana") ** 2 + idf("damson") ** 2)
    dense = dict(zip(vec.indices.tolist(), vec.weights.tolist()))
    for term in ("apple", "banana", "damson"):
        checks.append(abs(dense[model.vocabulary[term]] - idf(term) / norm) <= 1e-9)

    toy = VectorizerModel(
        vocabulary={"ml": 0, "vision": 1},
        idf=np.array([1.0, 2.0]),
        settings=VectorizerSettings(use_stopwords=False),
    )
    weights = vectorize(toy, "ml ml vision").weights
    checks.append(np.allclose(weights, [1 / math.sqrt(2)] * 2, atol=1e-9))

    _verdict("C5 similarity math", all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_c06_willingness_math(builtin_ontology):
    params = WillingnessParams()
    checks = []
    checks.append(abs(raw_willingness(0.5, 0.5, params) - 0.5) <= 1e-12)
    checks.append(
        abs(raw_willingness(1.0, 1.0, params) - 1 / (1 + math.exp(-2))) <= 1e-12
    )
    checks.append(
        abs(raw_willingness(0.0, 0.0, params) - 1 / (1 + math.exp(2))) <= 1e-12
    )
    smoothed = smooth(np.array([[0.4]]), np.array([[0.8]]), params)
    checks.append(abs(smoothed[0, 0] - 0.52) <= 1e-12)
    # the first epoch takes the raw estimate
    cfg = SyntheticConfig(seed=1, n_volunteers=6, n_tasks=5, **TEST_MARKET_SHAPE)
    corpus = generate_synthetic(cfg, builtin_ontology)
    histories = histories_from_records(generate_synthetic_history(cfg, corpus, builtin_ontology))
    market = build_market(corpus, builtin_ontology)
    first = match_market(market, histories, CapacityMap(), UtilityParams(), params, epochs=1)
    raw = willingness_matrix(
        market.profiles, market.taskspecs, histories, first.matrix.skill > 0, params
    )
    checks.append(first.matrix.willingness.tobytes() == raw.tobytes())

    grid = np.linspace(0.0, 1.0, 10)
    monotone = True
    for f in grid:
        col = [raw_willingness(g, f, params) for g in grid]
        monotone &= all(b >= a for a, b in zip(col, col[1:]))
    for g in grid:
        row = [raw_willingness(g, f, params) for f in grid]
        monotone &= all(b >= a for a, b in zip(row, row[1:]))
    checks.append(monotone)
    _verdict("C6 willingness math", all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_c07_utility_form_switch_is_live():
    skill = np.array([[0.9], [0.0]])
    content = np.array([[0.0], [0.8]])
    willingness = np.array([[0.1], [1.0]])
    vols, tasks = ["v1", "v2"], ["t1"]
    product = utility_matrix_from_components(
        vols, tasks, skill, content, willingness, UtilityParams(form=UtilityForm.PRODUCT)
    )
    split = utility_matrix_from_components(
        vols, tasks, skill, content, willingness, UtilityParams(form=UtilityForm.SPLIT)
    )
    caps = CapacityMap()
    picked_product = {(p.volunteer_id, p.task_id) for p in assign_swati(product, caps).pairs}
    picked_split = {(p.volunteer_id, p.task_id) for p in assign_swati(split, caps).pairs}
    ok = picked_product == {("v2", "t1")} and picked_split == {("v1", "t1")}
    _verdict(
        "C7 utility-form divergence",
        ok,
        f"product picks {sorted(picked_product)}, split picks {sorted(picked_split)}",
    )


def test_c08_cdf_dominance(market_runs):
    ratios = {
        seed: market_runs[seed]["swati"].total_utility()
        / market_runs[seed]["skill"].total_utility()
        for seed in SEEDS
    }
    median_seed = sorted(SEEDS, key=lambda s: ratios[s])[len(SEEDS) // 2]
    run = market_runs[median_seed]
    bins = 20
    swati_cdf = utility_cdf(run["swati"], bins)
    skill_cdf = utility_cdf(run["skill"], bins)
    dominated = sum(
        1 for (_, fs), (_, fk) in zip(swati_cdf, skill_cdf) if fs <= fk + 1e-12
    )
    ok = dominated >= 0.9 * bins
    _verdict(
        "C8 CDF dominance",
        ok,
        f"seed {median_seed}: dominated at {dominated}/{bins} thresholds",
    )


def test_c09_timing_ordering_and_growth(builtin_ontology):
    start = time.perf_counter()
    sizes = [50, 100, 200, 400]
    result = bench_scaling(
        sizes, ["random", "skill", "swati"], seed=7, repetitions=3,
        ontology=builtin_ontology,
    )
    medians = {
        (r.market_size, r.method): r.median_total() for r in result.timings
    }
    ok = True
    for size in sizes:
        ok &= medians[(size, "random")] < medians[(size, "skill")] < medians[(size, "swati")]
    growth = []
    for small, big in zip(sizes, sizes[1:]):
        ratio = medians[(big, "swati")] / medians[(small, "swati")]
        growth.append(ratio)
        ok &= ratio <= 4.0 * 1.5
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 300.0
    _verdict(
        "C9 timing ordering + growth",
        ok,
        f"growth ratios {[f'{g:.2f}' for g in growth]}, {elapsed:.0f}s total",
    )


def _fixture_ledger_100():
    ledger = Ledger()
    for i in range(60):
        ledger.post_task(f"t{i:03d}")
    assignment = Assignment(
        pairs=tuple(AssignedPair(f"v{i:03d}", f"t{i:03d}", 0.5) for i in range(25))
    )
    ledger.commit_assignment(assignment)
    for i in range(10):
        ledger.transition(f"t{i:03d}", "Completed")
    for i in range(25, 30):
        ledger.transition(f"t{i:03d}", "Cancelled")
    assert len(ledger.records) == 100
    return ledger


def test_c10_ledger_tamper_evidence():
    ledger = _fixture_ledger_100()
    head = ledger.head()
    n = len(ledger.records)
    detected = 0
    for k in range(n):
        mutated = list(ledger.records)
        mutated[k] = dataclasses.replace(mutated[k], task_id=mutated[k].task_id + "x")
        result = verify(Ledger(mutated), expected_head=head)
        if not result.ok and result.first_bad_index == k:
            detected += 1
    for k in range(n):
        spliced = list(ledger.records)
        del spliced[k]
        result = verify(Ledger(spliced), expected_head=head)
        if not result.ok and result.first_bad_index == k:
            detected += 1
    ok = detected == 2 * n
    _verdict("C10 tamper evidence", ok, f"{detected}/{2 * n} detected at exact index")


def test_c11_extraction_round_trip(builtin_ontology):
    checks = []
    for spv, n_vol in (((3, 3), 30), ((2, 4), 30)):
        shape = {**TEST_MARKET_SHAPE, "skills_per_volunteer": spv}
        cfg = SyntheticConfig(seed=31, n_volunteers=n_vol, n_tasks=10, **shape)
        corpus = generate_synthetic(cfg, builtin_ontology)
        results = []
        recall_ok = True
        for doc in corpus.documents():
            result = extract_corpus([doc], builtin_ontology)[0]
            found, _ = builtin_ontology.canonicalize_report(m.raw for m in result.mentions)
            planted = set(doc.meta["planted_skills"].split("|"))
            recall_ok &= found == planted
            if doc.kind == "volunteer":
                results.append(result)
        stats = extraction_stats(results)
        midpoint = sum(spv) // 2 if sum(spv) % 2 == 0 else sum(spv) / 2
        checks.append(recall_ok)
        checks.append(stats.avg_per_doc == midpoint)
    _verdict(
        "C11 planted-skill recall + exact averages",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )
