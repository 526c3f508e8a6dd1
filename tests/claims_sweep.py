"""The median swati/skill utility ratio on C1's markets, one setting changed at a time.

Usage, from the repository root::

    PYTHONPATH=src python tests/claims_sweep.py

Each setting builds C1's five seeded 342x300 markets (``SEEDS`` and
``TEST_MARKET_SHAPE``, as ``tests/test_acceptance.py`` does) and prints the
median over the seeds of swati's total utility over skill-only greedy's.
It is one reading of the paper's +42.3%: the gap moves with the utility's
parameters, whose defaults stay as they are. pytest does not collect this
file.
"""

import statistics

from swati.assignment import CapacityMap, UtilityForm, UtilityParams, match_market
from swati.corpus import SyntheticConfig, generate_synthetic, generate_synthetic_history
from swati.extraction import build_market
from swati.ontology import load_builtin_ontology
from swati.willingness import WillingnessParams, histories_from_records

from conftest import TEST_MARKET_SHAPE

SEEDS = (1, 2, 3, 4, 5)


# each setting's arguments to ``ratios``, which default to C1's
SETTINGS = {
    "default": {},
    "no history": {"history": False},
    "history_weight 0": {"willingness": WillingnessParams(history_weight=0.0)},
    "history_weight 1": {"willingness": WillingnessParams(history_weight=1.0)},
    "sigmoid_gain 8": {"willingness": WillingnessParams(sigmoid_gain=8.0)},
    "sigmoid_gain 12": {"willingness": WillingnessParams(sigmoid_gain=12.0)},
    "split form": {"utility": UtilityParams(form=UtilityForm.SPLIT)},
    "skill weight 1": {"utility": UtilityParams(skill_weight=1.0, content_weight=0.0)},
    "content weight 1": {"utility": UtilityParams(skill_weight=0.0, content_weight=1.0)},
    "capacity 2": {"capacity": 2},
}


def ratios(
    ontology,
    history: bool = True,
    utility: UtilityParams = UtilityParams(),
    willingness: WillingnessParams = WillingnessParams(),
    capacity: int = 1,
) -> list[float]:
    """swati's total utility over skill-only's, on each C1 seed's market."""
    found = []
    for seed in SEEDS:
        cfg = SyntheticConfig(seed=seed, n_volunteers=342, n_tasks=300, **TEST_MARKET_SHAPE)
        corpus = generate_synthetic(cfg, ontology)
        histories = (
            histories_from_records(generate_synthetic_history(cfg, corpus, ontology))
            if history
            else None
        )
        result = match_market(
            build_market(corpus, ontology), histories, CapacityMap(default=capacity),
            utility, willingness, methods=("swati", "skill"), seed=seed,
        )
        swati, skill = (result.assignments[name].total_utility() for name in ("swati", "skill"))
        found.append(swati / skill)
    return found


def main() -> None:
    ontology = load_builtin_ontology()
    print("| setting | median swati/skill |")
    print("|---|---|")
    for name, setting in SETTINGS.items():
        print(f"| {name} | {statistics.median(ratios(ontology, **setting)):.3f} |", flush=True)


if __name__ == "__main__":
    main()
