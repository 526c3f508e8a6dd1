"""Walkthrough: synthetic market -> utilities -> greedy assignment vs baselines.

Run with:  python demos/02_matching_pipeline.py
"""

from swati import (
    METHODS,
    CapacityMap,
    SyntheticConfig,
    UtilityForm,
    UtilityParams,
    WillingnessParams,
    assign_swati,
    generate_synthetic,
    generate_synthetic_history,
    histories_from_records,
    load_builtin_ontology,
    match_market,
    quality,
    utility_matrix_from_components,
)
from swati.extraction import build_market

ontology = load_builtin_ontology()

# A reproducible market: 120 volunteers, 100 tasks, everything derived from
# the seed. Volunteer texts embed skill aliases, cue sentences, and a theme;
# histories record which task domains each volunteer accepted before.
cfg = SyntheticConfig(seed=7, n_volunteers=120, n_tasks=100)
corpus = generate_synthetic(cfg, ontology)
histories = histories_from_records(generate_synthetic_history(cfg, corpus, ontology))
print("sample volunteer text:\n ", corpus.volunteers[0].text, "\n")

market = build_market(corpus, ontology)
caps = CapacityMap()  # one task per volunteer unless configured otherwise

# One call scores the market (skill and content similarity, willingness from
# cues and history) and runs every method on the same utility matrix; the
# random baseline draws with the seed.
result = match_market(
    market, histories, caps, UtilityParams(), WillingnessParams(), methods=METHODS, seed=7
)
print(f"{'method':12} {'total':>8} {'avg':>6} {'coverage':>9} {'pairs':>6}")
for name, assignment in result.assignments.items():
    report = quality(assignment, corpus.n_tasks, method=name)
    print(
        f"{name:12} {report.total_utility:8.2f} {report.avg_utility:6.2f} "
        f"{report.coverage:9.2f} {report.pair_count:6d}"
    )

# The two utility forms are not equivalent. Product form discounts the whole
# blended similarity by willingness; split form discounts only the content
# term. On the right instance they select different assignments:
import numpy as np

skill = np.array([[0.9], [0.0]])
content = np.array([[0.0], [0.8]])
willingness = np.array([[0.1], [1.0]])
for form in (UtilityForm.PRODUCT, UtilityForm.SPLIT):
    m = utility_matrix_from_components(
        ["keen-but-unwilling", "aligned-and-willing"], ["t1"],
        skill, content, willingness, UtilityParams(form=form),
    )
    picked = assign_swati(m, caps).pairs[0].volunteer_id
    print(f"{form.value:8} form picks: {picked}")
