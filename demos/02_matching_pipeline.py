"""Walkthrough: synthetic market -> utilities -> greedy assignment vs baselines.

Run with:  python demos/02_matching_pipeline.py
"""

from swati import (
    CapacityMap,
    SyntheticConfig,
    UtilityForm,
    UtilityParams,
    WillingnessParams,
    WillingnessState,
    assign_random,
    assign_skill_only,
    assign_swati,
    generate_synthetic,
    generate_synthetic_history,
    histories_from_records,
    load_builtin_ontology,
    quality,
    run_epoch,
    similarity_components,
    utility_matrix_from_components,
    willingness_matrix,
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

# Skill and content similarity and the raw willingness depend only on the
# market and its history; each epoch smooths the raw willingness against a
# state that lives across decision epochs.
params = WillingnessParams()
skill, content = similarity_components(market.profiles, market.taskspecs)
w_hat = willingness_matrix(market.profiles, market.taskspecs, histories, skill > 0, params)
state = WillingnessState([p.id for p in market.profiles], [t.id for t in market.taskspecs])
result = run_epoch(
    market.profiles,
    market.taskspecs,
    skill,
    content,
    w_hat,
    caps,
    UtilityParams(),
    params,
    state,
)
matrix = result.matrix

assignments = {
    "swati": result.assignment,
    "skill-only": assign_skill_only(matrix, caps),
    "random": assign_random(matrix, caps, seed=7),
}
print(f"{'method':12} {'total':>8} {'avg':>6} {'coverage':>9} {'pairs':>6}")
for name, assignment in assignments.items():
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
