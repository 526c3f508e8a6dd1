"""Walkthrough: from raw text to canonical skills, cues, and statistics.

Run with:  python demos/01_skill_extraction.py
"""

from swati import Document, extract_corpus, extraction_stats, load_builtin_ontology

ontology = load_builtin_ontology()
print(f"starter ontology: {len(ontology)} skills, {len(ontology.alias_index)} alias keys")

# Alias resolution is exact match after normalization: trim, lowercase,
# collapse whitespace, strip surrounding punctuation. No fuzzy matching.
for raw in ["  CV ", "yolov8", "Machine-Learning", "(postgres)", "underwater basket weaving"]:
    print(f"  resolve({raw!r}) -> {ontology.resolve(raw)!r}")

# Hierarchical roll-up follows parent links.
print("rollup('YOLO', 1)  ->", ontology.rollup("YOLO", 1))
print("rollup('YOLO', 99) ->", ontology.rollup("YOLO", 99))

profile_text = (
    "Expert in computer vision using YOLOv8; 6+ years shipping opencv pipelines. "
    "Also comfortable with postgres and docker. "
    "Passionate about mentoring; volunteered at a local charity. "
    "Available on weekends and most evenings."
)
doc = Document(id="v-demo", kind="volunteer", text=profile_text)
result = extract_corpus([doc], ontology)[0]

print("\nmentions (raw, evidence span, proficiency):")
for mention in result.mentions:
    canonical = ontology.resolve(mention.raw)
    print(f"  {mention.raw!r:28} {mention.evidence}  rho={mention.proficiency:.2f}  -> {canonical}")

print("\ncanonical skills (resolved once, by the extractor):", sorted(result.skills))
print("unresolved raws:", list(result.unresolved))

print("\npreference cues:")
for name in ("domain_affinity", "prior_exposure", "stated_interest",
             "volunteering_history", "availability"):
    print(f"  {name:22} {getattr(result.cues, name):.2f}")

stats = extraction_stats([result])
print(f"\nstats: total={stats.total_skills} unique={stats.unique_vocabulary} "
      f"avg/doc={stats.avg_per_doc}")
