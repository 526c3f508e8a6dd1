import hashlib
import json

import pytest

from swati.corpus import (
    Corpus,
    Document,
    SyntheticConfig,
    corpus_stats,
    generate_synthetic,
    generate_synthetic_history,
    load_corpus,
    save_corpus,
)
from swati.errors import ConfigError, DuplicateIdError, ParseError
from swati.extraction import extract_corpus
from swati.ontology import Ontology, SkillEntry

from conftest import TEST_MARKET_SHAPE


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_counts_and_order(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "v1", "kind": "volunteer", "text": "alpha"},
            {"id": "v2", "kind": "volunteer", "text": "beta"},
            {"id": "t1", "kind": "task", "text": "gamma"},
        ],
    )
    corpus = load_corpus(str(path))
    assert corpus.n_volunteers == 2
    assert corpus.n_tasks == 1
    assert [d.id for d in corpus.volunteers] == ["v1", "v2"]


def test_load_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    corpus = load_corpus(str(path))
    assert corpus.n_volunteers == 0 and corpus.n_tasks == 0


def test_duplicate_id_names_id_and_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "v1", "kind": "volunteer", "text": "a"},
            {"id": "v2", "kind": "volunteer", "text": "b"},
            {"id": "v1", "kind": "task", "text": "c"},
        ],
    )
    with pytest.raises(DuplicateIdError) as err:
        load_corpus(str(path))
    assert err.value.doc_id == "v1"
    assert err.value.line == 3


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "v1", "kind": "volunteer", "text": "a"}\n{oops\n')
    with pytest.raises(ParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 2


def test_unknown_field_strict_vs_lenient(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"id": "v1", "kind": "volunteer", "text": "a", "extra": 1}])
    with pytest.raises(ParseError):
        load_corpus(str(path), strict=True)
    with pytest.warns(UserWarning):
        corpus = load_corpus(str(path), strict=False)
    assert corpus.n_volunteers == 1


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "volunteer", "text": "a"},
        {"id": "v1", "text": "a"},
        {"id": "v1", "kind": "volunteer"},
        {"id": "v1", "kind": "volunteer", "text": ""},
        {"id": "v1", "kind": "helper", "text": "a"},
        {"id": "v1", "kind": "volunteer", "text": "a", "meta": {"k": 3}},
    ],
)
def test_invalid_records_rejected(tmp_path, record):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [record])
    with pytest.raises(ParseError):
        load_corpus(str(path))


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        load_corpus("/nonexistent/corpus.jsonl")


def test_corpus_rejects_duplicate_ids_on_construction():
    doc = Document(id="x", kind="volunteer", text="a")
    with pytest.raises(DuplicateIdError):
        Corpus(volunteers=(doc,), tasks=(Document(id="x", kind="task", text="b"),))


def test_round_trip(tmp_path, builtin_ontology):
    cfg = SyntheticConfig(seed=3, n_volunteers=8, n_tasks=5, **TEST_MARKET_SHAPE)
    corpus = generate_synthetic(cfg, builtin_ontology)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus


def test_generate_is_deterministic(tmp_path, builtin_ontology):
    cfg = SyntheticConfig(seed=7, n_volunteers=10, n_tasks=5, **TEST_MARKET_SHAPE)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    save_corpus(generate_synthetic(cfg, builtin_ontology), str(a))
    save_corpus(generate_synthetic(cfg, builtin_ontology), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_plants_exact_skill_counts(builtin_ontology):
    shape = {**TEST_MARKET_SHAPE, "skills_per_volunteer": (3, 3)}
    cfg = SyntheticConfig(seed=11, n_volunteers=12, n_tasks=4, **shape)
    corpus = generate_synthetic(cfg, builtin_ontology)
    for doc in corpus.volunteers:
        result = extract_corpus([doc], builtin_ontology)[0]
        skills, _ = builtin_ontology.canonicalize_report(m.raw for m in result.mentions)
        assert len(skills) == 3
        assert skills == set(doc.meta["planted_skills"].split("|"))


# sha256 of ``corpus.jsonl`` for shapes the ``gen`` golden pins leave out: no
# cue sentences, a cue chance of one, one skill count per kind, and ids four
# digits wide. A change to the generator's draws or texts moves them.
_SHAPE_DIGESTS = {
    "no_cues": (
        dict(seed=2, n_volunteers=20, n_tasks=12, cue_density=0.0),
        "90b6671b917a75d95110d8074bea1c075f1edcfeba88342f61c3ea6fb58547b6",
    ),
    "all_cues": (
        dict(seed=3, n_volunteers=20, n_tasks=12, cue_density=1.0),
        "71b9f7c0c70f4719682046aa7d394d4a9ee8ecb6b8d93b67279bc38bab8db855",
    ),
    "fixed_skill_counts": (
        dict(seed=4, n_volunteers=15, n_tasks=15, skills_per_volunteer=(4, 4),
             skills_per_task=(1, 1)),
        "d6d9099a67d8ca3acf0f72b8b63be349298f4a666ca0c464f447bbb57662be2c",
    ),
    "four_digit_task_ids": (
        dict(seed=5, n_volunteers=6, n_tasks=1001),
        "7dbc73109ce21ca38d2ae4b280caac9a37b67dfcf3acb409a1e28845b796fe34",
    ),
    "four_digit_volunteer_ids": (
        dict(seed=6, n_volunteers=1200, n_tasks=3, cue_density=0.9),
        "700be2d43b3e0c7c1625acccef90468a9059a6e3ed10b722877932530677e0f6",
    ),
}


@pytest.mark.parametrize(
    "kwargs, digest", list(_SHAPE_DIGESTS.values()), ids=list(_SHAPE_DIGESTS)
)
def test_generated_corpus_matches_golden_digest(tmp_path, builtin_ontology, kwargs, digest):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic(SyntheticConfig(**kwargs), builtin_ontology), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generate_infeasible_range_rejected():
    onto = Ontology([SkillEntry("A", ()), SkillEntry("B", ())])
    shape = {**TEST_MARKET_SHAPE, "skills_per_task": (5, 5)}
    cfg = SyntheticConfig(seed=1, n_volunteers=2, n_tasks=2, **shape)
    with pytest.raises(ConfigError):
        generate_synthetic(cfg, onto)


def test_generate_guards_template_alias_collisions():
    # an ontology claiming a template word would break planted-set exactness
    onto = Ontology([SkillEntry("Weekend Work", ("weekends",)), SkillEntry("B", ())])
    cfg = SyntheticConfig(seed=1, n_volunteers=2, n_tasks=2, cue_density=0.7,
                          skills_per_volunteer=(1, 1), skills_per_task=(1, 1))
    with pytest.raises(ConfigError):
        generate_synthetic(cfg, onto)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_volunteers": 0},
        {"n_tasks": 0},
        {"skills_per_volunteer": (0, 2)},
        {"skills_per_task": (3, 2)},
        {"cue_density": 1.5},
    ],
)
def test_synthetic_config_validation(kwargs):
    base = dict(seed=1, n_volunteers=2, n_tasks=2)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        SyntheticConfig(**base)


def test_corpus_stats_mean():
    corpus = Corpus(
        volunteers=(
            Document(id="v1", kind="volunteer", text="a" * 10),
            Document(id="v2", kind="volunteer", text="b" * 20),
        ),
        tasks=(Document(id="t1", kind="task", text="c" * 30),),
    )
    stats = corpus_stats(corpus)
    assert (stats.n_volunteers, stats.n_tasks) == (2, 1)
    assert stats.mean_text_length == 20


def test_corpus_stats_empty():
    stats = corpus_stats(Corpus(volunteers=(), tasks=()))
    assert (stats.n_volunteers, stats.n_tasks, stats.mean_text_length) == (0, 0, 0)


def test_corpus_stats_unified_dataset_scale(builtin_ontology):
    cfg = SyntheticConfig(seed=0, n_volunteers=342, n_tasks=300, **TEST_MARKET_SHAPE)
    stats = corpus_stats(generate_synthetic(cfg, builtin_ontology))
    assert stats.n_volunteers == 342
    assert stats.n_tasks == 300


def test_history_generation_deterministic_and_canonical(builtin_ontology):
    cfg = SyntheticConfig(seed=5, n_volunteers=6, n_tasks=3, **TEST_MARKET_SHAPE)
    corpus = generate_synthetic(cfg, builtin_ontology)
    first = generate_synthetic_history(cfg, corpus, builtin_ontology)
    second = generate_synthetic_history(cfg, corpus, builtin_ontology)
    assert first == second
    volunteer_ids = {d.id for d in corpus.volunteers}
    for record in first:
        assert record["volunteer_id"] in volunteer_ids
        for skill in record["task_skills"]:
            assert builtin_ontology.resolve(skill) == skill
