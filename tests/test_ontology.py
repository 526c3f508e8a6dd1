import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swati.errors import AliasConflictError, CycleError, ParseError, UnknownSkillError
from swati.ontology import Ontology, SkillEntry, load_ontology, normalize_skill


def test_normalize_strips_and_collapses():
    assert normalize_skill("  Computer   Vision ") == "computer vision"
    assert normalize_skill("(Python),") == "python"
    assert normalize_skill("computer-vision") == "computer-vision"


def test_resolve_alias_mapping(mini_ontology):
    assert mini_ontology.resolve("cv") == "Computer Vision"
    assert mini_ontology.resolve("Computer-Vision") == "Computer Vision"


def test_resolve_trims_raw(mini_ontology):
    assert mini_ontology.resolve("  YOLOv8 ") == "YOLO"


def test_resolve_unknown_is_none(mini_ontology):
    assert mini_ontology.resolve("underwater basket weaving") is None


def test_resolve_idempotent_on_canonicals(mini_ontology):
    for entry in mini_ontology.entries:
        assert mini_ontology.resolve(entry.canonical) == entry.canonical


def test_alias_conflict_detected():
    with pytest.raises(AliasConflictError) as err:
        Ontology(
            [
                SkillEntry("Machine Learning", ("ml",)),
                SkillEntry("Markup Languages", ("ml",)),
            ]
        )
    assert err.value.alias == "ml"


def test_parent_cycle_detected():
    with pytest.raises(CycleError):
        Ontology(
            [
                SkillEntry("A", (), parent="B"),
                SkillEntry("B", (), parent="A"),
            ]
        )


def test_unknown_parent_rejected():
    with pytest.raises(ParseError):
        Ontology([SkillEntry("A", (), parent="Nowhere")])


def test_duplicate_canonical_rejected():
    with pytest.raises(ParseError):
        Ontology([SkillEntry("A", ()), SkillEntry("A", ("alias",))])


def test_rollup_one_step(mini_ontology):
    assert mini_ontology.rollup("Object Detection", 1) == "Computer Vision"


def test_rollup_root_fixed_point(mini_ontology):
    assert mini_ontology.rollup("Machine Learning", 5) == "Machine Learning"


def test_rollup_unknown_skill(mini_ontology):
    with pytest.raises(UnknownSkillError):
        mini_ontology.rollup("Quantum Basketry", 1)


def test_root_of_walks_to_top(mini_ontology):
    assert mini_ontology.root_of("YOLO") == "Machine Learning"


def test_canonicalize_report_dedupes(mini_ontology):
    assert mini_ontology.canonicalize_report(["CV", "cv", "Computer Vision"])[0] == {
        "Computer Vision"
    }


def test_canonicalize_report_empty(mini_ontology):
    assert mini_ontology.canonicalize_report([]) == (set(), [])


def test_canonicalize_report_counts_unresolved(mini_ontology):
    raws = ["cv", "sql", "yolov8", "gibberish one", "gibberish two"]
    resolved, unresolved = mini_ontology.canonicalize_report(raws)
    assert resolved == {"Computer Vision", "SQL", "YOLO"}
    assert unresolved == ["gibberish one", "gibberish two"]


_PERMUTATION_ONTOLOGY = Ontology(
    [
        SkillEntry("Machine Learning", ("ml",)),
        SkillEntry("Computer Vision", ("CV",), parent="Machine Learning"),
        SkillEntry("YOLO", ("yolov8",), parent="Computer Vision"),
        SkillEntry("SQL", ()),
    ]
)


@given(st.permutations(["cv", "ml", "sql", "cv", "yolov8", "nonsense", "ml"]))
def test_canonicalize_report_order_and_duplication_invariant(raws):
    assert _PERMUTATION_ONTOLOGY.canonicalize_report(raws)[0] == {
        "Machine Learning",
        "Computer Vision",
        "YOLO",
        "SQL",
    }


def test_load_ontology_from_file(tmp_path):
    path = tmp_path / "onto.jsonl"
    path.write_text(
        json.dumps({"canonical": "Computer Vision", "aliases": ["CV", "computer-vision"]})
        + "\n"
        + json.dumps({"canonical": "Object Detection", "parent": "Computer Vision"})
        + "\n"
    )
    onto = load_ontology(str(path))
    assert onto.resolve("cv") == "Computer Vision"
    assert onto.rollup("Object Detection", 1) == "Computer Vision"


def test_load_ontology_keeps_a_raw_line_separator_inside_an_alias(tmp_path):
    # JSON allows a raw U+2028 in a string; only \n, \r and \r\n end a line
    path = tmp_path / "onto.jsonl"
    entry = {"canonical": "Go", "aliases": ["go\u2028lang"]}
    path.write_text(json.dumps(entry, ensure_ascii=False) + "\n", encoding="utf-8")
    onto = load_ontology(str(path))
    assert len(onto) == 1
    assert onto.resolve("go lang") == "Go"


def test_load_ontology_reports_bad_line(tmp_path):
    path = tmp_path / "onto.jsonl"
    path.write_text('{"canonical": "A"}\nnot json\n')
    with pytest.raises(ParseError) as err:
        load_ontology(str(path))
    assert err.value.line == 2


def test_load_ontology_missing_file():
    with pytest.raises(OSError):
        load_ontology("/nonexistent/onto.jsonl")


def test_builtin_ontology_size_and_consistency(builtin_ontology):
    assert len(builtin_ontology) >= 150
    # every canonical resolves to itself and every parent chain terminates
    for entry in builtin_ontology.entries:
        assert builtin_ontology.resolve(entry.canonical) == entry.canonical
        builtin_ontology.root_of(entry.canonical)


def test_builtin_rollup_matches_hierarchy(builtin_ontology):
    assert builtin_ontology.rollup("Object Detection", 1) == "Computer Vision"
    assert builtin_ontology.root_of("YOLO") == "Machine Learning"
