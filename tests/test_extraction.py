import json
import os
import re
import string
import subprocess
import sys
import threading
import time
from importlib import resources
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swati import extraction
from swati.cli import main
from swati.corpus import Corpus, Document, SyntheticConfig, generate_synthetic
from swati.errors import ConfigError, RemoteTimeoutError, SchemaViolationError, TransportError
from swati.extraction import (
    _LEX,
    _NEXT_PAIRS,
    _START_PAIRS,
    CUE_NAMES,
    SCHEMA_VERSION,
    ExtractionResult,
    Market,
    PreferenceCues,
    Profile,
    RemoteExtractorConfig,
    SkillMention,
    TaskSpec,
    build_market,
    extract_corpus,
    extract_remote,
    extraction_stats,
    _alias_matches,
    _buffer,
    _chunks,
    _space_kinds,
    _start_pairs,
    validate_extraction,
)
from swati.ontology import Ontology, SkillEntry
from swati.similarity import VectorizerSettings, count_terms, fit_vectorizer, term_vectors

import python_reference as ref
from conftest import TEST_MARKET_SHAPE


def _doc(text, doc_id="d1", kind="volunteer"):
    return Document(id=doc_id, kind=kind, text=text)


def _wire(result: ExtractionResult) -> dict:
    return {
        "skills": [
            {"raw": m.raw, "evidence": list(m.evidence), "proficiency": m.proficiency}
            for m in result.mentions
        ],
        "cues": {
            "domain_affinity": result.cues.domain_affinity,
            "prior_exposure": result.cues.prior_exposure,
            "stated_interest": result.cues.stated_interest,
            "volunteering_history": result.cues.volunteering_history,
            "availability": result.cues.availability,
        },
    }


# --- rule-based extractor ---------------------------------------------------


def test_expert_proximity_boosts_proficiency(mini_ontology):
    doc = _doc("Expert in computer vision using YOLOv8")
    result = extract_corpus([doc], mini_ontology)[0]
    assert len(result.mentions) == 2
    cv = result.mentions[0]
    assert cv.raw == "computer vision"
    assert doc.text[cv.evidence[0] : cv.evidence[1]] == "computer vision"
    assert cv.proficiency == pytest.approx(0.8)


def test_years_pattern_boosts_proficiency(mini_ontology):
    result = extract_corpus([_doc("5+ years with SQL")], mini_ontology)[0]
    assert result.mentions[0].proficiency == pytest.approx(0.7)
    # below the 3-year threshold the bonus does not apply
    result = extract_corpus([_doc("2+ years with SQL")], mini_ontology)[0]
    assert result.mentions[0].proficiency == pytest.approx(0.5)


@pytest.mark.parametrize(
    "number, proficiency",
    [("1" * 5000, 0.7), ("0" * 5000 + "3", 0.7), ("0" * 5000 + "2", 0.5),
     ("003", 0.7), ("10", 0.7), ("\u0663", 0.7), ("\u0662", 0.5)],
    ids=["huge", "zeros-3", "zeros-2", "003", "10", "arabic-indic-3", "arabic-indic-2"],
)
def test_years_pattern_compares_numbers_of_any_length(mini_ontology, number, proficiency):
    # int() refuses strings of more than 4,300 digits
    result = extract_corpus([_doc(f"{number}+ years with SQL")], mini_ontology)[0]
    assert result.mentions[0].proficiency == pytest.approx(proficiency)


def test_expertise_outside_window_ignored(mini_ontology):
    filler = "x" * 60
    result = extract_corpus([_doc(f"Expert. {filler} sql")], mini_ontology)[0]
    assert result.mentions[0].proficiency == pytest.approx(0.5)


def test_proficiency_capped_at_one(mini_ontology):
    result = extract_corpus([_doc("Expert, proficient, 10+ years of SQL")], mini_ontology)[0]
    assert result.mentions[0].proficiency == 1.0


def test_empty_text_yields_nothing(mini_ontology):
    result = extract_corpus([_doc("")], mini_ontology)[0]
    assert result.mentions == ()
    assert result.cues == PreferenceCues()


def test_repeated_skill_yields_two_mentions(mini_ontology):
    result = extract_corpus(
        [_doc("Computer Vision here, computer vision there")], mini_ontology
    )[0]
    assert len(result.mentions) == 2


def test_whole_token_matching_no_substrings(mini_ontology):
    result = extract_corpus([_doc("javascript work")], mini_ontology)[0]
    assert result.mentions == ()  # 'Java' must not fire inside 'javascript'


def test_longest_match_wins():
    onto = Ontology([SkillEntry("Data", ("data",)), SkillEntry("Data Structures", ())])
    result = extract_corpus([_doc("knows data structures")], onto)[0]
    assert [onto.resolve(m.raw) for m in result.mentions] == ["Data Structures"]


def test_punctuation_bounded_aliases(mini_ontology):
    result = extract_corpus([_doc("Toolkit: SQL, CV.")], mini_ontology)[0]
    raws = [m.raw for m in result.mentions]
    assert raws == ["SQL", "CV"]


def test_interest_cue_counting(mini_ontology):
    result = extract_corpus([_doc("I enjoy this work and am passionate")], mini_ontology)[0]
    assert result.cues.stated_interest == pytest.approx(0.5)
    many = "passionate interested eager keen curious love"
    result = extract_corpus([_doc(many)], mini_ontology)[0]
    assert result.cues.stated_interest == 1.0


def test_domain_affinity_dominant_root(mini_ontology):
    result = extract_corpus([_doc("cv and object recognition plus sql")], mini_ontology)[0]
    assert result.cues.domain_affinity == pytest.approx(2 / 3)


def test_extraction_deterministic(mini_ontology):
    doc = _doc("Expert in computer vision using YOLOv8, available on weekends")
    assert extract_corpus([doc], mini_ontology)[0] == extract_corpus([doc], mini_ontology)[0]


def test_rule_based_outputs_pass_validator(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=13, n_volunteers=10, n_tasks=6, **TEST_MARKET_SHAPE),
        builtin_ontology,
    )
    for doc in corpus.documents():
        result = extract_corpus([doc], builtin_ontology)[0]
        assert validate_extraction(_wire(result), doc, builtin_ontology) == result


# --- schema validation ------------------------------------------------------


# the ontology the validator resolves ``_valid_payload``'s raws through
_CV = Ontology([SkillEntry("Computer Vision", ("CV",))])


def _valid_payload():
    return {
        "skills": [{"raw": "CV", "evidence": [6, 8], "proficiency": 0.7}],
        "cues": {
            "domain_affinity": 0.5,
            "prior_exposure": 0.0,
            "stated_interest": 1.0,
            "volunteering_history": 0.0,
            "availability": 0.25,
        },
    }


def test_validator_accepts_valid_payload():
    doc = _doc("Knows CV well")
    result = validate_extraction(_valid_payload(), doc, _CV)
    assert result.mentions == (SkillMention(raw="CV", evidence=(6, 8), proficiency=0.7),)
    assert result.cues.stated_interest == 1.0
    assert (result.skills, result.unresolved) == ({"Computer Vision"}, ())


def test_validator_rejects_uncited_evidence():
    payload = _valid_payload()
    payload["skills"][0]["raw"] = "SQL"
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    assert err.value.path == "mentions[0].evidence"


def test_validator_rejects_span_past_end():
    payload = _valid_payload()
    payload["skills"][0]["evidence"] = [6, 999]
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    assert err.value.path == "mentions[0].evidence"


def test_validator_rejects_out_of_range_proficiency():
    payload = _valid_payload()
    payload["skills"][0]["proficiency"] = 1.4
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    assert err.value.path == "mentions[0].proficiency"


def test_validator_rejects_missing_cue():
    payload = _valid_payload()
    del payload["cues"]["availability"]
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    assert err.value.path == "cues.availability"


def test_validator_rejects_unknown_fields():
    payload = _valid_payload()
    payload["confidence"] = 0.9
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    assert err.value.path == "confidence"


def test_validator_rejects_non_object():
    with pytest.raises(SchemaViolationError):
        validate_extraction([1, 2], _doc("Knows CV well"), _CV)


def _edited(edit):
    """The payload that ``edit`` changed in place, or the response it returned instead."""
    payload = _valid_payload()
    return edit(payload) or payload


def _mention(**fields):
    return lambda p: p["skills"][0].update(fields)


def _drop(*keys, where=lambda p: p):
    return lambda p: [where(p).pop(key) for key in keys] and None


def _cues(**fields):
    return lambda p: p["cues"].update(fields)


# (edit of a valid payload, or a whole response; path; reason): every pair the
# validator reports, and which fault it names first when there are several
_VIOLATIONS = {
    "number": (lambda p: 7, "", "response must be an object"),
    "list": (lambda p: [1, 2], "", "response must be an object"),
    "string": (lambda p: "{}", "", "response must be an object"),
    "unknown_first_sorted": (
        lambda p: p.update(zeta=1, aardvark=2), "aardvark", "unexpected field"
    ),
    "no_skills": (_drop("skills"), "skills", "missing"),
    "no_cues": (_drop("cues"), "cues", "missing"),
    "neither": (_drop("skills", "cues"), "skills", "missing"),
    "unknown_before_missing": (
        lambda p: p.pop("skills") and p.update(extra=1), "extra", "unexpected field"
    ),
    "skills_dict": (lambda p: p.update(skills={}), "skills", "must be a list"),
    "missing_cues_before_skills_type": (
        lambda p: p.pop("cues") and p.update(skills="CV"), "cues", "missing"
    ),
    "mention_string": (
        lambda p: p.update(skills=["CV"]), "mentions[0]", "must be an object"
    ),
    "second_mention": (
        lambda p: p["skills"].append(None), "mentions[1]", "must be an object"
    ),
    "mention_unknown": (_mention(b=1, a=2), "mentions[0].a", "unexpected field"),
    "mention_unknown_before_raw": (
        _mention(raw="", x=1), "mentions[0].x", "unexpected field"
    ),
    "raw_missing": (
        _drop("raw", where=lambda p: p["skills"][0]),
        "mentions[0].raw", "must be a non-empty string",
    ),
    "raw_empty": (_mention(raw=""), "mentions[0].raw", "must be a non-empty string"),
    "raw_number": (_mention(raw=5), "mentions[0].raw", "must be a non-empty string"),
    "raw_before_evidence": (
        _mention(raw=None, evidence=None), "mentions[0].raw", "must be a non-empty string"
    ),
    "evidence_missing": (
        _drop("evidence", where=lambda p: p["skills"][0]),
        "mentions[0].evidence", "must be [start, end]",
    ),
    "evidence_one": (_mention(evidence=[6]), "mentions[0].evidence", "must be [start, end]"),
    "evidence_three": (
        _mention(evidence=[6, 8, 9]), "mentions[0].evidence", "must be [start, end]"
    ),
    "evidence_float": (
        _mention(evidence=[6.0, 8]), "mentions[0].evidence", "must be [start, end]"
    ),
    "evidence_bool": (
        _mention(evidence=[True, 8]), "mentions[0].evidence", "must be [start, end]"
    ),
    "evidence_string": (
        _mention(evidence="6,8"), "mentions[0].evidence", "must be [start, end]"
    ),
    "evidence_negative": (
        _mention(evidence=[-1, 8]), "mentions[0].evidence", "span [-1, 8) outside text"
    ),
    "evidence_empty": (
        _mention(evidence=[8, 8]), "mentions[0].evidence", "span [8, 8) outside text"
    ),
    "evidence_past_end": (
        _mention(evidence=[6, 99]), "mentions[0].evidence", "span [6, 99) outside text"
    ),
    "evidence_uncited": (
        _mention(raw="SQL"), "mentions[0].evidence", "span does not contain the raw skill"
    ),
    "evidence_before_proficiency": (
        _mention(evidence=[0, 5], proficiency="high"),
        "mentions[0].evidence", "span does not contain the raw skill",
    ),
    "proficiency_missing": (
        _drop("proficiency", where=lambda p: p["skills"][0]),
        "mentions[0].proficiency", "must be a number",
    ),
    "proficiency_string": (
        _mention(proficiency="0.5"), "mentions[0].proficiency", "must be a number"
    ),
    "proficiency_bool": (
        _mention(proficiency=True), "mentions[0].proficiency", "must be a number"
    ),
    "proficiency_high": (_mention(proficiency=1.4), "mentions[0].proficiency", "out of [0, 1]"),
    "proficiency_low": (_mention(proficiency=-0.01), "mentions[0].proficiency", "out of [0, 1]"),
    "proficiency_nan": (
        _mention(proficiency=float("nan")), "mentions[0].proficiency", "out of [0, 1]"
    ),
    "proficiency_huge_int": (
        _mention(proficiency=10**400), "mentions[0].proficiency", "out of [0, 1]"
    ),
    "mentions_before_cues": (
        lambda p: p.update(skills=[1], cues=[]), "mentions[0]", "must be an object"
    ),
    "cues_list": (lambda p: p.update(cues=[]), "cues", "must be an object"),
    "cues_null": (lambda p: p.update(cues=None), "cues", "must be an object"),
    "cue_unknown": (_cues(zz=0.5, mood=0.5), "cues.mood", "unexpected field"),
    "cue_unknown_before_missing": (
        lambda p: p["cues"].pop("availability") and p["cues"].update(x=0),
        "cues.x", "unexpected field",
    ),
    "cue_missing": (
        _drop("availability", where=lambda p: p["cues"]), "cues.availability", "missing"
    ),
    "cue_missing_in_name_order": (
        _drop("availability", "prior_exposure", where=lambda p: p["cues"]),
        "cues.prior_exposure", "missing",
    ),
    "cue_value_before_later_missing": (
        lambda p: p["cues"].pop("availability") and p["cues"].update(domain_affinity="x"),
        "cues.domain_affinity", "must be a number",
    ),
    "cue_string": (_cues(stated_interest="1"), "cues.stated_interest", "must be a number"),
    "cue_null": (_cues(availability=None), "cues.availability", "must be a number"),
    "cue_bool": (_cues(prior_exposure=False), "cues.prior_exposure", "must be a number"),
    "cue_high": (_cues(stated_interest=2), "cues.stated_interest", "out of [0, 1]"),
    "cue_low": (_cues(domain_affinity=-1e-9), "cues.domain_affinity", "out of [0, 1]"),
    "cue_nan": (_cues(availability=float("nan")), "cues.availability", "out of [0, 1]"),
    "cue_huge_int": (
        _cues(volunteering_history=10**400), "cues.volunteering_history", "out of [0, 1]"
    ),
}


@pytest.mark.parametrize(
    "edit, path, reason", list(_VIOLATIONS.values()), ids=list(_VIOLATIONS)
)
def test_validator_reports_each_violation_by_path_and_reason(edit, path, reason):
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(_edited(edit), _doc("Knows CV well"), _CV)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {reason}" if path else reason)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(skills=[]),
        _mention(raw="cv"),
        _mention(evidence=[0, 13], proficiency=0),
        _mention(proficiency=1),
        _cues(domain_affinity=0, availability=1.0),
    ],
    ids=["no_skills", "raw_other_case", "whole_text_span", "integer_proficiency", "cue_ends"],
)
def test_validator_accepts_edge_values(edit):
    validate_extraction(_edited(edit), _doc("Knows CV well"), _CV)


# --- the published wire schema agrees with the validator ---------------------

_SCHEMA = json.loads(
    resources.files("swati.data").joinpath(f"extraction_schema_{SCHEMA_VERSION}.json")
    .read_text("utf-8")
)
# level -> (schema node, its object in a payload, the validator's path prefix)
_LEVELS = {
    "response": (_SCHEMA, lambda p: p, ""),
    "skill": (_SCHEMA["properties"]["skills"]["items"], lambda p: p["skills"][0], "mentions[0]."),
    "cues": (_SCHEMA["properties"]["cues"], lambda p: p["cues"], "cues."),
}
_NUMBERS = [
    (level, key)
    for level, (node, _, _) in _LEVELS.items()
    for key, prop in node["properties"].items()
    if prop.get("type") == "number"
]


def _rejected_path(payload):
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    return err.value.path


def test_schema_states_the_validators_key_sets_and_ranges():
    for node, _, _ in _LEVELS.values():
        assert node["additionalProperties"] is False
        assert sorted(node["required"]) == sorted(node["properties"])
    assert _LEVELS["cues"][0]["required"] == list(CUE_NAMES)
    assert _NUMBERS == [("skill", "proficiency"), *(("cues", name) for name in CUE_NAMES)]
    for level, key in _NUMBERS:
        prop = _LEVELS[level][0]["properties"][key]
        assert (prop["minimum"], prop["maximum"]) == (0, 1)


@pytest.mark.parametrize(
    "level, key",
    [(level, key) for level, (node, _, _) in _LEVELS.items() for key in node["required"]],
)
def test_validator_requires_each_schema_key(level, key):
    _, container, prefix = _LEVELS[level]
    payload = _valid_payload()
    del container(payload)[key]
    assert _rejected_path(payload) == prefix + key


@pytest.mark.parametrize("level", sorted(_LEVELS))
def test_validator_rejects_keys_the_schema_does_not_name(level):
    _, container, prefix = _LEVELS[level]
    payload = _valid_payload()
    container(payload)["bogus"] = 0.5
    assert _rejected_path(payload) == prefix + "bogus"


@pytest.mark.parametrize("level, key", _NUMBERS)
def test_validator_enforces_each_schema_range(level, key):
    node, container, prefix = _LEVELS[level]
    prop = node["properties"][key]
    for value in (prop["minimum"], prop["maximum"]):
        payload = _valid_payload()
        container(payload)[key] = value
        validate_extraction(payload, _doc("Knows CV well"), _CV)
    for value in (prop["minimum"] - 0.01, prop["maximum"] + 0.01):
        payload = _valid_payload()
        container(payload)[key] = value
        assert _rejected_path(payload) == prefix + key


# --- remote extractor -------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests.append(
            {
                "body": json.loads(self.rfile.read(length)),
                "auth": self.headers.get("Authorization"),
            }
        )
        reply = self.server.script.pop(0) if self.server.script else (200, {}, 0.0)
        if callable(reply):  # a reply that a (status, body, delay) triple cannot script
            reply(self)
            return
        status, body, delay = reply
        if delay:
            time.sleep(delay)
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _remote_cfg(server, **kwargs):
    return RemoteExtractorConfig(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/extract", **kwargs
    )


def test_remote_parses_valid_response(scripted_server):
    scripted_server.script.append((200, _valid_payload(), 0.0))
    doc = _doc("Knows CV well")
    result = extract_remote(doc, _remote_cfg(scripted_server, api_key="sekrit"), _CV)
    assert len(result.mentions) == 1
    sent = scripted_server.requests[0]
    assert sent["body"] == {"doc_id": "d1", "text": "Knows CV well", "schema_version": "v1"}
    assert sent["auth"] == "Bearer sekrit"


def test_remote_retries_then_succeeds(scripted_server):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    scripted_server.script.extend([(200, bad, 0.0), (200, _valid_payload(), 0.0)])
    result = extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV)
    assert len(result.mentions) == 1
    assert len(scripted_server.requests) == 2


def test_remote_schema_violation_after_retries(scripted_server):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    scripted_server.script.extend([(200, bad, 0.0)] * 3)
    with pytest.raises(SchemaViolationError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV)
    assert len(scripted_server.requests) == 3


@pytest.mark.parametrize("body", [b"not json", b"[" * 5000], ids=["garbage", "deep"])
def test_remote_unreadable_json_is_schema_violation(scripted_server, body):
    scripted_server.script.extend([(200, body, 0.0)] * 2)
    with pytest.raises(SchemaViolationError, match="not valid JSON"):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=1), _CV)
    assert len(scripted_server.requests) == 2


@pytest.mark.parametrize(
    "body, detail",
    [([1, 2], "response must be an object"), (b"not json", "response is not valid JSON")],
    ids=["list", "garbage"],
)
def test_remote_extract_names_no_path_for_the_whole_response(
    scripted_server, tmp_path, capsys, body, detail
):
    scripted_server.script.extend([(200, body, 0.0)] * 2)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "d1", "kind": "volunteer", "text": "Knows CV"}))
    remote = {"endpoint": _remote_cfg(scripted_server).endpoint, "retries": 1}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"extractor": {"kind": "remote", "remote": remote}}))
    argv = ["extract", "--config", str(config_path), "--corpus", str(corpus_path),
            "--out", str(tmp_path / "ex")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "SchemaViolationError", "detail": detail
    }
    assert len(scripted_server.requests) == 2
    assert not (tmp_path / "ex").exists()


def _count_resolutions(monkeypatch):
    """A list that gets one entry per ``Ontology.canonicalize_report`` call from now on."""
    calls, report = [], Ontology.canonicalize_report

    def counting(self, raws):
        calls.append(None)
        return report(self, raws)

    monkeypatch.setattr(Ontology, "canonicalize_report", counting)
    return calls


def _extract_records(tmp_path, texts, config=None):
    """``swati extract`` of a corpus of ``texts``, returning its extraction records."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"id": f"d{i}", "kind": "volunteer", "text": text}) + "\n"
        for i, text in enumerate(texts)
    ))
    argv = ["extract", "--corpus", str(corpus_path), "--out", str(tmp_path / "ex")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 0
    lines = (tmp_path / "ex" / "extraction.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_rule_based_extract_resolves_no_raw_again(tmp_path, monkeypatch):
    calls = _count_resolutions(monkeypatch)
    records = _extract_records(tmp_path, ["Knows CV well", "sql and java", "nothing here"])
    assert calls == []
    assert [(r["skills"], r["unresolved"]) for r in records] == [
        (["Computer Vision"], []), (["Java", "SQL"], []), ([], [])
    ]


def test_remote_extract_resolves_each_document_once(scripted_server, tmp_path, monkeypatch):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    well = {"raw": "well", "evidence": [9, 13], "proficiency": 0.5}
    answer = _valid_payload()
    answer["skills"].append(well)
    # the first document's first reply is retried; its second is resolved
    scripted_server.script.extend([(200, bad, 0.0)] + [(200, answer, 0.0)] * 3)
    calls = _count_resolutions(monkeypatch)
    remote = {"endpoint": _remote_cfg(scripted_server).endpoint, "retries": 1}
    config = {"extractor": {"kind": "remote", "remote": remote}}
    records = _extract_records(tmp_path, ["Knows CV well"] * 3, config)
    assert len(scripted_server.requests) == 4
    assert len(calls) == 3
    assert [(r["skills"], r["unresolved"]) for r in records] == [
        (["Computer Vision"], ["well"])
    ] * 3


def test_remote_bad_status_is_transport_error(scripted_server):
    # a 5xx on every try: retried, with backoff, until the budget is spent
    scripted_server.script.extend([(500, {}, 0.0)] * 3)
    waits = []
    with pytest.raises(TransportError, match="status 500"):
        extract_remote(
            _doc("Knows CV well"), _remote_cfg(scripted_server), _CV, sleep=waits.append
        )
    assert len(scripted_server.requests) == 3
    assert waits == [0.5, 1.0]


def test_remote_retries_a_5xx_then_succeeds(scripted_server):
    scripted_server.script.extend([(503, {}, 0.0), (200, _valid_payload(), 0.0)])
    waits = []
    result = extract_remote(
        _doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV, sleep=waits.append
    )
    assert len(result.mentions) == 1
    assert len(scripted_server.requests) == 2
    assert waits == [0.5]


def test_remote_5xx_backoff_is_bounded(scripted_server):
    scripted_server.script.extend([(502, {}, 0.0)] * 7)
    waits = []
    with pytest.raises(TransportError, match="status 502"):
        extract_remote(
            _doc("Knows CV well"), _remote_cfg(scripted_server, retries=6), _CV, sleep=waits.append
        )
    assert waits == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]


def test_remote_4xx_is_not_retried(scripted_server):
    scripted_server.script.extend([(400, {}, 0.0), (200, _valid_payload(), 0.0)])
    waits = []
    with pytest.raises(TransportError, match="status 400"):
        extract_remote(
            _doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV, sleep=waits.append
        )
    assert len(scripted_server.requests) == 1
    assert waits == []


def test_remote_schema_retry_does_not_wait(scripted_server):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    scripted_server.script.extend([(200, bad, 0.0), (200, _valid_payload(), 0.0)])
    waits = []
    extract_remote(
        _doc("Knows CV well"), _remote_cfg(scripted_server, retries=1), _CV, sleep=waits.append
    )
    assert waits == []


def test_remote_unreachable_endpoint():
    cfg = RemoteExtractorConfig(endpoint="http://127.0.0.1:1/extract", timeout=1.0)
    with pytest.raises(TransportError):
        extract_remote(_doc("Knows CV well"), cfg, _CV)


def test_remote_timeout(scripted_server):
    scripted_server.script.append((200, _valid_payload(), 0.8))
    with pytest.raises(RemoteTimeoutError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, timeout=0.15), _CV)


def _redirect(status):
    """A ``status`` reply whose ``Location`` is the endpoint itself."""

    def reply(handler):
        handler.send_response(status)
        handler.send_header("Location", _remote_cfg(handler.server).endpoint)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    return reply


@pytest.mark.parametrize("status", [301, 302, 307])
def test_remote_follows_no_redirect(scripted_server, status):
    scripted_server.script.extend([_redirect(status), (200, _valid_payload(), 0.0)])
    waits = []
    with pytest.raises(TransportError, match=f"^endpoint returned status {status}$"):
        extract_remote(
            _doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV, sleep=waits.append
        )
    assert len(scripted_server.requests) == 1
    assert waits == []


def test_remote_body_that_is_not_utf8_is_not_valid_json(scripted_server):
    # decoded leniently, the byte would be U+FFFD and the key "x\ufffd" an unknown field
    scripted_server.script.extend([(200, b'{"x\xff": 1}', 0.0)] * 2)
    with pytest.raises(SchemaViolationError, match="^response is not valid JSON$"):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=1), _CV)
    assert len(scripted_server.requests) == 2


def _partial_body(length, stall):
    """Headers for a ``length``-byte body, its first 10 bytes, then ``stall`` seconds of
    silence before the connection closes."""

    def reply(handler):
        handler.send_response(200)
        handler.send_header("Content-Length", str(length))
        handler.end_headers()
        handler.wfile.write(json.dumps(_valid_payload()).encode()[:10])
        time.sleep(stall)

    return reply


def test_remote_stall_partway_through_the_body_is_a_timeout(scripted_server):
    scripted_server.script.append(_partial_body(100, 0.8))
    with pytest.raises(RemoteTimeoutError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, timeout=0.15), _CV)
    assert len(scripted_server.requests) == 1


def test_remote_body_shorter_than_its_length_is_transport_error(scripted_server):
    scripted_server.script.extend([_partial_body(100, 0.0), (200, _valid_payload(), 0.0)])
    with pytest.raises(TransportError) as raised:
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=2), _CV)
    assert type(raised.value) is TransportError
    assert len(scripted_server.requests) == 1


# runs ``swati`` with ``requests`` made unimportable, then prints the exit
# code and the urllib3 modules loaded
NO_REQUESTS_PROBE = (
    "import sys\n"
    "sys.modules['requests'] = None\n"
    "import swati.cli\n"
    "code = swati.cli.main(sys.argv[1:])\n"
    "loaded = [m for m, mod in sys.modules.items() if mod and m.split('.')[0] == 'urllib3']\n"
    "print(code, loaded)\n"
)


def test_remote_extract_runs_without_requests(scripted_server, tmp_path):
    scripted_server.script.append((200, _valid_payload(), 0.0))
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "d1", "kind": "volunteer", "text": "Knows CV well"}))
    config_path = tmp_path / "config.json"
    remote = {"endpoint": _remote_cfg(scripted_server).endpoint, "api_key": "sekrit"}
    config_path.write_text(json.dumps({"extractor": {"kind": "remote", "remote": remote}}))
    env = dict(os.environ)
    src = str(Path(extraction.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("SWATI_REMOTE_API_KEY", None)
    argv = ["extract", "--config", str(config_path), "--corpus", str(corpus_path),
            "--out", str(tmp_path / "ex")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_REQUESTS_PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert scripted_server.requests[0]["auth"] == "Bearer sekrit"
    record = json.loads((tmp_path / "ex" / "extraction.jsonl").read_text())
    assert record["skills"] == ["Computer Vision"]


def test_remote_env_overrides():
    """Only the credential comes from the environment; limits are config keys."""
    base = RemoteExtractorConfig(endpoint="http://x/e", timeout=5.0, retries=1, api_key="file")
    cfg = RemoteExtractorConfig.from_env(
        base,
        {"SWATI_REMOTE_TIMEOUT": "9.5", "SWATI_REMOTE_RETRIES": "4", "SWATI_REMOTE_API_KEY": "k"},
    )
    assert (cfg.endpoint, cfg.timeout, cfg.retries, cfg.api_key) == ("http://x/e", 5.0, 1, "k")
    assert RemoteExtractorConfig.from_env(base, {}) == base


@pytest.mark.parametrize(
    "key", ["ключ", "a\r\nb", "two words"], ids=["cyrillic", "crlf", "space"]
)
def test_an_api_key_that_is_not_visible_ascii_is_refused_unechoed(key):
    base = RemoteExtractorConfig(endpoint="http://x/e")
    for make in (lambda: RemoteExtractorConfig(endpoint="http://x/e", api_key=key),
                 lambda: RemoteExtractorConfig.from_env(base, {"SWATI_REMOTE_API_KEY": key})):
        with pytest.raises(ConfigError, match="^extractor.remote api_key ") as raised:
            make()
        assert key not in str(raised.value)


@pytest.mark.parametrize("command", ["extract", "match"])
def test_an_api_key_from_the_environment_is_checked(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("SWATI_REMOTE_API_KEY", "ключ")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "d1", "kind": "volunteer", "text": "Knows CV"}))
    config_path = tmp_path / "config.json"
    remote = {"endpoint": "http://127.0.0.1:1/x"}
    config_path.write_text(json.dumps({"extractor": {"kind": "remote", "remote": remote}}))
    argv = [command, "--config", str(config_path), "--corpus", str(corpus_path),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert error["detail"].startswith("extractor.remote api_key ")
    assert "ключ" not in error["detail"]
    assert not (tmp_path / "out").exists()


def test_prompt_template_is_packaged():
    # the prompt is the contract handed to endpoint operators; the engine never reads it
    template = (
        resources.files("swati.data").joinpath(f"extraction_prompt_{SCHEMA_VERSION}.txt")
        .read_text("utf-8")
    )
    assert "{doc_id}" in template and "{text}" in template


# --- market construction ----------------------------------------------------


def _stub_market(ontology, volunteers, tasks, results):
    """``build_market`` over the documents, with ``results`` as their extraction."""
    corpus = Corpus(volunteers=tuple(volunteers), tasks=tuple(tasks))
    return build_market(corpus, ontology, extractor=lambda docs, _: results)


def _resolved(ontology, doc_id, mentions=(), cues=PreferenceCues()):
    """A stub extractor's result for ``doc_id``, its raws resolved through ``ontology``."""
    skills, unresolved = ontology.canonicalize_report(m.raw for m in mentions)
    return ExtractionResult(doc_id, tuple(mentions), cues, frozenset(skills), tuple(unresolved))


_SQL_TASK = _doc("needs sql", doc_id="t9", kind="task")
_SQL_TASK_RESULT = ExtractionResult(
    "t9", (SkillMention("sql", (6, 9), 0.5),), PreferenceCues(), frozenset({"SQL"}), ()
)


def test_build_market_canonicalizes_profiles(mini_ontology):
    doc = _doc("CV and cv again")
    ex = _resolved(
        mini_ontology,
        "d1",
        (SkillMention("CV", (0, 2), 0.5), SkillMention("cv", (7, 9), 0.5)),
        PreferenceCues(stated_interest=0.5),
    )
    referred = Document(id="d2", kind="volunteer", text="cv", meta={"history_ref": "h7"})
    # a result's skills are read as they are, not resolved again from its mentions
    unmentioned = ExtractionResult("d2", (), PreferenceCues(), frozenset({"SQL"}), ())
    market = _stub_market(mini_ontology, [doc, referred], [], [ex, unmentioned])
    profile = market.profiles[0]
    assert profile.skills == {"Computer Vision"}
    assert profile.cues.stated_interest == 0.5
    assert market.profiles[1].skills == {"SQL"}
    # a volunteer's history key is its document's history_ref, else its id
    assert [p.history_ref for p in market.profiles] == ["d1", "h7"]


def test_build_market_gives_foreign_text_an_empty_vector(mini_ontology):
    doc = _doc("日本語の テキスト")
    ex = _resolved(mini_ontology, "d1")
    market = _stub_market(mini_ontology, [doc], [_SQL_TASK], [ex, _SQL_TASK_RESULT])
    assert market.profiles[0].skills == frozenset()
    assert market.volunteer_vectors.offsets.tolist() == [0, 0]
    assert market.task_vectors.offsets.tolist() == [0, 2]


def test_build_market_rejects_mismatched_ids(mini_ontology):
    doc = _doc("anything")
    ex = _resolved(mini_ontology, "other")
    with pytest.raises(ValueError, match="extraction 'other' does not match document 'd1'"):
        _stub_market(mini_ontology, [doc], [_SQL_TASK], [ex, _SQL_TASK_RESULT])
    ex = _resolved(mini_ontology, "d1")
    with pytest.raises(ValueError, match="extraction 'd1' does not match document 't9'"):
        _stub_market(mini_ontology, [doc], [_SQL_TASK], [ex, ex])


def test_build_market_canonicalizes_tasks_as_profiles(mini_ontology):
    volunteer = _doc("sql", doc_id="v1")
    ex = _resolved(mini_ontology, "v1", (SkillMention("sql", (0, 3), 0.5),))
    market = _stub_market(mini_ontology, [volunteer], [_SQL_TASK], [ex, _SQL_TASK_RESULT])
    assert market.taskspecs[0].required_skills == {"SQL"} == market.profiles[0].skills


def test_build_market_round_trip(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=21, n_volunteers=6, n_tasks=4, **TEST_MARKET_SHAPE),
        builtin_ontology,
    )
    market = build_market(corpus, builtin_ontology)
    assert len(market.profiles) == 6 and len(market.taskspecs) == 4
    canonicals = {e.canonical for e in builtin_ontology.entries}
    for profile in market.profiles:
        assert profile.skills <= canonicals
        planted = set()
    for doc, profile in zip(corpus.volunteers, market.profiles):
        planted = set(doc.meta["planted_skills"].split("|"))
        assert profile.skills == planted


def test_build_market_calls_a_batch_extractor(mini_ontology):
    corpus = generate_synthetic(SyntheticConfig(seed=3, n_volunteers=4, n_tasks=3), mini_ontology)
    calls = []

    def extractor(docs, ontology):
        calls.append([doc.id for doc in docs])
        return [extract_corpus([doc], ontology)[0] for doc in docs]

    market = build_market(corpus, mini_ontology, extractor=extractor)
    assert calls == [[doc.id for doc in corpus.documents()]]
    default = build_market(corpus, mini_ontology)
    assert [(p.id, p.skills, p.cues) for p in market.profiles] == [
        (p.id, p.skills, p.cues) for p in default.profiles
    ]
    assert [(t.id, t.required_skills) for t in market.taskspecs] == [
        (t.id, t.required_skills) for t in default.taskspecs
    ]
    with pytest.raises(ValueError, match="returned 6 results for 7 documents"):
        build_market(corpus, mini_ontology, extractor=lambda docs, o: extractor(docs, o)[:-1])


# --- statistics -------------------------------------------------------------


def _stats_fixture():
    onto = Ontology([SkillEntry("A", ("a",)), SkillEntry("B", ("b",)), SkillEntry("C", ("c",))])

    def mentions(*raws):
        return [SkillMention(raw, (0, 1), 0.5) for raw in raws]

    return [
        _resolved(onto, "d1", mentions("a", "b", "A")),
        _resolved(onto, "d2", mentions("b", "c", "zz")),
    ]


def test_extraction_stats_arithmetic():
    # unresolved raws and repeated skills add nothing
    stats = extraction_stats(_stats_fixture())
    assert (stats.total_skills, stats.unique_vocabulary, stats.avg_per_doc) == (4, 3, 2)


def test_extraction_stats_empty():
    stats = extraction_stats([])
    assert (stats.total_skills, stats.unique_vocabulary, stats.avg_per_doc) == (0, 0, 0)


# --- equivalence with the span-by-span scan -----------------------------------

_OTHER_WORDS = [
    "expert", "Advanced", "proficient", "5+", "years", "12", "year", "5+ years",
    "3+years", "12 + Years", "2+ year", "worked", "the", "and", "hands-on-call",
]
# Letters whose lowercase is longer ('İ'), or another letter ('ẞ', the Kelvin
# sign), or that IGNORECASE matches to an ASCII letter ('ſ', 'ı').
_NON_ASCII = ["İ", "ẞ", "\u212a", "ſ", "ı"]
_PUNCT_TOKENS = ["--", ",", "(", ")", "...", "/", "&", "+", "-"]
_CUE_TERMS = sorted(
    {term for terms in _LEX["lexicons"].values() for term in terms}
    | set(_LEX["proficiency"]["expertise_terms"])
)


def _texts(ontology):
    """Texts of alias keys and their words, cue terms, other words and punctuation.

    Words get leading and trailing punctuation or non-ASCII letters and a case
    change; tokens are separated by mixed whitespace, some of which
    ``str.strip`` keeps.
    """
    keys = sorted(ontology.alias_index)
    words = sorted({word for key in keys for word in key.split()})
    word = st.tuples(
        st.sampled_from(["", "(", "\"", "--", "*", *_NON_ASCII]),
        st.sampled_from(keys)
        | st.sampled_from(words)
        | st.sampled_from(_OTHER_WORDS)
        | st.sampled_from(_CUE_TERMS),
        st.sampled_from(["", ",", ".", ")", ":", "...", "'s", *_NON_ASCII]),
        st.sampled_from([str, str.upper, str.title]),
    ).map(lambda t: t[0] + t[3](t[1]) + t[2])
    token = word | st.sampled_from(_PUNCT_TOKENS + _NON_ASCII)
    separator = st.sampled_from([" ", "  ", "\t", "\n", " \n ", "\u00a0", " \u3000 ", "\x1c"])
    return st.lists(st.tuples(token, separator), min_size=1, max_size=40).map(
        lambda parts: "".join(tok + sep for tok, sep in parts)
    )


@pytest.mark.parametrize("which", ["mini", "builtin"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rule_based_matches_span_by_span_scan(mini_ontology, builtin_ontology, which, data):
    ontology = mini_ontology if which == "mini" else builtin_ontology
    doc = Document("v1", "volunteer", data.draw(_texts(ontology)))
    assert extract_corpus([doc], ontology)[0] == ref.extract_rule_based(doc, ontology)


@pytest.mark.parametrize(
    "text",
    [
        "hands-on-call",  # both prior_exposure and availability count
        "HANDS-ON-CALL part-time, full-time\ton-call community \n service",
        "İexpert java",  # 'İ' is a word character; its lowercase ends in one that is not
        "expertİ java ſhipped ınterested wee\u212aends 5+ years",
        "java\u00a0--\u00a0yolo v8 \u00a0machine\u00a0learning",
    ],
)
def test_rule_based_matches_reference_on_overlaps_and_non_ascii(mini_ontology, text):
    doc = Document("v1", "volunteer", text)
    assert extract_corpus([doc], mini_ontology)[0] == ref.extract_rule_based(doc, mini_ontology)


# Phrase and alias halves for the start and the end of a document: a scan
# across documents would match an end and the next start joined, or let a
# match run on over the next document's punctuation-only tokens.
_FIRST_HALVES = [
    "service", "years", "+ years", "on-call", "time", "\x00years", "\x00 java",
    "learning", "v8", "-- learning", "--", ", ...", "",
]
_LAST_HALVES = [
    "community", "java 5+", "java 12 +", "java 5", "hands-", "part-", "x\x00", "java \x00",
    "machine", "yolo", "java --", "--", "",
]


def _corpus_texts(ontology, min_size=0):
    """Lists of texts from ``_texts`` or empty, with phrase halves at their ends."""

    def half(halves):
        return st.tuples(st.sampled_from(halves), st.sampled_from([str, str.upper])).map(
            lambda t: t[1](t[0])
        )

    text = st.tuples(
        half(_FIRST_HALVES),
        st.sampled_from(["", " ", "\n"]),
        _texts(ontology) | st.just(""),
        half(_LAST_HALVES),
    )
    return st.lists(text.map("".join), min_size=min_size, max_size=6)


@pytest.mark.parametrize("which", ["mini", "builtin"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_extract_corpus_matches_reference_per_document(
    mini_ontology, builtin_ontology, which, data
):
    ontology = mini_ontology if which == "mini" else builtin_ontology
    texts = data.draw(_corpus_texts(ontology))
    docs = [Document(f"d{i}", "volunteer", text) for i, text in enumerate(texts)]
    assert extract_corpus(docs, ontology) == [ref.extract_rule_based(d, ontology) for d in docs]


@pytest.mark.parametrize("chunk_chars", [1, 48])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extract_corpus_matches_reference_across_chunks(
    mini_ontology, builtin_ontology, chunk_chars, data
):
    # with chunks this small, documents are longer than a chunk and chunk
    # boundaries fall between any two documents
    ontology = data.draw(st.sampled_from([mini_ontology, builtin_ontology]))
    texts = data.draw(_corpus_texts(ontology))
    docs = [Document(f"d{i}", "volunteer", text) for i, text in enumerate(texts)]
    expected = [ref.extract_rule_based(d, ontology) for d in docs]
    with mock.patch.object(extraction, "_CHUNK_CHARS", chunk_chars):
        assert extract_corpus(docs, ontology) == expected


def _reference_market(corpus, ontology):
    """The market of ``extract_corpus``'s results, each document's raw skills resolved
    by ``canonicalize_report``, with the default vectorizer settings."""
    docs = corpus.documents()
    results = extract_corpus(docs, ontology)
    skills = [
        frozenset(ontology.canonicalize_report(m.raw for m in r.mentions)[0]) for r in results
    ]
    terms = count_terms((doc.text for doc in docs), VectorizerSettings())
    vectors = term_vectors(fit_vectorizer(terms, VectorizerSettings()), terms)
    n_volunteers = len(corpus.volunteers)
    return Market(
        profiles=tuple(
            Profile(doc.id, skills[i], results[i].cues, doc.meta.get("history_ref", doc.id))
            for i, doc in enumerate(corpus.volunteers)
        ),
        taskspecs=tuple(
            TaskSpec(doc.id, skills[n_volunteers + j]) for j, doc in enumerate(corpus.tasks)
        ),
        volunteer_vectors=vectors.rows(0, n_volunteers),
        task_vectors=vectors.rows(n_volunteers, len(docs)),
    )


def _rows_bytes(rows):
    return [rows.indices.tobytes(), rows.weights.tobytes(), rows.offsets.tobytes()]


@pytest.mark.parametrize("chunk_chars", [1, 48, extraction._CHUNK_CHARS])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_market_equals_the_market_of_resolved_extractions(
    mini_ontology, builtin_ontology, chunk_chars, data
):
    # volunteers and tasks interleave in file order, as load_corpus reads them;
    # the texts hold non-ASCII letters and alias and phrase halves at their ends
    ontology = data.draw(st.sampled_from([mini_ontology, builtin_ontology]))
    texts = data.draw(_corpus_texts(ontology, min_size=1))
    kinds = data.draw(
        st.lists(st.sampled_from(["volunteer", "task"]), min_size=len(texts), max_size=len(texts))
    )
    docs = [
        Document(f"d{i}", kind, text, {"history_ref": f"h{i}"} if i % 3 == 0 else {})
        for i, (kind, text) in enumerate(zip(kinds, texts))
    ]
    corpus = Corpus(
        volunteers=tuple(doc for doc in docs if doc.kind == "volunteer"),
        tasks=tuple(doc for doc in docs if doc.kind == "task"),
    )
    with mock.patch.object(extraction, "_CHUNK_CHARS", chunk_chars):
        market = build_market(corpus, ontology)
        expected = _reference_market(corpus, ontology)
    assert market.profiles == expected.profiles
    assert market.taskspecs == expected.taskspecs
    assert _rows_bytes(market.volunteer_vectors) == _rows_bytes(expected.volunteer_vectors)
    assert _rows_bytes(market.task_vectors) == _rows_bytes(expected.task_vectors)


def test_build_market_builds_no_mention_and_scans_no_task_for_cues(builtin_ontology, monkeypatch):
    corpus = generate_synthetic(
        SyntheticConfig(seed=5, n_volunteers=8, n_tasks=8, **TEST_MARKET_SHAPE),
        builtin_ontology,
    )
    mentions, buffers = [], []
    mention, phrase_matches = extraction.SkillMention, extraction._phrase_matches

    def record_mention(*args, **kwargs):
        mentions.append(args)
        return mention(*args, **kwargs)

    def record_buffer(buffer):
        buffers.append(buffer)
        return phrase_matches(buffer)

    monkeypatch.setattr(extraction, "SkillMention", record_mention)
    monkeypatch.setattr(extraction, "_phrase_matches", record_buffer)
    market = build_market(corpus, builtin_ontology)
    assert mentions == []
    scanned = "".join(buffers)
    assert all(doc.text.lower() in scanned for doc in corpus.volunteers)
    assert not any(doc.text.lower() in scanned for doc in corpus.tasks)
    # the reference's extract_corpus builds its mentions and scans every text
    # through the same recorders
    assert market.profiles == _reference_market(corpus, builtin_ontology).profiles
    assert mentions and all(doc.text.lower() in "".join(buffers) for doc in corpus.tasks)


def test_chunks_hold_whole_documents(monkeypatch):
    monkeypatch.setattr(extraction, "_CHUNK_CHARS", 10)
    texts = ["aaaa", "bbbb", "cc", "d" * 14, "\u0130", "\u00e9\u00e9", "e", "f", "g" * 10]
    texts.append("\u00e9" * 11)
    # texts of at most 10 characters in all or a longer text alone, and ASCII
    # and non-ASCII texts grouped apart
    assert list(_chunks(texts)) == [[0, 1, 2], [3], [6, 7], [4, 5], [8], [9]]
    assert list(_chunks([])) == []


# every character str.split splits at, and a lone surrogate
_SPACES = [chr(code) for code in range(0x110000) if chr(code).isspace()]


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters() | st.sampled_from([*_SPACES, "\ud800", "\u0130"])))
def test_space_kinds_marks_what_split_and_strip_see(text):
    expected = [0 if not c.isspace() else 1 if c in string.whitespace else 2 for c in text]
    assert _space_kinds(text).tolist() == expected


def test_extract_corpus_keeps_phrases_inside_documents(mini_ontology):
    texts = ["java community", "service 5+", "years expert", "İ 12+", "years on-call\x00"]
    # non-ASCII documents share a chunk: alias and phrase halves across them
    texts += ["İ machine", "learning ſ community", "service\u00a0yolo", "v8 İ"]
    docs = [Document(f"d{i}", "volunteer", text) for i, text in enumerate(texts)]
    results = extract_corpus(docs, mini_ontology)
    assert results == [ref.extract_rule_based(d, mini_ontology) for d in docs]
    assert [r.cues.volunteering_history for r in results] == [0.0] * 9
    assert results[0].mentions[0].proficiency == 0.5
    assert results[4].cues.availability == 0.25
    assert [r.mentions for r in results[5:7]] == [(), ()]
    assert [m.raw for r in results[7:] for m in r.mentions] == ["yolo"]  # not "yolo v8"


_ASCII_SPACES = [chr(code) for code in range(128) if re.match(r"\s", chr(code))]


@pytest.mark.parametrize(
    "terms",
    [_CUE_TERMS, ["a b", "c3po", "x", "9 lives", "q\tz", "de f", "gh"]],
    ids=["lexicons", "space-digit-single"],
)
def test_start_pairs_admit_every_term_start(terms):
    # the scan tries the regex only where the tables admit the first three characters
    first, after = _start_pairs(terms), _start_pairs(terms, offset=1)
    texts = []
    for term in terms:
        pattern = re.compile(re.escape(term).replace(r"\ ", r"\s+"))
        for space in _ASCII_SPACES:
            for run in (space, 2 * space):  # \s+ matches a run of whitespace
                texts.append(term.replace(" ", run) + "\x00\x00")
                assert pattern.match(texts[-1])
    years = re.compile(r"\d+\s*\+\s*years?")
    for space in _ASCII_SPACES:
        texts += [f"5+{space}years", f"12{space}+{space}year", f"3{space}{space}+years"]
        assert all(years.match(text) for text in texts[-3:])
    for text in texts:
        assert first[ord(text[0]), ord(text[1])], text
        assert after[ord(text[1]), ord(text[2])], text
    for digit in string.digits:  # "N+ years"
        assert first[ord(digit)].all()
    if terms is _CUE_TERMS:
        assert (first == _START_PAIRS).all()
        assert (after == _NEXT_PAIRS).all()


def test_phrase_terms_are_lowercase_ascii():
    # ASCII text is lowercased and matched case-sensitively, which counts the
    # same as IGNORECASE only for lowercase ASCII terms
    assert all(term.isascii() and term == term.lower() for term in _CUE_TERMS)


def test_punctuation_run_after_a_single_word_alias(mini_ontology):
    # "java" starts no multi-word alias, yet "java -- --" matches it and
    # consumes the punctuation, so "yolo v8" is matched whole afterwards
    doc = Document("v1", "volunteer", "java -- -- yolo v8 and\tJava,\n(ML)")
    result = extract_corpus([doc], mini_ontology)[0]
    assert [m.raw for m in result.mentions] == ["java", "yolo v8", "Java", "ML"]
    assert result == ref.extract_rule_based(doc, mini_ontology)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("I write java", [(8, 12, "Java")]),  # the match ends on the last token
        ("sql , -- ...", [(0, 3, "SQL")]),  # punctuation-only tokens follow the match
        ("nothing to see here", []),
        # not joinable (a no-break space), and the first candidate span is
        # multi-token, so every token's offsets are needed
        ("machine\u00a0learning then java and ml",
         [(0, 16, "Machine Learning"), (22, 26, "Java"), (31, 33, "Machine Learning")]),
    ],
)
def test_alias_offsets_found_only_where_needed(mini_ontology, text, expected):
    matches = _alias_matches(*_buffer([text]), mini_ontology)
    assert [(start, end, canonical) for _, start, end, canonical in matches] == expected
    assert ref.find_alias_mentions(text, mini_ontology) == expected
