import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swati.corpus import Document, SyntheticConfig, generate_synthetic
from swati.errors import (
    RemoteTimeoutError,
    SchemaViolationError,
    TransportError,
    VectorizerNotFittedError,
)
from swati.extraction import (
    _LEX,
    ExtractionResult,
    PreferenceCues,
    RemoteExtractorConfig,
    SkillMention,
    build_market,
    build_profile,
    build_taskspec,
    extract_remote,
    extract_rule_based,
    extraction_stats,
    load_prompt_template,
    validate_extraction,
)
from swati.ontology import Ontology, SkillEntry
from swati.similarity import fit_vectorizer

import python_reference as ref
from swati.corpus import Corpus


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
    result = extract_rule_based(doc, mini_ontology)
    assert len(result.mentions) == 2
    cv = result.mentions[0]
    assert cv.raw == "computer vision"
    assert doc.text[cv.evidence[0] : cv.evidence[1]] == "computer vision"
    assert cv.proficiency == pytest.approx(0.8)


def test_years_pattern_boosts_proficiency(mini_ontology):
    result = extract_rule_based(_doc("5+ years with SQL"), mini_ontology)
    assert result.mentions[0].proficiency == pytest.approx(0.7)
    # below the 3-year threshold the bonus does not apply
    result = extract_rule_based(_doc("2+ years with SQL"), mini_ontology)
    assert result.mentions[0].proficiency == pytest.approx(0.5)


def test_expertise_outside_window_ignored(mini_ontology):
    filler = "x" * 60
    result = extract_rule_based(_doc(f"Expert. {filler} sql"), mini_ontology)
    assert result.mentions[0].proficiency == pytest.approx(0.5)


def test_proficiency_capped_at_one(mini_ontology):
    result = extract_rule_based(_doc("Expert, proficient, 10+ years of SQL"), mini_ontology)
    assert result.mentions[0].proficiency == 1.0


def test_empty_text_yields_nothing(mini_ontology):
    result = extract_rule_based(_doc(""), mini_ontology)
    assert result.mentions == ()
    assert result.cues == PreferenceCues()


def test_repeated_skill_yields_two_mentions(mini_ontology):
    result = extract_rule_based(
        _doc("Computer Vision here, computer vision there"), mini_ontology
    )
    assert len(result.mentions) == 2


def test_whole_token_matching_no_substrings(mini_ontology):
    result = extract_rule_based(_doc("javascript work"), mini_ontology)
    assert result.mentions == ()  # 'Java' must not fire inside 'javascript'


def test_longest_match_wins():
    onto = Ontology([SkillEntry("Data", ("data",)), SkillEntry("Data Structures", ())])
    result = extract_rule_based(_doc("knows data structures"), onto)
    assert [onto.resolve(m.raw) for m in result.mentions] == ["Data Structures"]


def test_punctuation_bounded_aliases(mini_ontology):
    result = extract_rule_based(_doc("Toolkit: SQL, CV."), mini_ontology)
    raws = [m.raw for m in result.mentions]
    assert raws == ["SQL", "CV"]


def test_interest_cue_counting(mini_ontology):
    result = extract_rule_based(_doc("I enjoy this work and am passionate"), mini_ontology)
    assert result.cues.stated_interest == pytest.approx(0.5)
    many = "passionate interested eager keen curious love"
    result = extract_rule_based(_doc(many), mini_ontology)
    assert result.cues.stated_interest == 1.0


def test_domain_affinity_dominant_root(mini_ontology):
    result = extract_rule_based(_doc("cv and object recognition plus sql"), mini_ontology)
    assert result.cues.domain_affinity == pytest.approx(2 / 3)


def test_extraction_deterministic(mini_ontology):
    doc = _doc("Expert in computer vision using YOLOv8, available on weekends")
    assert extract_rule_based(doc, mini_ontology) == extract_rule_based(doc, mini_ontology)


def test_rule_based_outputs_pass_validator(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=13, n_volunteers=10, n_tasks=6), builtin_ontology
    )
    for doc in corpus.documents():
        result = extract_rule_based(doc, builtin_ontology)
        assert validate_extraction(_wire(result), doc) == result


# --- schema validation ------------------------------------------------------


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
    result = validate_extraction(_valid_payload(), doc)
    assert result.mentions == (SkillMention(raw="CV", evidence=(6, 8), proficiency=0.7),)
    assert result.cues.stated_interest == 1.0


def test_validator_rejects_uncited_evidence():
    payload = _valid_payload()
    payload["skills"][0]["raw"] = "SQL"
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"))
    assert err.value.path == "mentions[0].evidence"


def test_validator_rejects_span_past_end():
    payload = _valid_payload()
    payload["skills"][0]["evidence"] = [6, 999]
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"))
    assert err.value.path == "mentions[0].evidence"


def test_validator_rejects_out_of_range_proficiency():
    payload = _valid_payload()
    payload["skills"][0]["proficiency"] = 1.4
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"))
    assert err.value.path == "mentions[0].proficiency"


def test_validator_rejects_missing_cue():
    payload = _valid_payload()
    del payload["cues"]["availability"]
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"))
    assert err.value.path == "cues.availability"


def test_validator_rejects_unknown_fields():
    payload = _valid_payload()
    payload["confidence"] = 0.9
    with pytest.raises(SchemaViolationError) as err:
        validate_extraction(payload, _doc("Knows CV well"))
    assert err.value.path == "confidence"


def test_validator_rejects_non_object():
    with pytest.raises(SchemaViolationError):
        validate_extraction([1, 2], _doc("Knows CV well"))


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
        status, body, delay = (
            self.server.script.pop(0) if self.server.script else (200, {}, 0.0)
        )
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
    result = extract_remote(doc, _remote_cfg(scripted_server, api_key="sekrit"))
    assert len(result.mentions) == 1
    sent = scripted_server.requests[0]
    assert sent["body"] == {"doc_id": "d1", "text": "Knows CV well", "schema_version": "v1"}
    assert sent["auth"] == "Bearer sekrit"


def test_remote_retries_then_succeeds(scripted_server):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    scripted_server.script.extend([(200, bad, 0.0), (200, _valid_payload(), 0.0)])
    result = extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=2))
    assert len(result.mentions) == 1
    assert len(scripted_server.requests) == 2


def test_remote_schema_violation_after_retries(scripted_server):
    bad = _valid_payload()
    bad["skills"][0]["proficiency"] = 1.4
    scripted_server.script.extend([(200, bad, 0.0)] * 3)
    with pytest.raises(SchemaViolationError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=2))
    assert len(scripted_server.requests) == 3


@pytest.mark.parametrize("body", [b"not json", b"[" * 5000], ids=["garbage", "deep"])
def test_remote_unreadable_json_is_schema_violation(scripted_server, body):
    scripted_server.script.extend([(200, body, 0.0)] * 2)
    with pytest.raises(SchemaViolationError, match="not valid JSON"):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, retries=1))
    assert len(scripted_server.requests) == 2


def test_remote_bad_status_is_transport_error(scripted_server):
    scripted_server.script.append((500, {}, 0.0))
    with pytest.raises(TransportError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server))


def test_remote_unreachable_endpoint():
    cfg = RemoteExtractorConfig(endpoint="http://127.0.0.1:1/extract", timeout=1.0)
    with pytest.raises(TransportError):
        extract_remote(_doc("Knows CV well"), cfg)


def test_remote_timeout(scripted_server):
    scripted_server.script.append((200, _valid_payload(), 0.8))
    with pytest.raises(RemoteTimeoutError):
        extract_remote(_doc("Knows CV well"), _remote_cfg(scripted_server, timeout=0.15))


def test_remote_env_overrides():
    base = RemoteExtractorConfig(endpoint="http://x/e", timeout=5.0, retries=1)
    cfg = RemoteExtractorConfig.from_env(
        base,
        {"SWATI_REMOTE_TIMEOUT": "9.5", "SWATI_REMOTE_RETRIES": "4", "SWATI_REMOTE_API_KEY": "k"},
    )
    assert (cfg.timeout, cfg.retries, cfg.api_key) == (9.5, 4, "k")


def test_prompt_template_is_packaged():
    template = load_prompt_template()
    assert "{doc_id}" in template and "{text}" in template


# --- profile construction ---------------------------------------------------


def _fitted_vectorizer():
    corpus = Corpus(
        volunteers=(Document(id="v1", kind="volunteer", text="apple banana sql"),),
        tasks=(Document(id="t1", kind="task", text="banana cherry"),),
    )
    return fit_vectorizer(corpus)


def test_build_profile_canonicalizes(mini_ontology):
    doc = _doc("CV and cv again")
    ex = ExtractionResult(
        doc_id="d1",
        mentions=(
            SkillMention("CV", (0, 2), 0.5),
            SkillMention("cv", (7, 9), 0.5),
        ),
        cues=PreferenceCues(stated_interest=0.5),
    )
    profile = build_profile(doc, ex, mini_ontology, _fitted_vectorizer())
    assert profile.skills == {"Computer Vision"}
    assert profile.cues.stated_interest == 0.5


def test_build_profile_empty_for_foreign_text(mini_ontology):
    doc = _doc("zzz qqq")
    ex = ExtractionResult(doc_id="d1", mentions=(), cues=PreferenceCues())
    profile = build_profile(doc, ex, mini_ontology, _fitted_vectorizer())
    assert profile.skills == frozenset()
    assert profile.content_vector.is_empty()


def test_build_profile_requires_vectorizer(mini_ontology):
    doc = _doc("anything")
    ex = ExtractionResult(doc_id="d1", mentions=(), cues=PreferenceCues())
    with pytest.raises(VectorizerNotFittedError):
        build_profile(doc, ex, mini_ontology, None)


def test_build_profile_rejects_mismatched_ids(mini_ontology):
    doc = _doc("anything")
    ex = ExtractionResult(doc_id="other", mentions=(), cues=PreferenceCues())
    with pytest.raises(ValueError):
        build_profile(doc, ex, mini_ontology, _fitted_vectorizer())


def test_build_taskspec_symmetric(mini_ontology):
    doc = _doc("needs sql", doc_id="t9", kind="task")
    ex = ExtractionResult(
        doc_id="t9", mentions=(SkillMention("sql", (6, 9), 0.5),), cues=PreferenceCues()
    )
    spec = build_taskspec(doc, ex, mini_ontology, _fitted_vectorizer())
    assert spec.required_skills == {"SQL"}


def test_build_market_round_trip(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=21, n_volunteers=6, n_tasks=4), builtin_ontology
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


# --- statistics -------------------------------------------------------------


def _stats_fixture():
    onto = Ontology([SkillEntry("A", ("a",)), SkillEntry("B", ("b",)), SkillEntry("C", ("c",))])
    r1 = ExtractionResult(
        doc_id="d1",
        mentions=(SkillMention("a", (0, 1), 0.5), SkillMention("b", (2, 3), 0.5)),
        cues=PreferenceCues(),
    )
    r2 = ExtractionResult(
        doc_id="d2",
        mentions=(SkillMention("b", (0, 1), 0.5), SkillMention("c", (2, 3), 0.5)),
        cues=PreferenceCues(),
    )
    return onto, [r1, r2]


def test_extraction_stats_arithmetic():
    onto, results = _stats_fixture()
    stats = extraction_stats(results, onto)
    assert (stats.total_skills, stats.unique_vocabulary, stats.avg_per_doc) == (4, 3, 2)


def test_extraction_stats_empty():
    onto, _ = _stats_fixture()
    stats = extraction_stats([], onto)
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
    assert extract_rule_based(doc, ontology) == ref.extract_rule_based(doc, ontology)


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
    assert extract_rule_based(doc, mini_ontology) == ref.extract_rule_based(doc, mini_ontology)


def test_phrase_terms_are_lowercase_ascii():
    # ASCII text is lowercased and matched case-sensitively, which counts the
    # same as IGNORECASE only for lowercase ASCII terms
    assert all(term.isascii() and term == term.lower() for term in _CUE_TERMS)


def test_punctuation_run_after_a_single_word_alias(mini_ontology):
    # "java" starts no multi-word alias, yet "java -- --" matches it and
    # consumes the punctuation, so "yolo v8" is matched whole afterwards
    doc = Document("v1", "volunteer", "java -- -- yolo v8 and\tJava,\n(ML)")
    result = extract_rule_based(doc, mini_ontology)
    assert [m.raw for m in result.mentions] == ["java", "yolo v8", "Java", "ML"]
    assert result == ref.extract_rule_based(doc, mini_ontology)
