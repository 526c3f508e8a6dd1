"""Hypothesis fuzz of the input loaders.

Arbitrary bytes, arbitrary JSON lines, or a valid input with some bytes cut or
changed must either load or raise an ``EngineError``; anything else would end
the CLI in a traceback instead of its JSON error (exit 2).
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swati.cli import main
from swati.corpus import Document, load_corpus
from swati.errors import EngineError
from swati.extraction import validate_extraction
from swati.ledger import load_ledger
from swati.willingness import load_history

from conftest import json_values



def _records(fields):
    """Objects with some of the loader's fields, each a typical value or any JSON.

    ``fields`` maps each field name to a few typical values, valid or nearly
    so; every field is present in about half of the objects.
    """
    values = {name: st.sampled_from(typical) | json_values for name, typical in fields.items()}
    return (
        st.fixed_dictionaries(values)
        | st.fixed_dictionaries({}, optional=values)
        | st.dictionaries(st.text(max_size=6), json_values, max_size=3)
    )


def _jsonl(records):
    line = st.one_of(
        records.map(json.dumps),
        json_values.map(json.dumps),
        st.text(max_size=20),
        st.sampled_from(["", "{", "1" * 5000, "[" * 5000, "\x1c", "NaN"]),
    )
    return st.lists(line, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8"))


def _loads_or_engine_error(load, path, data):
    path.write_bytes(data)
    try:
        load(str(path))
    except EngineError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_CORPUS_RECORDS = _records(
    {
        "id": ["v1", "t1"],
        "kind": ["volunteer", "task", "other"],
        "text": ["java and sql", ""],
        "meta": [{"a": "b"}, {"a": 1}],
    }
)
_HISTORY_RECORDS = _records(
    {"volunteer_id": ["v1"], "task_skills": [["Java"], [1]], "accepted": [True, 1]}
)


@pytest.mark.filterwarnings("ignore:line .* ignoring unknown fields")
@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200) | _jsonl(_CORPUS_RECORDS))
def test_load_corpus_parses_or_raises_engine_error(workdir, strict, data):
    _loads_or_engine_error(lambda p: load_corpus(p, strict=strict), workdir / "corpus.jsonl", data)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200) | _jsonl(_HISTORY_RECORDS))
@example(data=b"1" * 5000)
@example(data=b"[" * 5000)
def test_load_history_parses_or_raises_engine_error(workdir, data):
    _loads_or_engine_error(load_history, workdir / "history.jsonl", data)


@pytest.fixture(scope="module")
def ledger_bytes(tmp_path_factory):
    """A real ledger: a small ``swati match`` run's ``ledger.bin``."""
    root = tmp_path_factory.mktemp("ledger")
    gen = root / "gen"
    assert main(["gen", "--out", str(gen), "--seed", "3", "--n-volunteers", "4",
                 "--n-tasks", "3"]) == 0
    assert main(["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(root / "m")]) == 0
    return (root / "m" / "ledger.bin").read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    cut=st.integers(min_value=0, max_value=10_000),
    edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=3),
)
def test_load_ledger_parses_or_raises_engine_error(workdir, ledger_bytes, data, cut, edits):
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=200) | st.binary(max_size=40).map(b"SWLG".__add__))
    else:
        # a real ledger, truncated and with a few bytes overwritten
        blob = bytearray(ledger_bytes[: cut % (len(ledger_bytes) + 1)])
        for position, value in edits:
            if blob:
                blob[position % len(blob)] = value
        blob = bytes(blob)
    _loads_or_engine_error(load_ledger, workdir / "ledger.bin", blob)


_CUES_IN_RANGE = dict.fromkeys(
    ["domain_affinity", "prior_exposure", "stated_interest", "volunteering_history",
     "availability"],
    0.5,
)
_MENTIONS = _records(
    {
        "raw": ["java", "JAVA", "sql", ""],
        "evidence": [[0, 4], [9, 12], [0, 10**400], [4, 2], [True, 4]],
        "proficiency": [0.5, 1, 10**400, float("nan"), True],
    }
)
_CUES = _records(
    {name: [0.5, 0, 10**400, float("inf"), float("nan"), "0.5"] for name in _CUES_IN_RANGE}
)
_RESPONSES = json_values | _records(
    {"skills": [[]], "cues": [{}]}
) | st.fixed_dictionaries({"skills": st.lists(_MENTIONS, max_size=3), "cues": _CUES})


@settings(max_examples=300, deadline=None)
@given(response=_RESPONSES)
@example(response={"skills": [{"raw": "java", "evidence": [0, 4], "proficiency": 10**400}],
                   "cues": _CUES_IN_RANGE})
@example(response={"skills": [], "cues": {**_CUES_IN_RANGE, "availability": 10**400}})
def test_validate_extraction_accepts_or_raises_engine_error(builtin_ontology, response):
    doc = Document("d1", "volunteer", "java and sql")
    try:
        validate_extraction(response, doc, builtin_ontology)
    except EngineError:
        pass
