import atexit
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import swati
from swati import cli
from swati.cli import main
from swati.corpus import (
    SyntheticConfig,
    generate_synthetic,
    generate_synthetic_history,
    save_corpus,
    save_history,
)
from swati.ledger import Ledger, load_ledger, save_ledger


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path, seed=4, n_volunteers=12, n_tasks=8):
    out = tmp_path / f"gen{seed}"
    rc = main(
        [
            "gen",
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--n-volunteers",
            str(n_volunteers),
            "--n-tasks",
            str(n_tasks),
        ]
    )
    assert rc == 0
    return out


def test_gen_writes_corpus_history_manifest(tmp_path, capsys):
    out = _gen(tmp_path)
    assert (out / "corpus.jsonl").exists()
    assert (out / "history.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seeds"] == {"synthetic": 4}
    assert manifest["stats"]["n_volunteers"] == 12
    assert "ontology" in manifest["input_digests"]
    assert "wrote 12 volunteers" in capsys.readouterr().out


def test_gen_is_bit_reproducible(tmp_path):
    a = _gen(tmp_path, seed=9)
    b_dir = tmp_path / "again"
    rc = main(
        ["gen", "--out", str(b_dir), "--seed", "9", "--n-volunteers", "12", "--n-tasks", "8"]
    )
    assert rc == 0
    assert _sha(a / "corpus.jsonl") == _sha(b_dir / "corpus.jsonl")
    assert _sha(a / "history.jsonl") == _sha(b_dir / "history.jsonl")
    assert _sha(a / "manifest.json") != ""  # exists and hashable


@pytest.mark.parametrize(
    "counts",
    [{}, {"seed": 1, "n_volunteers": 30, "n_tasks": 24}],
    ids=["no_flags", "seed1_30x24"],
)
def test_gen_builds_the_library_default_market(tmp_path, builtin_ontology, counts):
    """``swati gen`` with the default config and ``SyntheticConfig``'s defaults agree."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in counts.items()]
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), *flags]) == 0
    cfg = SyntheticConfig(**counts)
    corpus = generate_synthetic(cfg, builtin_ontology)
    save_corpus(corpus, str(tmp_path / "corpus.jsonl"))
    history = generate_synthetic_history(cfg, corpus, builtin_ontology)
    save_history(history, str(tmp_path / "history.jsonl"))
    for name in ("corpus.jsonl", "history.jsonl"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_extract_outputs(tmp_path):
    gen = _gen(tmp_path)
    out = tmp_path / "ex"
    rc = main(["extract", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)])
    assert rc == 0
    lines = (out / "extraction.jsonl").read_text().splitlines()
    assert len(lines) == 20  # 12 volunteers + 8 tasks
    first = json.loads(lines[0])
    assert set(first) == {"doc_id", "kind", "skills", "unresolved", "mentions", "cues"}
    stats = json.loads((out / "extraction_stats.json").read_text())
    assert stats["total_skills"] > 0
    assert stats["unique_vocabulary"] > 0


def test_match_deterministic_artifacts(tmp_path):
    gen = _gen(tmp_path)
    config = {"history_path": str(gen / "history.jsonl")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = []
    for run in range(2):
        out = tmp_path / f"match{run}"
        rc = main(
            [
                "match",
                "--config",
                str(config_path),
                "--corpus",
                str(gen / "corpus.jsonl"),
                "--method",
                "swati",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        digests.append(
            (
                _sha(out / "assignment.jsonl"),
                _sha(out / "ledger.bin"),
                _sha(out / "quality.csv"),
                _sha(out / "manifest.json"),
            )
        )
    assert digests[0] == digests[1]


def test_match_ledger_is_valid_and_complete(tmp_path):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        ["match", "--corpus", str(gen / "corpus.jsonl"), "--method", "swati", "--out", str(out)]
    )
    assert rc == 0
    ledger = load_ledger(str(out / "ledger.bin"))
    posted = [r for r in ledger.records if r.event == "Posted"]
    assigned = [r for r in ledger.records if r.event == "Assigned"]
    assert len(posted) == 8
    assert 0 < len(assigned) <= 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ledger_head"] == ledger.head().hex()
    rc = main(["verify", str(out / "ledger.bin")])
    assert rc == 0


@pytest.mark.parametrize("where", ["default", "file"])
def test_match_clamps_a_capacity_beyond_the_task_count(tmp_path, where):
    """A capacity too large for a C long assigns exactly as the task count does."""
    gen = _gen(tmp_path, n_volunteers=6, n_tasks=9)
    corpus = gen / "corpus.jsonl"
    first = json.loads(corpus.read_text().splitlines()[0])["id"]
    assignments = []
    for cap in (10**20, 9):
        run = tmp_path / f"cap{cap}"
        run.mkdir()
        caps = {"default": cap}
        if where == "file":
            (run / "caps.json").write_text(json.dumps({first: cap}))
            caps = {"path": str(run / "caps.json")}
        (run / "config.json").write_text(json.dumps({"capacities": caps}))
        rc = main(
            ["match", "--config", str(run / "config.json"), "--corpus", str(corpus),
             "--method", "swati", "--out", str(run / "out")]
        )
        assert rc == 0
        assignments.append((run / "out" / "assignment.jsonl").read_text())
    assert assignments[0] == assignments[1]
    if where == "default":  # six volunteers with room for every task cover all nine
        assert len(assignments[0].splitlines()) == 9


@pytest.mark.parametrize("method", ["swati", "skill", "random"])
def test_match_leaves_tasks_uncovered_when_capacity_is_scarce(tmp_path, method):
    """Six volunteers of capacity 1 cover six of ten tasks; the other four stay only Posted."""
    gen = _gen(tmp_path, seed=1, n_volunteers=6, n_tasks=10)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"capacities": {"default": 1}}))
    out = tmp_path / "match"
    seed = ["--seed", "1"] if method == "random" else []
    rc = main(
        ["match", "--config", str(config_path), "--corpus", str(gen / "corpus.jsonl"),
         "--method", method, *seed, "--out", str(out)]
    )
    assert rc == 0
    header, row = (out / "quality.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert (report["method"], report["coverage"], report["pairs"]) == (method, "0.600000", "6")
    rows = [json.loads(line) for line in (out / "assignment.jsonl").read_text().splitlines()]
    covered = {r["task_id"] for r in rows}
    assert len(rows) == len(covered) == 6
    records = load_ledger(str(out / "ledger.bin")).records
    assert Counter(record.event for record in records) == {"Posted": 10, "Assigned": 6}
    events = {}
    for record in records:
        events.setdefault(record.task_id, []).append(record.event)
    uncovered = set(events) - covered
    assert len(uncovered) == 4
    assert all(events[task] == ["Posted"] for task in uncovered)
    assert main(["verify", str(out / "ledger.bin")]) == 0


def test_match_random_requires_seed(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        ["match", "--corpus", str(gen / "corpus.jsonl"), "--method", "random", "--out", str(out)]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "seed" in err["detail"]


def test_match_random_rejects_non_integer_config_seed(tmp_path, capsys):
    gen = _gen(tmp_path)
    capsys.readouterr()
    config_path = tmp_path / "config.json"
    # Python seeds a float by its hash, and NaN hashes differently on every run
    config_path.write_text(json.dumps({"seeds": {"random_method": math.nan}}))
    rc = main(
        ["match", "--config", str(config_path), "--corpus", str(gen / "corpus.jsonl"),
         "--method", "random", "--out", str(tmp_path / "match")]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "seed" in err["detail"]


def test_match_random_with_seed(tmp_path):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        [
            "match",
            "--corpus",
            str(gen / "corpus.jsonl"),
            "--method",
            "random",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0


def test_match_epochs_flag(tmp_path):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        [
            "match",
            "--corpus",
            str(gen / "corpus.jsonl"),
            "--epochs",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    record = json.loads((out / "assignment.jsonl").read_text().splitlines()[0])
    assert set(record["components"]) == {"skill", "content", "willingness"}


def test_verify_detects_tampering(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    main(["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)])
    capsys.readouterr()
    blob = bytearray((out / "ledger.bin").read_bytes())
    blob[150] ^= 0xFF
    (out / "ledger.bin").write_bytes(bytes(blob))
    rc = main(["verify", str(out / "ledger.bin")])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert verdict["ok"] is False
    assert verdict["reason"] in {"hash mismatch", "link broken"}


def test_strict_mode_rejects_unknown_fields(tmp_path, capsys):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(
        json.dumps({"id": "v1", "kind": "volunteer", "text": "alpha", "x": 1}) + "\n"
    )
    out = tmp_path / "ex"
    rc = main(["extract", "--corpus", str(corpus_path), "--out", str(out), "--strict"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_bad_config_is_machine_readable_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"utility": {"skill_weight": 0.9, "content_weight": 0.9}}))
    out = tmp_path / "gen"
    rc = main(["gen", "--config", str(config_path), "--out", str(out), "--seed", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


REFUSED_ENDPOINTS = {
    "file": "file:///etc/hostname",
    "data": "data:,x",
    "ftp": "ftp://127.0.0.1/x",
    "no_scheme": "notaurl",
    "no_host": "http:///x",
    "open_bracket": "http://[::1/x",
    "non_ascii_path": "http://127.0.0.1:9/ключ",
    "non_ascii_host": "http://ключ.example/x",
    "user_info": "http://user:pw@127.0.0.1:9/x",
    "percent_host": "http://%41/x",
    "empty_label": "http://a..b/x",
}

CONFIG_VALUE_ERRORS = {
    "willingness_center_nan": {"willingness": {"sigmoid_center": math.nan}},
    "cue_weight_nan": {"willingness": {"cue_weights": [math.nan, 0.25, 0.25, 0.25, 0.25]}},
    "willingness_gain_infinite": {"willingness": {"sigmoid_gain": math.inf}},
    "utility_weight_nan": {"utility": {"skill_weight": math.nan}},
    "remote_unknown_key": {"extractor": {"remote": {"endpoint": "http://localhost:9", "bogus": 1}}},
    "remote_unknown_keys": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "zeta": 1, "alpha": 2}}
    },
    "remote_max_in_flight": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "max_in_flight": 4}}
    },
    "remote_not_an_object": {"extractor": {"remote": "http://localhost:9"}},
    "remote_negative_timeout": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "timeout": -1}}
    },
    "remote_negative_retries": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "retries": -1}}
    },
    "remote_retries_not_a_number": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "retries": "abc"}}
    },
    # requests carry the one schema version the validator implements
    "remote_schema_version": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "schema_version": "v2"}}
    },
    # each of these once got past load_config, or was reported as a TypeError
    "remote_no_endpoint": {"extractor": {"remote": {"timeout": 3}}},
    "remote_endpoint_number": {"extractor": {"remote": {"endpoint": 3}}},
    "remote_endpoint_empty": {"extractor": {"remote": {"endpoint": ""}}},
    "remote_endpoint_null": {"extractor": {"remote": {"endpoint": None, "retries": 1}}},
    "remote_api_key_number": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "api_key": 5}}
    },
    # each of these once reached the HTTP client; urllib would open the file
    # or the data URL, look the credentials up as a host name, or end in a
    # traceback
    **{
        f"remote_endpoint_{name}": {"extractor": {"remote": {"endpoint": endpoint}}}
        for name, endpoint in REFUSED_ENDPOINTS.items()
    },
    # socket.settimeout overflows above about 9.2e9 s
    "remote_timeout_overflow": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "timeout": 1e10}}
    },
    # a header value is latin-1 and one line; the key is never echoed
    "remote_api_key_not_ascii": {
        "extractor": {"remote": {"endpoint": "http://localhost:9", "api_key": "ключ"}}
    },
    # each of these once ended `swati match` in a traceback (see MATCH_TRACEBACKS)
    "willingness_logistic_overflow": {"willingness": {"sigmoid_gain": 2000}},
    "tokenizer_repeat_overflow": {"vectorizer": {"min_token_len": 100000000000}},
    "utility_weights_above_one": {
        "utility": {"skill_weight": 0.5000000000005, "content_weight": 0.5}
    },
}

# the remote section is named like every other config section
REMOTE_SECTION_DETAILS = {
    "remote_unknown_key": "unknown keys ['bogus'] in config section 'extractor.remote'",
    "remote_unknown_keys": "unknown keys ['alpha', 'zeta'] in config section 'extractor.remote'",
    "remote_max_in_flight": (
        "unknown keys ['max_in_flight'] in config section 'extractor.remote'"
    ),
    "remote_not_an_object": "config section 'extractor.remote' must be an object",
    "remote_schema_version": (
        "unknown keys ['schema_version'] in config section 'extractor.remote'"
    ),
    "remote_no_endpoint": "extractor.remote endpoint must be a URL string, got None",
    "remote_endpoint_number": "extractor.remote endpoint must be a URL string, got 3",
    "remote_endpoint_empty": "extractor.remote endpoint must be a URL string, got ''",
    "remote_endpoint_null": "extractor.remote endpoint must be a URL string, got None",
    "remote_api_key_number": "extractor.remote api_key must be a string, got 5",
    **dict.fromkeys(
        (f"remote_endpoint_{name}" for name in REFUSED_ENDPOINTS),
        "extractor.remote endpoint must be an http or https URL of visible ASCII,"
        " with a host and no user information",
    ),
    "remote_timeout_overflow": (
        "extractor.remote.timeout must be a finite number in [-inf, 1000000000.0],"
        " got 10000000000.0"
    ),
    "remote_api_key_not_ascii": "extractor.remote api_key must be visible ASCII (0x21-0x7E)",
}


@pytest.mark.parametrize(
    "case", ["capacities_file_not_json", "default_capacity_not_int", *CONFIG_VALUE_ERRORS]
)
def test_config_value_errors_are_machine_readable(tmp_path, capsys, case):
    if case == "capacities_file_not_json":
        caps_path = tmp_path / "caps.json"
        caps_path.write_text("{not json")
        raw = {"capacities": {"path": str(caps_path)}}
    elif case == "default_capacity_not_int":
        raw = {"capacities": {"default": "x"}}
    else:
        # json writes NaN and Infinity, which Python's json reads back
        raw = CONFIG_VALUE_ERRORS[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    rc = main(["gen", "--config", str(config_path), "--out", str(tmp_path / "gen"), "--seed", "1"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert not (tmp_path / "gen").exists()
    if case in REMOTE_SECTION_DETAILS:
        assert err["detail"] == REMOTE_SECTION_DETAILS[case]


_HELLO = [{"id": "v1", "kind": "volunteer", "text": "hello there"},
          {"id": "t1", "kind": "task", "text": "python work"}]
_KEEN = "python sql passionate excited curious eager love keen"
_TWINS = [{"id": "v1", "kind": "volunteer", "text": _KEEN},
          {"id": "t1", "kind": "task", "text": _KEEN}]
_DECLINED = [{"volunteer_id": "v1", "task_skills": ["Python"], "accepted": False}]
_SHARP = {"sigmoid_gain": 200, "sigmoid_center": 0.0, "history_weight": 0.0}

# (corpus, history, other config) on which a CONFIG_VALUE_ERRORS case ended
# `swati match` in a traceback: math.exp overflowed in the logistic, the
# tokenizer pattern could not be compiled, and a utility came out above 1
MATCH_TRACEBACKS = {
    "willingness_logistic_overflow": (_HELLO, _DECLINED, {}),
    "tokenizer_repeat_overflow": (_HELLO, None, {}),
    "utility_weights_above_one": (_TWINS, None, {"willingness": _SHARP}),
}
# the same markets at the largest values each rule accepts
MATCH_BOUNDARIES = {
    "willingness_logistic_overflow": (_HELLO, _DECLINED, {"willingness": {"sigmoid_gain": 1400}}),
    "utility_weights_above_one": (
        _TWINS, None,
        {"utility": {"skill_weight": 0.5, "content_weight": 0.5}, "willingness": _SHARP},
    ),
}


def _match_inputs(tmp_path, corpus, history, config):
    """The ``swati match`` arguments for these inputs, written under ``tmp_path``."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(doc) + "\n" for doc in corpus))
    if history is not None:
        history_path = tmp_path / "history.jsonl"
        history_path.write_text("".join(json.dumps(row) + "\n" for row in history))
        config = {**config, "history_path": str(history_path)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return ["match", "--config", str(config_path), "--corpus", str(corpus_path),
            "--out", str(tmp_path / "match")]


@pytest.mark.parametrize("case", sorted(MATCH_TRACEBACKS))
def test_match_rejects_config_values_that_once_raised(tmp_path, capsys, case):
    corpus, history, config = MATCH_TRACEBACKS[case]
    config = {**config, **CONFIG_VALUE_ERRORS[case]}
    assert main(_match_inputs(tmp_path, corpus, history, config)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "match").exists()


@pytest.mark.parametrize("case", sorted(MATCH_BOUNDARIES))
def test_match_runs_at_the_largest_accepted_values(tmp_path, case):
    assert main(_match_inputs(tmp_path, *MATCH_BOUNDARIES[case])) == 0
    assert (tmp_path / "match" / "manifest.json").exists()


MALFORMED_SECTIONS = {
    "vectorizer": 1,
    "willingness_empty_list": [],
    "willingness_pairs": [["smoothing", 0.1]],
    "utility": "product",
    "capacities": 1,
    "extractor": "rule",
    "synthetic": 1,
    "seeds": 1,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SECTIONS))
def test_config_sections_must_be_objects(tmp_path, capsys, case):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({case.split("_")[0]: MALFORMED_SECTIONS[case]}))
    rc = main(["gen", "--config", str(config_path), "--out", str(tmp_path / "gen"), "--seed", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "must be an object" in err["detail"]
    assert not (tmp_path / "gen").exists()


MISSPELT_KEYS = {
    "utility": {"skil_weight": 0.5},
    "seeds": {"random_metod": 3},
    "capacities": {"defualt": 2},
    "extractor": {"knd": "rule"},
    "synthetic": {"n_volunters": 3},
}


@pytest.mark.parametrize("section", sorted(MISSPELT_KEYS))
def test_unknown_keys_in_a_config_section_are_rejected(tmp_path, capsys, section):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: MISSPELT_KEYS[section]}))
    rc = main(["gen", "--config", str(config_path), "--out", str(tmp_path / "gen"), "--seed", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert repr(next(iter(MISSPELT_KEYS[section]))) in err["detail"]
    assert repr(section) in err["detail"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize(
    "raw",
    [{"ontology": 1}, {"ontology": None}, {"history_path": 2}, {"capacities": {"path": 1}}],
    ids=["ontology_fd", "ontology_null", "history_fd", "capacities_fd"],
)
def test_config_paths_must_be_strings(tmp_path, capsys, raw):
    # an integer path would be read as an open file descriptor
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    rc = main(["gen", "--config", str(config_path), "--out", str(tmp_path / "gen"), "--seed", "1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("blob", [b"SWLG", b"SWLG\x00"], ids=["magic_only", "half_version"])
def test_verify_rejects_a_truncated_header(tmp_path, capsys, blob):
    path = tmp_path / "ledger.bin"
    path.write_bytes(blob)
    rc = main(["verify", str(path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "truncated" in err["detail"]


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--sizes", "4,8", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "timing.csv").exists()
    assert (out / "quality.csv").exists()
    assert (out / "cdf_4.csv").exists()
    assert (out / "cdf_8.csv").exists()
    header = (out / "cdf_4.csv").read_text().splitlines()[0]
    assert header == "threshold,swati,skill,random"


def test_bench_requires_seed(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--sizes", "4", "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_bench_rejects_malformed_sizes(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--sizes", "4,huge", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_match_rejects_zero_epochs(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        ["match", "--corpus", str(gen / "corpus.jsonl"), "--epochs", "0", "--out", str(out)]
    )
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_match_labels_the_last_u64_epoch(tmp_path):
    # --epochs 2^64 labels its assignment 2^64 - 1, the ledger field's largest
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    args = ["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)]
    assert main([*args, "--epochs", str(1 << 64)]) == 0
    ledger = load_ledger(str(out / "ledger.bin"))
    assert {record.epoch for record in ledger.records} == {(1 << 64) - 1}


def test_match_rejects_an_epoch_label_past_u64_before_writing(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        [
            "match", "--corpus", str(gen / "corpus.jsonl"),
            "--epochs", str((1 << 64) + 1), "--out", str(out),
        ]
    )
    assert rc == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {
        "error": "ConfigError",
        "detail": f"--epochs must lie in [1, 2^64], got {(1 << 64) + 1}",
    }
    assert not out.exists()


def test_custom_config_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"utility": {"form": "split"}, "willingness": {"smoothing": 0.4}})
    )
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    rc = main(
        [
            "match",
            "--config",
            str(config_path),
            "--corpus",
            str(gen / "corpus.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0


# "" is what an unset shell variable passes; it must not skip the head check
@pytest.mark.parametrize(
    "head", ["zz", "", "00", "0" * 66, "0" * 62 + " 0"], ids=["zz", "empty", "00", "66", "space"]
)
def test_verify_rejects_a_head_that_is_not_64_hex_digits(tmp_path, capsys, head):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    main(["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)])
    capsys.readouterr()
    rc = main(["verify", str(out / "ledger.bin"), "--expect-head", head])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert capsys.readouterr().out == ""


def test_verify_pins_the_head_it_is_given(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    main(["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)])
    capsys.readouterr()
    ledger_path = str(out / "ledger.bin")
    assert main(["verify", ledger_path]) == 0
    head = json.loads(capsys.readouterr().out)["head"]
    assert main(["verify", ledger_path, "--expect-head", head.upper()]) == 0
    capsys.readouterr()
    short = str(tmp_path / "short.bin")
    save_ledger(Ledger(load_ledger(ledger_path).records[:-1]), short)
    assert main(["verify", short, "--expect-head", head]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "head mismatch"


@pytest.mark.parametrize(
    "vectorizer",
    [{"min_token_len": "x"}, {"use_stopwords": "no"}],
    ids=["min_token_len", "use_stopwords"],
)
def test_vectorizer_settings_are_type_checked(tmp_path, capsys, vectorizer):
    gen = _gen(tmp_path)
    capsys.readouterr()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"vectorizer": vectorizer}))
    rc = main(
        ["match", "--config", str(config_path), "--corpus", str(gen / "corpus.jsonl"),
         "--out", str(tmp_path / "match")]
    )
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("flag", ["--n-volunteers", "--n-tasks"])
def test_gen_rejects_zero_counts(tmp_path, capsys, flag):
    out = tmp_path / "gen"
    rc = main(["gen", "--out", str(out), "--seed", "1", flag, "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (out / "corpus.jsonl").exists()


BAD_SYNTHETIC = {
    "range_int": {"skills_per_volunteer": 3},
    "range_three": {"skills_per_task": [1, 2, 3]},
    "range_strings": {"skills_per_volunteer": ["a", "b"]},
    "range_float": {"skills_per_task": [1.5, 2]},
    "count_string": {"n_volunteers": "5"},
    "count_float": {"n_tasks": 2.5},
    "count_bool": {"n_volunteers": True},
    "seed_string": {"seed": "x"},
    "seed_float": {"seed": 1.5},
    "cue_density_string": {"cue_density": "high"},
}


@pytest.mark.parametrize("case", sorted(BAD_SYNTHETIC))
def test_synthetic_values_are_type_checked(tmp_path, capsys, case):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"synthetic": BAD_SYNTHETIC[case]}))
    out = tmp_path / "gen"
    rc = main(["gen", "--config", str(config_path), "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_gen_rejects_an_ontology_alias_in_a_generator_template(tmp_path, capsys):
    builtin = resources.files("swati.data").joinpath("ontology_cs.jsonl").read_text("utf-8")
    onto = tmp_path / "onto.jsonl"
    onto.write_text(builtin + json.dumps({"canonical": "Theming", "aliases": ["theme"]}) + "\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"ontology": str(onto)}))
    out = tmp_path / "gen"
    rc = main(["gen", "--config", str(config_path), "--out", str(out), "--seed", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "ontology alias 'theme' collides with generator template" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "which, error",
    [("config", "ConfigError"), ("corpus", "ParseError"), ("history", "ParseError"),
     ("ontology", "ParseError")],
)
def test_non_utf8_inputs_are_machine_readable(tmp_path, capsys, which, error):
    gen = _gen(tmp_path)
    capsys.readouterr()
    bad = tmp_path / f"{which}.bin"
    bad.write_bytes(b"\xff\xfe{}\n")
    corpus = bad if which == "corpus" else gen / "corpus.jsonl"
    config = {"history_path": str(bad if which == "history" else gen / "history.jsonl")}
    if which == "ontology":
        config["ontology"] = str(bad)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    if which == "config":
        config_path = bad
    rc = main(
        ["match", "--config", str(config_path), "--corpus", str(corpus),
         "--out", str(tmp_path / "match")]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert str(bad) in err["detail"]


# --- the collector freeze at interpreter exit ----------------------------------

MATCH_ARTIFACTS = ("assignment.jsonl", "quality.csv", "ledger.bin", "ledger.txt", "manifest.json")

# Registered before ``main`` registers its hook; atexit runs callbacks last in,
# first out, so this one runs after the hook and sees what it left.
EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "import swati.cli\n"
    "sys.exit(swati.cli.main(sys.argv[1:]))\n"
)


def _python(tmp_path, *args):
    env = dict(os.environ)
    src = str(Path(swati.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )


def _match_args(gen, config_path, out):
    return ["match", "--config", str(config_path), "--corpus", str(gen / "corpus.jsonl"),
            "--out", str(out)]


def _history_config(tmp_path, gen):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"history_path": str(gen / "history.jsonl")}))
    return config_path


def test_main_registers_the_exit_freeze_once(tmp_path):
    # an earlier test in this process may have registered it already
    atexit.unregister(gc.freeze)
    cli._freeze_gc_at_exit.cache_clear()
    before = atexit._ncallbacks()
    _gen(tmp_path, seed=1)
    _gen(tmp_path, seed=2)
    assert atexit._ncallbacks() == before + 1


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # a known state, so a change left by an earlier call of main shows too
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(500, 7, 9)
    try:
        gen = _gen(tmp_path)
        assert main(_match_args(gen, _history_config(tmp_path, gen), tmp_path / "match")) == 0
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()
        assert gc.get_threshold() == (500, 7, 9)
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()


def test_importing_the_cli_registers_no_exit_callback(tmp_path):
    proc = _python(
        tmp_path, "-c",
        "import atexit; n = atexit._ncallbacks(); import swati.cli; "
        "print(atexit._ncallbacks() - n)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_a_command_exits_with_the_collector_frozen(tmp_path):
    gen = _gen(tmp_path)
    config_path = _history_config(tmp_path, gen)
    assert main(_match_args(gen, config_path, tmp_path / "in_process")) == 0
    proc = _python(tmp_path, "-c", EXIT_PROBE, *_match_args(gen, config_path, tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("swati: total=")
    assert proc.stderr == "True\n"
    for artifact in MATCH_ARTIFACTS:
        assert _sha(tmp_path / "child" / artifact) == _sha(tmp_path / "in_process" / artifact)


def test_a_bad_config_still_exits_2_with_one_json_line(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"utility": {"skill_weight": 0.9, "content_weight": 0.9}}))
    proc = _python(
        tmp_path, "-c", EXIT_PROBE, "gen", "--config", str(config_path), "--out", "gen"
    )
    assert proc.returncode == 2
    error, frozen = proc.stderr.splitlines()
    assert json.loads(error)["error"] == "ConfigError"
    assert frozen == "True"
    assert proc.stdout == ""


# --- SHA-256 without OpenSSL ---------------------------------------------------

# hashlib maps OpenSSL's libcrypto through ``_hashlib``; pytest has loaded it in
# this process already, so each check runs in a fresh interpreter
OPENSSL_MODULES = ("_hashlib", "ssl", "urllib.request")
PRINT_LOADED = f"print([m for m in {OPENSSL_MODULES!r} if m in sys.modules])\n"

SCORE_PROBE = (
    "import sys\n"
    "from swati import CapacityMap, UtilityParams, WillingnessParams, load_builtin_ontology\n"
    "from swati.assignment import assignment_digest, match_market\n"
    "from swati.corpus import SyntheticConfig, generate_synthetic, generate_synthetic_history\n"
    "from swati.extraction import build_market\n"
    "from swati.willingness import histories_from_records\n"
    "ontology = load_builtin_ontology()\n"
    "cfg = SyntheticConfig(seed=3, n_volunteers=30, n_tasks=20)\n"
    "corpus = generate_synthetic(cfg, ontology)\n"
    "histories = histories_from_records(generate_synthetic_history(cfg, corpus, ontology))\n"
    "result = match_market(build_market(corpus, ontology), histories, CapacityMap(),\n"
    "                      UtilityParams(), WillingnessParams(), epochs=2)\n"
    "print('_hashlib' in sys.modules)\n"
    "assignment_digest(result.assignments['swati'])\n"
    "print('_hashlib' in sys.modules)\n"
)

# runs ``swati`` with its arguments, then prints which OpenSSL modules are loaded
CLI_PROBE = (
    "import sys, swati.cli\n"
    "code = swati.cli.main(sys.argv[1:])\n"
    f"{PRINT_LOADED}"
    "sys.exit(code)\n"
)


def test_importing_the_cli_loads_no_openssl(tmp_path):
    proc = _python(tmp_path, "-c", f"import sys, swati.cli\n{PRINT_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_scoring_a_market_with_history_loads_no_openssl(tmp_path):
    proc = _python(tmp_path, "-c", SCORE_PROBE)
    assert proc.returncode == 0, proc.stderr
    # the built-in SHA-256 needs no libcrypto, so hashing loads none either
    assert proc.stdout == "False\nFalse\n"


def test_match_and_verify_load_no_openssl(tmp_path):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    args = _match_args(gen, _history_config(tmp_path, gen), out)
    proc = _python(tmp_path, "-c", CLI_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    summary, loaded = proc.stdout.splitlines()
    assert summary.startswith("swati: total=")
    assert loaded == "[]"
    proc = _python(tmp_path, "-c", CLI_PROBE, "verify", str(out / "ledger.bin"))
    assert proc.returncode == 0, proc.stderr
    verdict, loaded = proc.stdout.splitlines()
    assert json.loads(verdict)["ok"] is True
    assert loaded == "[]"


def _match_with_sha256(tmp_path, gen, name, setup=""):
    """Run ``match`` after ``setup``; (is ``sha256`` hashlib's, ledger head)."""
    probe = (
        f"import sys, hashlib\n{setup}"
        "import swati.cli\n"
        "from swati.assignment import sha256\n"
        "print(sha256 is hashlib.sha256)\n"
        "sys.exit(swati.cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / name
    proc = _python(tmp_path, "-c", probe, *_match_args(gen, _history_config(tmp_path, gen), out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[0], load_ledger(str(out / "ledger.bin")).head()


def test_sha256_falls_back_to_hashlib_without_the_built_in_hashes(tmp_path):
    gen = _gen(tmp_path)
    builtin, builtin_head = _match_with_sha256(tmp_path, gen, "builtin")
    # a None entry in sys.modules makes the import raise, as on a build without them
    blocked = "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    fallback, fallback_head = _match_with_sha256(tmp_path, gen, "fallback", blocked)
    assert (builtin, fallback) == ("False", "True")
    assert fallback_head == builtin_head
