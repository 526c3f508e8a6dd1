import hashlib
import json
import math

import pytest

from swati.cli import main
from swati.ledger import load_ledger


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


CONFIG_VALUE_ERRORS = {
    "willingness_center_nan": {"willingness": {"sigmoid_center": math.nan}},
    "cue_weight_nan": {"willingness": {"cue_weights": [math.nan, 0.25, 0.25, 0.25, 0.25]}},
    "willingness_gain_infinite": {"willingness": {"sigmoid_gain": math.inf}},
    "utility_weight_nan": {"utility": {"skill_weight": math.nan}},
    "remote_unknown_key": {"extractor": {"remote": {"endpoint": "http://localhost:9", "bogus": 1}}},
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
}


@pytest.mark.parametrize(
    "case",
    ["remote_retries_not_a_number", "capacities_file_not_json", "default_capacity_not_int",
     *CONFIG_VALUE_ERRORS],
)
def test_config_value_errors_are_machine_readable(tmp_path, capsys, monkeypatch, case):
    if case == "remote_retries_not_a_number":
        monkeypatch.setenv("SWATI_REMOTE_RETRIES", "abc")
        raw = {"extractor": {"remote": {"endpoint": "http://localhost:9"}}}
    elif case == "capacities_file_not_json":
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
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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


def test_verify_rejects_non_hex_head(tmp_path, capsys):
    gen = _gen(tmp_path)
    out = tmp_path / "match"
    main(["match", "--corpus", str(gen / "corpus.jsonl"), "--out", str(out)])
    capsys.readouterr()
    rc = main(["verify", str(out / "ledger.bin"), "--expect-head", "zz"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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
