import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from swati.assignment import UtilityForm
from swati.cli import main
from swati.config import DEFAULT_CONFIG, build_config, input_digest, load_config
from swati.errors import ConfigError

from conftest import json_values


def test_defaults_load():
    cfg = load_config(None)
    assert cfg.ontology_path == "builtin:cs"
    assert cfg.utility.form is UtilityForm.PRODUCT
    assert cfg.capacities.get("anyone") == 1
    assert cfg.extractor_kind == "rule"


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    configs = [b for b in blocks if isinstance(b, dict) and "willingness" in b]
    assert len(configs) == 1
    dump = json.dumps(configs[0], sort_keys=True)
    assert dump == json.dumps(DEFAULT_CONFIG, sort_keys=True)


def test_partial_override_merges(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"willingness": {"smoothing": 0.2}}))
    cfg = load_config(str(path))
    assert cfg.willingness.smoothing == 0.2
    assert cfg.willingness.history_weight == 0.5  # untouched default


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        build_config({"nonsense": 1})


def test_missing_ontology_file_rejected():
    with pytest.raises(ConfigError):
        build_config({"ontology": "/nonexistent/onto.jsonl"})


def test_missing_history_file_rejected():
    with pytest.raises(ConfigError):
        build_config({"history_path": "/nonexistent/h.jsonl"})


def test_capacities_file(tmp_path):
    caps_path = tmp_path / "caps.json"
    caps_path.write_text(json.dumps({"v1": 3}))
    cfg = build_config({"capacities": {"default": 2, "path": str(caps_path)}})
    assert cfg.capacities.get("v1") == 3
    assert cfg.capacities.get("v2") == 2


def test_capacities_file_type_checked(tmp_path):
    caps_path = tmp_path / "caps.json"
    caps_path.write_text(json.dumps({"v1": "three"}))
    with pytest.raises(ConfigError):
        build_config({"capacities": {"path": str(caps_path)}})


def test_remote_kind_requires_remote_settings():
    with pytest.raises(ConfigError):
        build_config({"extractor": {"kind": "remote"}})


def test_remote_env_override_applied(tmp_path, monkeypatch):
    monkeypatch.setenv("SWATI_REMOTE_API_KEY", "from-env")
    cfg = build_config(
        {"extractor": {"kind": "remote", "remote": {"endpoint": "http://x/e"}}}
    )
    assert cfg.remote.api_key == "from-env"


def test_bad_numeric_params_rejected():
    with pytest.raises(ConfigError):
        build_config({"willingness": {"smoothing": 1.5}})
    with pytest.raises(ConfigError):
        build_config({"utility": {"skill_weight": 0.7, "content_weight": 0.7}})
    with pytest.raises(ConfigError):
        build_config({"utility": {"form": "mystery"}})


def test_config_digest_stable(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"willingness": {"smoothing": 0.2}}))
    assert load_config(str(path)).digest() == load_config(str(path)).digest()
    assert load_config(str(path)).digest() != load_config(None).digest()


def test_input_digest_builtin_and_file(tmp_path):
    builtin = input_digest("builtin:cs")
    assert len(builtin) == 64
    path = tmp_path / "f.txt"
    path.write_text("hello")
    assert input_digest(str(path)) != builtin


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


_PATHS = {"ontology", "capacities.path", "history_path"}
_LEAVES = sorted(set(_leaves(DEFAULT_CONFIG)) - _PATHS)
_BIG = 10**400  # beyond the float range, below json's 4,300-digit limit
_PROBES = (True, False, "x", [], {}, None, math.nan, math.inf, -math.inf, _BIG)
# values besides the probes that a leaf must refuse
_REFUSED = {"vectorizer.min_token_len": (0, -3)}
# the probes each leaf accepts; every other probe must be refused
_ACCEPTED = {
    "vectorizer.use_stopwords": (True, False),
    "extractor.remote": ({}, None),
    "seeds.random_method": (None, _BIG),
    "capacities.default": (_BIG,),
    "synthetic.seed": (_BIG,),
    "synthetic.n_volunteers": (_BIG,),
    "synthetic.n_tasks": (_BIG,),
}


def test_leaf_tables_name_config_leaves():
    assert set(_ACCEPTED) | set(_REFUSED) < set(_LEAVES)


@pytest.fixture(scope="module")
def match_inputs(tmp_path_factory):
    """A two-document corpus and a one-record history for ``swati match``."""
    root = tmp_path_factory.mktemp("leaves")
    corpus = [{"id": "v1", "kind": "volunteer", "text": "python sql, eager to help"},
              {"id": "t1", "kind": "task", "text": "python work"}]
    (root / "corpus.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in corpus))
    history = {"volunteer_id": "v1", "task_skills": ["Python"], "accepted": True}
    (root / "history.jsonl").write_text(json.dumps(history) + "\n")
    return root


def _with_every_probe(test):
    for value in (*_PROBES, *(v for values in _REFUSED.values() for v in values)):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("leaf", _LEAVES)
@settings(max_examples=20, deadline=None)
@_with_every_probe
@given(value=json_values)
def test_every_config_leaf_is_checked_at_load(match_inputs, leaf, value):
    """``swati match`` runs, or refuses the value with the leaf's ``section.key``, writing nothing.

    A probe's or a ``_REFUSED`` value's outcome is known; a drawn value may go either way.
    """
    section, _, key = leaf.partition(".")
    raw = {"history_path": str(match_inputs / "history.jsonl"), section: {key: value}}
    workdir = Path(tempfile.mkdtemp(dir=match_inputs))
    (workdir / "config.json").write_text(json.dumps(raw))
    out = workdir / "match"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["match", "--config", str(workdir / "config.json"),
                   "--corpus", str(match_inputs / "corpus.jsonl"), "--out", str(out)])
    # values are compared as JSON, so that 1 is not taken for true nor 0 for false
    text = json.dumps(value)
    known = text in map(json.dumps, (*_PROBES, *_REFUSED.get(leaf, ())))
    if known:
        accepted = text in map(json.dumps, _ACCEPTED.get(leaf, ()))
        assert rc == (0 if accepted else 2), err.getvalue()
    if rc == 0:
        assert (out / "manifest.json").exists()
        return
    assert rc == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert leaf in error["detail"]
    assert not out.exists()
