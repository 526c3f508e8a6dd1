import json
import re
from pathlib import Path

import pytest

from swati.assignment import UtilityForm
from swati.config import DEFAULT_CONFIG, build_config, input_digest, load_config
from swati.errors import ConfigError


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
