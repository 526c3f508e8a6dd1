"""Engine configuration: one JSON file drives every command.

All tunables live here (similarity weights, willingness parameters,
capacities, extractor choice, synthetic-generation defaults) so a config file
plus explicit seeds fully determines a run. Referenced files must exist at
load time; numeric ranges are validated by the parameter dataclasses they
feed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .assignment import CapacityMap, UtilityForm, UtilityParams
from .errors import ConfigError, ParseError, parse_json
from .extraction import RemoteExtractorConfig
from .ontology import BUILTIN_ONTOLOGY, Ontology, load_ontology
from .similarity import VectorizerSettings
from .willingness import WillingnessParams

DEFAULT_CONFIG: dict = {
    "ontology": BUILTIN_ONTOLOGY,
    "vectorizer": {"min_token_len": 2, "use_stopwords": True},
    "willingness": {
        "history_weight": 0.5,
        "smoothing": 0.7,
        "cue_weights": [0.2, 0.2, 0.2, 0.2, 0.2],
        "sigmoid_gain": 4.0,
        "sigmoid_center": 0.5,
    },
    "utility": {"skill_weight": 0.5, "content_weight": 0.5, "form": "product"},
    "capacities": {"default": 1, "path": None},
    "extractor": {"kind": "rule", "remote": None},
    "history_path": None,
    "synthetic": {
        "seed": 0,
        "n_volunteers": 50,
        "n_tasks": 50,
        "skills_per_volunteer": [3, 5],
        "skills_per_task": [2, 4],
        "cue_density": 0.6,
    },
    "seeds": {"random_method": None},
}


@dataclass
class EngineConfig:
    raw: dict
    ontology_path: str
    vectorizer: VectorizerSettings
    willingness: WillingnessParams
    utility: UtilityParams
    capacities: CapacityMap
    extractor_kind: str
    remote: Optional[RemoteExtractorConfig]
    history_path: Optional[str]
    synthetic: dict
    random_method_seed: Optional[int]

    def load_ontology(self) -> Ontology:
        return load_ontology(self.ontology_path)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _read_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid UTF-8") from exc
    try:
        return parse_json(text)
    except ParseError as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc


def _require_file(path: Optional[str], what: str) -> None:
    # open() and os.path.exists() take an integer as a file descriptor
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"{what} path must be a string, got {path!r}")
    if path is not None and path != BUILTIN_ONTOLOGY and not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")


def build_config(raw: Optional[dict] = None) -> EngineConfig:
    raw = _merge(DEFAULT_CONFIG, raw or {})
    unknown = sorted(set(raw) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(raw[key], dict):
            raise ConfigError(f"config section {key!r} must be an object")

    if raw["ontology"] is None:
        raise ConfigError("ontology must name a file or builtin:cs")
    _require_file(raw["ontology"], "ontology")
    _require_file(raw["capacities"].get("path"), "capacities")
    _require_file(raw["history_path"], "history")

    try:
        vectorizer = VectorizerSettings(**raw["vectorizer"])
        will = dict(raw["willingness"])
        will["cue_weights"] = tuple(will.get("cue_weights", (0.2,) * 5))
        willingness = WillingnessParams(**will)
        utility = UtilityParams(
            skill_weight=raw["utility"]["skill_weight"],
            content_weight=raw["utility"]["content_weight"],
            form=UtilityForm(raw["utility"].get("form", "product")),
        )
        # a remote section that is not an object, or has unknown keys, is a TypeError
        remote = raw["extractor"].get("remote")
        remote = RemoteExtractorConfig(**remote) if remote else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    caps_raw = raw["capacities"]
    mapping = {}
    if caps_raw.get("path"):
        mapping = _read_json(caps_raw["path"], "capacities")
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, int) for k, v in mapping.items()
        ):
            raise ConfigError("capacities file must map volunteer ids to integers")
    capacities = CapacityMap(mapping, default=caps_raw.get("default", 1))

    extractor = raw["extractor"]
    kind = extractor.get("kind", "rule")
    if kind not in ("rule", "remote"):
        raise ConfigError(f"unknown extractor kind {kind!r}")
    if remote is not None:
        remote = RemoteExtractorConfig.from_env(remote, dict(os.environ))
    if kind == "remote" and remote is None:
        raise ConfigError("extractor.kind is 'remote' but extractor.remote is not set")

    return EngineConfig(
        raw=raw,
        ontology_path=raw["ontology"],
        vectorizer=vectorizer,
        willingness=willingness,
        utility=utility,
        capacities=capacities,
        extractor_kind=kind,
        remote=remote,
        history_path=raw["history_path"],
        synthetic=raw["synthetic"],
        random_method_seed=raw["seeds"].get("random_method"),
    )


def load_config(path: Optional[str]) -> EngineConfig:
    """Read a config file; ``None`` loads the built-in defaults."""
    if path is None:
        return build_config()
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return build_config(raw)


def input_digest(path: str) -> str:
    """SHA-256 of an input file, or of the packaged ontology for builtin refs."""
    if path == BUILTIN_ONTOLOGY:
        data = resources.files("swati.data").joinpath("ontology_cs.jsonl").read_bytes()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()
