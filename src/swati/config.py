"""Engine configuration: one JSON file drives every command.

All tunables are read here (similarity weights, willingness parameters,
capacities, extractor choice, synthetic-generation defaults) so a config file
plus explicit seeds fully determines a run. A section's defaults are those of
the parameter class it feeds, which also validates its values. Referenced
files must exist at load time.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from importlib import resources
from typing import Optional

from .assignment import CapacityMap, UtilityParams, sha256
from .corpus import SyntheticConfig
from .errors import ConfigError, ParseError, integer, parse_json
from .extraction import RemoteExtractorConfig
from .ontology import BUILTIN_ONTOLOGY, Ontology, load_ontology
from .similarity import VectorizerSettings
from .willingness import WillingnessParams

# Each section a parameter class reads takes that class's own defaults.
DEFAULT_CONFIG: dict = {
    "ontology": BUILTIN_ONTOLOGY,
    "vectorizer": asdict(VectorizerSettings()),
    "willingness": asdict(WillingnessParams()),
    "utility": {**asdict(UtilityParams()), "form": UtilityParams().form.value},
    "capacities": {"default": CapacityMap().default, "path": None},
    "extractor": {"kind": "rule", "remote": None},
    "history_path": None,
    # the generator's vocabulary is the config's ontology
    "synthetic": {
        key: value
        for key, value in asdict(SyntheticConfig()).items()
        if key != "vocabulary_ref"
    },
    "seeds": {"random_method": None},
}


@dataclass
class EngineConfig:
    """A validated engine config: the raw JSON and the parameter objects built from it."""

    raw: dict
    ontology_path: str
    vectorizer: VectorizerSettings
    willingness: WillingnessParams
    utility: UtilityParams
    capacities: CapacityMap
    extractor_kind: str
    remote: Optional[RemoteExtractorConfig]
    history_path: Optional[str]
    synthetic: SyntheticConfig
    random_method_seed: Optional[int]

    def load_ontology(self) -> Ontology:
        return load_ontology(self.ontology_path)

    def digest(self) -> str:
        return sha256(
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


def _check_section(section, name: str, keys) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in config section {name!r}")


def build_config(raw: Optional[dict] = None) -> EngineConfig:
    raw = _merge(DEFAULT_CONFIG, raw or {})
    unknown = sorted(set(raw) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict):
            _check_section(raw[key], key, default)
    remote = raw["extractor"]["remote"]
    if remote is not None:
        _check_section(
            remote, "extractor.remote", [f.name for f in fields(RemoteExtractorConfig)]
        )

    if raw["ontology"] is None:
        raise ConfigError("ontology must name a file or builtin:cs")
    _require_file(raw["ontology"], "ontology")
    _require_file(raw["capacities"]["path"], "capacities")
    _require_file(raw["history_path"], "history")

    vectorizer = VectorizerSettings(**raw["vectorizer"])
    willingness = WillingnessParams(**raw["willingness"])
    utility = UtilityParams(**raw["utility"])
    # a section without an endpoint is reported as a null endpoint
    remote = RemoteExtractorConfig(**{"endpoint": None, **remote}) if remote else None

    caps_raw = raw["capacities"]
    mapping = {}
    if caps_raw["path"]:
        mapping = _read_json(caps_raw["path"], "capacities")
        if not isinstance(mapping, dict):
            raise ConfigError("capacities file must map volunteer ids to integers")
    capacities = CapacityMap(mapping, default=caps_raw["default"])

    extractor = raw["extractor"]
    kind = extractor["kind"]
    if kind not in ("rule", "remote"):
        raise ConfigError(f"extractor.kind must be 'rule' or 'remote', got {kind!r}")
    if remote is not None:
        remote = RemoteExtractorConfig.from_env(remote, dict(os.environ))
    if kind == "remote" and remote is None:
        raise ConfigError("extractor.kind is 'remote' but extractor.remote is not set")

    seed = raw["seeds"]["random_method"]
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
        synthetic=SyntheticConfig(**raw["synthetic"], vocabulary_ref=raw["ontology"]),
        random_method_seed=None if seed is None else integer(seed, "seeds.random_method"),
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
    return sha256(data).hexdigest()
