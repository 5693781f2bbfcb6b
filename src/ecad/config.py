"""Pipeline configuration: one JSON file with full-default fallback.

Every field has a default, so ``run-all --seed N`` works with an empty config.
The loader reads the schema from the dataclasses themselves: a field whose
type is a dataclass is a nested section, any other field takes the JSON types
of its annotation.  Unknown keys, values of the wrong JSON type and the
non-standard constants ``NaN`` and ``Infinity`` are rejected to catch typos
early.  Every section checks its own values when it is built (its
``__post_init__``), and ``PipelineConfig`` adds the checks that span sections,
so an out-of-range value is refused where the config is made, not by a later
stage.  Stage seeds, when left null, are derived deterministically from the
master seed so a single integer pins the whole pipeline.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np

from .backends import BackendSpec
from .detector import LocalityConfig
from .ensemble import AggregatorSpec
from .scenario import ScenarioConfig

__all__ = ["EnsembleConfig", "FeatureConfig", "DetectorConfig", "PipelineConfig", "load_config"]

# Stage salts keep derived RNG streams independent of each other.
_SALT_SCENARIO = 1
_SALT_ENSEMBLE = 3
_SALT_BACKEND = 4


@dataclass(frozen=True)
class EnsembleConfig:
    n_models: int = 25
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_models < 1:
            raise ValueError(f"n_models must be >= 1, got {self.n_models}")


@dataclass(frozen=True)
class FeatureConfig:
    n_lags: int = 5
    neighbor_size: int = 5

    def __post_init__(self) -> None:
        if self.n_lags < 1:
            raise ValueError(f"feature lag depth must be >= 1, got {self.n_lags}")
        if self.neighbor_size < 1:
            raise ValueError(f"feature neighbor size must be >= 1, got {self.neighbor_size}")


@dataclass(frozen=True)
class DetectorConfig:
    alpha: float = 0.05
    locality: LocalityConfig = field(default_factory=LocalityConfig)
    exclude_flagged_from_window: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    missing_token: str = "NA"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    backend: BackendSpec = field(default_factory=BackendSpec)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self) -> None:
        # each section checks its own fields when it is built; these checks span sections
        n_sensors, locality = self.scenario.n_sensors, self.detector.locality
        if self.features.neighbor_size > n_sensors:
            raise ValueError(
                f"features.neighbor_size {self.features.neighbor_size} exceeds "
                f"scenario.n_sensors {n_sensors}"
            )
        if locality.enabled and locality.variant == "neighbor_sensors" and locality.neighbor_size > n_sensors:
            raise ValueError(
                f"detector.locality.neighbor_size {locality.neighbor_size} exceeds "
                f"scenario.n_sensors {n_sensors}"
            )
        if self.features.n_lags >= self.scenario.n_train:
            raise ValueError("feature lag depth must be smaller than the training horizon")
        # a scenario without test rows can be generated, but the pipeline cannot detect on it
        if self.scenario.n_test < 1:
            raise ValueError(f"scenario.n_test must be >= 1 for the pipeline, got {self.scenario.n_test}")

    def out_path(self) -> Path:
        return Path(self.out_dir)


def _derived_seed(master: int, salt: int) -> int:
    return int(np.random.SeedSequence([int(master), salt]).generate_state(1)[0])


def resolve_seeds(cfg: PipelineConfig) -> PipelineConfig:
    """Fill any null stage seeds from the master seed."""
    scenario = cfg.scenario
    if scenario.seed is None:
        scenario = dataclasses.replace(scenario, seed=_derived_seed(cfg.seed, _SALT_SCENARIO))
    ensemble = cfg.ensemble
    if ensemble.seed is None:
        ensemble = dataclasses.replace(ensemble, seed=_derived_seed(cfg.seed, _SALT_ENSEMBLE))
    backend = cfg.backend
    if backend.seed is None:
        backend = dataclasses.replace(backend, seed=_derived_seed(cfg.seed, _SALT_BACKEND))
    return dataclasses.replace(cfg, scenario=scenario, ensemble=ensemble, backend=backend)


# JSON types each field annotation accepts; a bool is never taken for a number
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


def _json_type_ok(annotation: str, value: Any) -> bool:
    if annotation == "tuple[int, ...]":
        return isinstance(value, list) and all(_json_type_ok("int", w) for w in value)
    is_bool = isinstance(value, bool)
    return isinstance(value, _JSON_TYPES[annotation]) and is_bool == (annotation == "bool")


def _from_dict(cls: type, payload: dict[str, Any], path: str) -> Any:
    if not isinstance(payload, dict):
        raise ValueError(f"config section {path or 'root'} must be an object")
    annotations = {f.name: f.type for f in fields(cls)}
    hints = get_type_hints(cls)
    unknown = set(payload) - set(annotations)
    if unknown:
        raise ValueError(
            f"unknown config keys at {path or 'root'}: {sorted(unknown)}; known: {sorted(annotations)}"
        )
    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        child = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hints[key]):
            value = _from_dict(hints[key], value, child)
        elif not _json_type_ok(annotations[key], value):
            raise ValueError(f"config key {child} must be of type {annotations[key]}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(payload: dict[str, Any]) -> PipelineConfig:
    return _from_dict(PipelineConfig, payload, "")


def config_to_dict(cfg: PipelineConfig) -> dict[str, Any]:
    return dataclasses.asdict(cfg)


def _refuse_constant(name: str) -> float:
    # Python's json reads NaN, Infinity and -Infinity, which JSON itself does not have
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | Path | None, seed: int | None = None, out_dir: str | None = None) -> PipelineConfig:
    """Load a pipeline config JSON; flags override the file's seed and out_dir."""
    if path is None:
        cfg = PipelineConfig()
    else:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            payload = json.loads(path.read_text(), parse_constant=_refuse_constant)
        except OSError as exc:  # a directory, say, or a file it may not read
            raise ValueError(f"config file {path} cannot be read: {exc}") from exc
        except ValueError as exc:  # a json.JSONDecodeError, or a constant refused above
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        cfg = config_from_dict(payload)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=str(out_dir))
    return resolve_seeds(cfg)
