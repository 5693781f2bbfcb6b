"""Command-line pipeline: generate -> impute -> train -> detect -> evaluate.

Each stage reads its prerequisite artifacts from the output directory, writes
its own, and prints a one-line key=value summary.  ``run-all`` chains every
stage; ``retrain`` refits the ensemble from the completed panel, for use after
a suspected change point.  All stages are idempotent and, for a fixed config,
bit-reproducible (timestamps appear only in report metadata).  Every CSV
artifact is read with ``panel.read_csv`` and written with ``panel.write_csv``;
this module only names the columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import PipelineConfig, config_to_dict, load_config
from .detector import detect_stream
from .ensemble import load_ensemble, save_ensemble, train_ensemble
from .evaluation import SensorEvaluation, evaluate_sensors
from .imputation import impute
from .panel import (
    TimeSeriesPanel,
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    read_csv,
    save_panel,
    save_sensors,
    write_csv,
)
from .scenario import generate, inject_missing

__all__ = [
    "ARTIFACTS",
    "StageError",
    "generate_stage",
    "impute_stage",
    "train_stage",
    "detect_stage",
    "evaluate_stage",
    "run_all",
    "main",
]

ARTIFACTS = {
    "train_panel": "train_panel.csv",
    "test_panel": "test_panel.csv",
    "sensors": "sensors.csv",
    "truth": "truth.csv",
    "scenario": "scenario.json",
    "completed_panel": "train_panel_completed.csv",
    "impute_report": "impute_report.json",
    "ensemble": "ensemble.npz",
    "detections": "detections.csv",
    "report_csv": "report.csv",
    "report_json": "report.json",
    "pvalues": "pvalues.csv",
}


class StageError(RuntimeError):
    """Stage failure with an error category for the CLI exit code."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    return cfg.out_path() / ARTIFACTS[name]


def _require(cfg: PipelineConfig, name: str, produced_by: str) -> Path:
    path = _artifact(cfg, name)
    if not path.exists():
        raise StageError(
            "missing-artifact",
            f"missing artifact {path} (run the {produced_by} stage first)",
        )
    return path


def _read_artifact(reader, path: Path, *args):
    """``reader(path, *args)``, with the ValueError of a corrupt file as a config error naming it."""
    try:
        return reader(path, *args)
    except ValueError as exc:
        raise StageError("config", f"artifact {path}: {exc}") from exc


def _read_sensors(path: Path, panel: TimeSeriesPanel, panel_path: Path) -> np.ndarray:
    """The coordinates in ``path``, refused unless they hold one sensor per column of ``panel``."""
    sensors = _read_artifact(load_sensors, path)
    if len(sensors) != panel.n_sensors:
        raise StageError(
            "config",
            f"sensor file {path} lists {len(sensors)} sensors, "
            f"but panel {panel_path} has {panel.n_sensors}",
        )
    return sensors


def _neighbors(coords: np.ndarray, size: int, key: str, sensors_path: Path) -> np.ndarray:
    """The ``(K, size)`` array ``neighbor_sets(coords, size)``.

    Refused as a config error naming ``key`` if there are too few sensors.
    """
    if size > len(coords):
        raise StageError(
            "config", f"{key} {size} exceeds the {len(coords)} sensors of sensor file {sensors_path}"
        )
    return neighbor_sets(coords, size)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def generate_stage(cfg: PipelineConfig) -> dict:
    """Generate the scenario, mask training cells, and write all input artifacts."""
    out = cfg.out_path()
    out.mkdir(parents=True, exist_ok=True)
    panel, truth = generate(cfg.scenario)
    n_train = cfg.scenario.n_train

    train = TimeSeriesPanel(
        panel.values[:n_train].copy(), panel.mask[:n_train].copy(), panel.sensors
    )
    if cfg.scenario.missing_fraction > 0:
        train = inject_missing(train, cfg.scenario.missing_fraction, cfg.scenario.seed or 0)
    test = TimeSeriesPanel(
        panel.values[n_train:].copy(), panel.mask[n_train:].copy(), panel.sensors
    )

    save_panel(train, _artifact(cfg, "train_panel"), cfg.missing_token)
    save_panel(test, _artifact(cfg, "test_panel"), cfg.missing_token)
    save_sensors(panel.sensors, _artifact(cfg, "sensors"))

    labeled_times = np.arange(truth.first_labeled_t, panel.n_times)
    write_csv(
        _artifact(cfg, "truth"),
        {
            "t": np.repeat(labeled_times, panel.n_sensors),
            "k": np.tile(np.arange(panel.n_sensors), labeled_times.size),
            "label": truth.labels[labeled_times].ravel(),
            "injected": truth.injected[labeled_times].ravel(),
        },
    )
    _write_json(_artifact(cfg, "scenario"), dataclasses.asdict(cfg.scenario))

    labeled = truth.labels[truth.first_labeled_t :]
    return {
        "stage": "generate",
        "sensors": panel.n_sensors,
        "train_rows": n_train,
        "test_rows": cfg.scenario.n_test,
        "missing_per_column": int(n_train - train.observed_counts().min()),
        "labeled_fraction": round(float(labeled.mean()), 6),
    }


def impute_stage(cfg: PipelineConfig) -> dict:
    """Complete the training panel and write it with the imputation report."""
    path = _require(cfg, "train_panel", "generate")
    panel = _read_artifact(load_panel, path, cfg.missing_token)
    completed, report = impute(panel, cfg.imputer)
    save_panel(completed, _artifact(cfg, "completed_panel"), cfg.missing_token)
    _write_json(
        _artifact(cfg, "impute_report"),
        {
            "iterations": report.iterations,
            "final_max_delta": report.final_max_delta,
            "delta_trace": report.delta_trace,
            "missing_per_column": report.missing_per_column,
        },
    )
    return {
        "stage": "impute",
        "sweeps": report.iterations,
        "final_max_delta": round(report.final_max_delta, 9),
        "missing_cells": sum(report.missing_per_column),
    }


def _train_impl(cfg: PipelineConfig, stage: str) -> dict:
    panel_path = _require(cfg, "completed_panel", "impute")
    sensors_path = _require(cfg, "sensors", "generate")
    panel = _read_artifact(load_panel, panel_path, cfg.missing_token)
    coords = _read_sensors(sensors_path, panel, panel_path)
    if not panel.is_complete:
        raise StageError("config", f"completed panel {panel_path} still has missing entries")
    neighbors = _neighbors(coords, cfg.features.neighbor_size, "features.neighbor_size", sensors_path)
    times, sensors, X, y = build_features(panel, neighbors, cfg.features.n_lags)
    try:
        ensemble = train_ensemble(
            times,
            sensors,
            X,
            y,
            cfg.backend,
            cfg.ensemble.n_models,
            cfg.ensemble.aggregator,
            seed=cfg.ensemble.seed or 0,
        )
    except ValueError as exc:
        raise StageError("config", str(exc)) from exc
    save_ensemble(ensemble, _artifact(cfg, "ensemble"))
    return {
        "stage": stage,
        "models": ensemble.n_models,
        "rows": len(y),
        "dropped_empty_loo": ensemble.dropped_empty_loo,
        "scores": int(ensemble.score_values.size),
    }


def train_stage(cfg: PipelineConfig) -> dict:
    """Fit the bootstrap ensemble on the completed training panel."""
    return _train_impl(cfg, "train")


def retrain_stage(cfg: PipelineConfig) -> dict:
    """Refit the ensemble from the current completed panel (post change point)."""
    return _train_impl(cfg, "retrain")


def detect_stage(cfg: PipelineConfig) -> dict:
    """Stream the test panel through the detector and write detections.csv."""
    ensemble_path = _require(cfg, "ensemble", "train")
    train_path = _require(cfg, "completed_panel", "impute")
    test_path = _require(cfg, "test_panel", "generate")
    sensors_path = _require(cfg, "sensors", "generate")

    ensemble = _read_artifact(load_ensemble, ensemble_path)
    train = _read_artifact(load_panel, train_path, cfg.missing_token)
    test = _read_artifact(load_panel, test_path, cfg.missing_token)
    if not test.is_complete:
        raise StageError("config", f"test panel {test_path} has missing entries")
    if train.n_sensors != test.n_sensors:
        raise StageError(
            "config",
            f"training panel {train_path} has {train.n_sensors} sensors, "
            f"but test panel {test_path} has {test.n_sensors}",
        )
    sensors = _read_sensors(sensors_path, test, test_path)
    n_lags, neighbor_size = cfg.features.n_lags, cfg.features.neighbor_size
    input_dim = ensemble.model.input_dim
    if input_dim != n_lags * neighbor_size:
        raise StageError(
            "config",
            f"ensemble {ensemble_path} takes {input_dim} features per point, "
            f"but features.n_lags {n_lags} x neighbor_size {neighbor_size} gives "
            f"{n_lags * neighbor_size}; retrain or restore the training feature config",
        )
    if ensemble.n_sensors != test.n_sensors:
        raise StageError(
            "config",
            f"ensemble {ensemble_path} was trained on {ensemble.n_sensors} sensors, "
            f"but test panel {test_path} has {test.n_sensors}",
        )
    # the detector's score store holds one equally long window per sensor
    per_sensor = np.bincount(ensemble.score_sensors, minlength=ensemble.n_sensors)
    if (per_sensor != per_sensor[0]).any():
        raise StageError(
            "config",
            f"ensemble {ensemble_path} holds unequal numbers of training scores per sensor: "
            f"{sorted(set(per_sensor.tolist()))}",
        )

    # the test stream starts at time train.n_times, after every retained training score
    last_scored = int(ensemble.score_times.max(initial=-1))
    if last_scored >= train.n_times:
        raise StageError(
            "config",
            f"ensemble {ensemble_path} holds training scores up to time {last_scored}, but "
            f"training panel {train_path} has only {train.n_times} rows; the two come from "
            "different horizons, so retrain the ensemble on this panel",
        )

    # the test rows' lags reach back n_lags hours into the training panel
    if train.n_times < n_lags:
        raise StageError(
            "config", f"training panel {train_path} is shorter than the lag depth {n_lags}"
        )
    history = train.values[train.n_times - n_lags :]
    times, sensor_ids, X, y = build_features(
        TimeSeriesPanel(
            np.vstack([history, test.values]),
            np.ones((n_lags + test.n_times, train.n_sensors), dtype=bool),
            sensors,
        ),
        _neighbors(sensors, neighbor_size, "features.neighbor_size", sensors_path),
        n_lags,
    )
    locality_neighbors = None
    if cfg.detector.locality.enabled:
        locality_neighbors = _neighbors(
            sensors, cfg.detector.locality.neighbor_size, "detector.locality.neighbor_size", sensors_path
        )
    detections = detect_stream(
        ensemble,
        times + (train.n_times - n_lags),
        sensor_ids,
        X,
        y,
        cfg.detector.alpha,
        locality=cfg.detector.locality,
        neighbors=locality_neighbors,
        exclude_flagged_from_window=cfg.detector.exclude_flagged_from_window,
    )

    write_csv(
        _artifact(cfg, "detections"),
        {name: getattr(detections, name) for name in ("t", "k", "test_score", "p_value", "flagged")},
    )
    n_flagged = int(np.count_nonzero(detections.flagged))
    return {
        "stage": "detect",
        "points": len(detections),
        "flagged": n_flagged,
        "flag_rate": round(n_flagged / max(1, len(detections)), 6),
    }


def _read_detections(path: Path) -> list[np.ndarray]:
    t, k, p, flagged = read_csv(path, {"t": np.int64, "k": np.int64, "p_value": float, "flagged": bool})
    if ((p < 0.0) | (p > 1.0)).any():
        raise ValueError("a p_value outside [0, 1]")
    return [t, k, p, flagged]


def _read_truth(path: Path, t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Ground-truth label of each detection (t[i], k[i]): 1 anomalous, 0 normal, -1 unlabeled.

    The join runs on the truth rows sorted by (t, k), so memory grows with the
    number of rows, not with the largest index; truth rows that label no
    detection are ignored.
    """
    truth_t, truth_k, label = read_csv(path, {"t": np.int64, "k": np.int64, "label": bool})
    if (truth_t < 0).any() or (truth_k < 0).any():
        raise ValueError("a negative time or sensor index")
    order = np.lexsort((truth_k, truth_t))
    truth_t, truth_k, label = truth_t[order], truth_k[order], label[order]
    new_t = np.r_[True, truth_t[1:] != truth_t[:-1]]
    dup = np.flatnonzero(~new_t[1:] & (truth_k[1:] == truth_k[:-1]))
    if dup.size:
        raise ValueError(f"more than one row for (t={truth_t[dup[0]]}, k={truth_k[dup[0]]})")
    # a (t, k) key is (rank of t) * n_k + (rank of k) among the distinct truth times
    # and sensors: ascending along the sorted rows, and below rows**2
    times, ks = truth_t[new_t], np.unique(truth_k)
    key = (np.cumsum(new_t) - 1) * ks.size + np.searchsorted(ks, truth_k)
    ti = np.searchsorted(times, t).clip(max=times.size - 1)
    ki = np.searchsorted(ks, k).clip(max=ks.size - 1)
    wanted = ti * ks.size + ki
    pos = np.searchsorted(key, wanted).clip(max=key.size - 1)
    found = (times[ti] == t) & (ks[ki] == k) & (key[pos] == wanted)
    return np.where(found, label[pos], -1)


def evaluate_stage(cfg: PipelineConfig) -> dict:
    """Join detections with ground truth and write the per-sensor report."""
    det_path = _require(cfg, "detections", "detect")
    truth_path = _require(cfg, "truth", "generate")
    t, k, p, flags = _read_artifact(_read_detections, det_path)
    label = _read_artifact(_read_truth, truth_path, t, k)
    labeled = label >= 0
    if not labeled.any():
        raise StageError("config", "no detection rows have ground-truth labels")
    t, k, p, flags = t[labeled], k[labeled], p[labeled], flags[labeled]
    labels = label[labeled] == 1

    report = evaluate_sensors(k, labels, flags)
    aggregate = _write_report(cfg, report)

    write_csv(_artifact(cfg, "pvalues"), {"t": t, "k": k, "p_value": p, "label": labels})
    return {
        "stage": "evaluate",
        "sensors": report.sensor.size,
        "points": int(labeled.sum()),
        "mean_f1": round(aggregate["mean_f1"], 6),
        "mean_rguess_f1": round(aggregate["mean_rguess_f1"], 6),
    }


def _write_report(cfg: PipelineConfig, report: SensorEvaluation) -> dict:
    """Write report.csv and report.json from the per-sensor columns; returns the aggregates."""
    columns = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    write_csv(
        _artifact(cfg, "report_csv"),
        {name: columns[name] for name in ("sensor", "q", "precision", "recall", "f1")},
    )
    means = ("f1", "precision", "recall", "rguess_f1", "q")
    aggregate = {f"mean_{name}": float(np.mean(columns[name])) for name in means}
    aggregate["degenerate_sensors"] = report.sensor[report.degenerate].tolist()
    _write_json(
        _artifact(cfg, "report_json"),
        {
            "meta": {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")},
            "config": config_to_dict(cfg),
            "per_sensor": [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))],
            "aggregate": aggregate,
        },
    )
    return aggregate


def run_all(cfg: PipelineConfig) -> list[dict]:
    """Run every stage in order; returns each stage's summary."""
    return [
        generate_stage(cfg),
        impute_stage(cfg),
        train_stage(cfg),
        detect_stage(cfg),
        evaluate_stage(cfg),
    ]


_STAGES = {
    "generate": generate_stage,
    "impute": impute_stage,
    "train": train_stage,
    "retrain": retrain_stage,
    "detect": detect_stage,
    "evaluate": evaluate_stage,
}


def _summary_line(summary: dict) -> str:
    parts = [f"{key}={value}" for key, value in summary.items()]
    return " ".join(parts + ["status=ok"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecad",
        description="Ensemble conformal anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_STAGES, "run-all"]:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", type=str, default=None, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=str, default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    except (ValueError, FileNotFoundError) as exc:
        print(f'stage={args.command} status=error category=config message="{exc}"', file=sys.stderr)
        return 2

    try:
        if args.command == "run-all":
            for summary in run_all(cfg):
                print(_summary_line(summary))
        else:
            print(_summary_line(_STAGES[args.command](cfg)))
    except StageError as exc:
        print(
            f'stage={args.command} status=error category={exc.category} message="{exc}"',
            file=sys.stderr,
        )
        return 3 if exc.category == "missing-artifact" else 2
    except Exception as exc:  # pragma: no cover - defensive surface for the CLI
        print(
            f'stage={args.command} status=error category=internal message="{exc}"',
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
