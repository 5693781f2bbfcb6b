"""Command-line pipeline: generate -> impute -> train -> detect -> evaluate.

Each stage reads its prerequisite artifacts from the output directory, writes
its own, and prints a one-line key=value summary.  ``run-all`` chains every
stage; ``retrain`` refits the ensemble from the completed panel, for use after
a suspected change point.  All stages are idempotent and, for a fixed config,
bit-reproducible (timestamps appear only in report metadata).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import PipelineConfig, config_to_dict, load_config
from .detector import detect_stream
from .ensemble import load_ensemble, save_ensemble, train_ensemble
from .evaluation import SensorReport, evaluate_sensors
from .imputation import impute
from .panel import (
    TimeSeriesPanel,
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    save_panel,
    save_sensors,
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

    lines = ["t,k,label,injected"]
    for t in range(truth.first_labeled_t, panel.n_times):
        for k in range(panel.n_sensors):
            lines.append(f"{t},{k},{int(truth.labels[t, k])},{int(truth.injected[t, k])}")
    _artifact(cfg, "truth").write_text("\n".join(lines) + "\n")
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
    panel = load_panel(path, cfg.missing_token)
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
    panel = load_panel(panel_path, cfg.missing_token)
    panel.sensors = load_sensors(sensors_path)
    if not panel.is_complete:
        raise StageError("config", f"completed panel {panel_path} still has missing entries")
    neighbors = neighbor_sets(panel.sensors, cfg.features.neighbor_size)
    times, sensors, X, y = build_features(panel, neighbors, cfg.features.n_lags)
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
    sensors = load_sensors(_require(cfg, "sensors", "generate"))

    ensemble = load_ensemble(ensemble_path)
    train = load_panel(train_path, cfg.missing_token)
    test = load_panel(test_path, cfg.missing_token)
    if not test.is_complete:
        raise StageError("config", f"test panel {test_path} has missing entries")
    n_lags, neighbor_size = cfg.features.n_lags, cfg.features.neighbor_size
    input_dim = ensemble.models[0].input_dim
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
        neighbor_sets(sensors, neighbor_size),
        n_lags,
    )
    locality_neighbors = None
    if cfg.detector.locality.enabled:
        locality_neighbors = neighbor_sets(sensors, cfg.detector.locality.neighbor_size)
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

    lines = ["t,k,test_score,p_value,flagged"]
    for d in detections:
        lines.append(f"{d.t},{d.k},{d.test_score!r},{d.p_value!r},{int(d.flagged)}")
    _artifact(cfg, "detections").write_text("\n".join(lines) + "\n")
    n_flagged = sum(d.flagged for d in detections)
    return {
        "stage": "detect",
        "points": len(detections),
        "flagged": n_flagged,
        "flag_rate": round(n_flagged / max(1, len(detections)), 6),
    }


def _read_columns(path: Path, *names: str) -> list[list[str]]:
    """The named columns of a CSV file with a header row, as lists of cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    missing = [name for name in names if name not in header]
    if missing:
        raise StageError("config", f"{path} lacks the column(s) {missing}")
    if set(map(len, rows)) - {len(header)}:
        raise StageError("config", f"{path} has rows of unequal length")
    index = [header.index(name) for name in names]
    return [[row[i] for row in rows] for i in index]


def _ints(cells: list[str]) -> np.ndarray:
    return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))


def _read_detections(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    t, k, p, flagged = _read_columns(path, "t", "k", "p_value", "flagged")
    if not t:
        raise StageError("config", f"no detection rows in {path}")
    p = np.fromiter(map(float, p), dtype=np.float64, count=len(p))
    return _ints(t), _ints(k), p, np.array(flagged, dtype=str) == "1"


def _read_truth(path: Path) -> np.ndarray:
    """(T, K) grid of ground-truth labels: 1 anomalous, 0 normal, -1 unlabeled."""
    t, k, label = _read_columns(path, "t", "k", "label")
    t, k = _ints(t), _ints(k)
    if (t < 0).any() or (k < 0).any():
        raise StageError("config", f"{path} has a negative time or sensor index")
    grid = np.full((t.max() + 1, k.max() + 1) if t.size else (0, 0), -1, dtype=np.int8)
    grid[t, k] = np.array(label, dtype=str) == "1"
    return grid


def evaluate_stage(cfg: PipelineConfig) -> dict:
    """Join detections with ground truth and write the per-sensor report."""
    det_path = _require(cfg, "detections", "detect")
    truth_path = _require(cfg, "truth", "generate")
    t, k, p, flags = _read_detections(det_path)
    grid = _read_truth(truth_path)

    label = np.full(t.shape, -1, dtype=np.int8)
    inside = (t >= 0) & (t < grid.shape[0]) & (k >= 0) & (k < grid.shape[1])
    label[inside] = grid[t[inside], k[inside]]
    labeled = label >= 0
    if not labeled.any():
        raise StageError("config", "no detection rows have ground-truth labels")
    t, k, p, flags = t[labeled], k[labeled], p[labeled], flags[labeled]
    labels = label[labeled] == 1

    reports = evaluate_sensors(k, labels, flags)
    _write_report(cfg, reports)

    lines = ["t,k,p_value,label"]
    for ti, ki, pi, li in zip(t.tolist(), k.tolist(), p.tolist(), labels.tolist()):
        lines.append(f"{ti},{ki},{pi!r},{int(li)}")
    _artifact(cfg, "pvalues").write_text("\n".join(lines) + "\n")

    mean_f1 = float(np.mean([r.f1 for r in reports]))
    mean_rguess = float(np.mean([r.rguess_f1 for r in reports]))
    return {
        "stage": "evaluate",
        "sensors": len(reports),
        "points": int(labeled.sum()),
        "mean_f1": round(mean_f1, 6),
        "mean_rguess_f1": round(mean_rguess, 6),
    }


def _write_report(cfg: PipelineConfig, reports: list[SensorReport]) -> None:
    lines = ["sensor,q,precision,recall,f1"]
    for r in reports:
        lines.append(f"{r.sensor},{r.q!r},{r.precision!r},{r.recall!r},{r.f1!r}")
    _artifact(cfg, "report_csv").write_text("\n".join(lines) + "\n")
    _write_json(
        _artifact(cfg, "report_json"),
        {
            "meta": {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")},
            "config": config_to_dict(cfg),
            "per_sensor": [dataclasses.asdict(r) for r in reports],
            "aggregate": {
                "mean_f1": float(np.mean([r.f1 for r in reports])),
                "mean_precision": float(np.mean([r.precision for r in reports])),
                "mean_recall": float(np.mean([r.recall for r in reports])),
                "mean_rguess_f1": float(np.mean([r.rguess_f1 for r in reports])),
                "mean_q": float(np.mean([r.q for r in reports])),
                "degenerate_sensors": [r.sensor for r in reports if r.degenerate],
            },
        },
    )


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
