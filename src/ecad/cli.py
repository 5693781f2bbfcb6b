"""Command-line pipeline: generate -> impute -> train -> detect -> evaluate.

Each stage reads its prerequisite artifacts from the output directory, writes
its own, and prints a one-line key=value summary, which ends with the stage's
wall time (``wall_s``) and the process's peak RSS so far (``rss_mb``).
``run-all`` chains every stage; rerunning ``train`` refits the ensemble from the completed panel, for
use after a suspected change point.  ``train`` hands the panel itself to
``train_ensemble``, which builds the training features a chunk of times at a
time, and saves the ensemble with its training context, which ``detect``
continues without parsing the training panel and refuses once an input file
or the feature layout has changed.  ``detect`` builds the test features and
writes ``detections.csv`` one block of hours at a time.  All stages are
idempotent and, for a fixed config and BLAS thread count, bit-reproducible
(timestamps appear only in report metadata); another thread count can move the
last bits of a BLAS result (see the README's Determinism section).  Every CSV
artifact is read with ``panel.read_csv`` and written with ``panel.write_csv``;
this module only names the columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .config import PipelineConfig, config_to_dict, load_config
from .detector import ScoreStore, detect_stream
from .ensemble import load_ensemble, save_ensemble, train_ensemble
from .evaluation import SensorEvaluation, evaluate_sensors
from .imputation import impute
from .panel import (
    build_features,
    distinct,
    grid_rows,
    load_panel,
    load_sensors,
    neighbor_sets,
    read_csv,
    save_panel,
    save_sensors,
    time_blocks,
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


def _read_sensors(path: Path, panel: np.ndarray, panel_path: Path) -> np.ndarray:
    """The coordinates in ``path``, refused unless they hold one sensor per column of ``panel``."""
    sensors = _read_artifact(load_sensors, path)
    if len(sensors) != panel.shape[1]:
        raise StageError(
            "config",
            f"sensor file {path} lists {len(sensors)} sensors, "
            f"but panel {panel_path} has {panel.shape[1]}",
        )
    return sensors


def _read_complete_panel(cfg: PipelineConfig, path: Path) -> np.ndarray:
    """The panel in ``path``, refused as a config error if it has a missing cell."""
    panel = _read_artifact(load_panel, path, cfg.missing_token)
    if np.isnan(panel).any():
        raise StageError("config", f"panel {path} has missing entries")
    return panel


def _neighbors(coords: np.ndarray, size: int, key: str, sensors_path: Path) -> np.ndarray:
    """The ``(K, size)`` array ``neighbor_sets(coords, size)``.

    Refused as a config error naming ``key`` if there are too few sensors.
    """
    if size > len(coords):
        raise StageError(
            "config", f"{key} {size} exceeds the {len(coords)} sensors of sensor file {sensors_path}"
        )
    return neighbor_sets(coords, size)


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    """The SHA-256 of the completed panel and the sensor file, by file name: an ensemble's inputs."""
    digests = {}
    for name, produced_by in (("completed_panel", "impute"), ("sensors", "generate")):
        sha = hashlib.sha256()
        with open(_require(cfg, name, produced_by), "rb") as fh:
            while chunk := fh.read(1 << 16):  # a chunk at a time, not a copy of the file
                sha.update(chunk)
        digests[ARTIFACTS[name]] = sha.hexdigest()
    return digests


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def generate_stage(cfg: PipelineConfig) -> dict:
    """Generate the scenario, mask training cells, and write all input artifacts."""
    out = cfg.out_path()
    out.mkdir(parents=True, exist_ok=True)
    values, coords, truth = generate(cfg.scenario)
    n_train = cfg.scenario.n_train

    train, test = values[:n_train], values[n_train:]
    if cfg.scenario.missing_fraction > 0:
        train = inject_missing(train, cfg.scenario.missing_fraction, cfg.scenario.seed or 0)

    save_panel(train, _artifact(cfg, "train_panel"), cfg.missing_token)
    save_panel(test, _artifact(cfg, "test_panel"), cfg.missing_token)
    save_sensors(coords, _artifact(cfg, "sensors"))

    labeled_times = np.arange(truth.first_labeled_t, len(values))
    t, k = grid_rows(labeled_times, len(coords))
    write_csv(
        _artifact(cfg, "truth"),
        {
            "t": t,
            "k": k,
            "label": truth.labels[labeled_times].ravel(),
            "injected": truth.injected[labeled_times].ravel(),
        },
    )
    _write_json(_artifact(cfg, "scenario"), dataclasses.asdict(cfg.scenario))

    labeled = truth.labels[truth.first_labeled_t :]
    return {
        "stage": "generate",
        "sensors": len(coords),
        "train_rows": n_train,
        "test_rows": cfg.scenario.n_test,
        "missing_per_column": int(np.isnan(train).sum(axis=0).max()),
        "labeled_fraction": round(float(labeled.mean()), 6),
    }


def impute_stage(cfg: PipelineConfig) -> dict:
    """Complete the training panel and write it with the imputation report."""
    path = _require(cfg, "train_panel", "generate")
    panel = _read_artifact(load_panel, path, cfg.missing_token)
    try:
        completed, report = impute(panel)
    except ValueError as exc:  # a fully missing row, or a column with under 2 observed cells
        raise StageError("config", f"artifact {path}: {exc}") from exc
    save_panel(completed, _artifact(cfg, "completed_panel"), cfg.missing_token)
    _write_json(_artifact(cfg, "impute_report"), dataclasses.asdict(report))
    return {
        "stage": "impute",
        "sweeps": report.iterations,
        "final_max_delta": round(report.final_max_delta, 9),
        "missing_cells": sum(report.missing_per_column),
    }


def train_stage(cfg: PipelineConfig) -> dict:
    """Fit the bootstrap ensemble on the completed training panel.

    Rerun it after a suspected change point to refit from the current
    completed panel; it overwrites the ensemble.
    """
    panel_path = _require(cfg, "completed_panel", "impute")
    sensors_path = _require(cfg, "sensors", "generate")
    panel = _read_complete_panel(cfg, panel_path)
    coords = _read_sensors(sensors_path, panel, panel_path)
    neighbors = _neighbors(coords, cfg.features.neighbor_size, "features.neighbor_size", sensors_path)
    try:
        ensemble = train_ensemble(
            panel,
            neighbors,
            cfg.features.n_lags,
            cfg.backend,
            cfg.ensemble.n_models,
            cfg.ensemble.aggregator,
            seed=cfg.ensemble.seed or 0,
        )
    except ValueError as exc:  # a panel too short for the lag depth, or one the ensemble cannot fit or score
        raise StageError("config", f"training panel {panel_path}: {exc}") from exc
    lag_rows = panel[len(panel) - cfg.features.n_lags :]
    save_ensemble(ensemble, _artifact(cfg, "ensemble"), lag_rows, _input_digests(cfg))
    return {
        "stage": "train",
        "models": ensemble.n_models,
        "rows": ensemble.plan.available.size * ensemble.n_sensors,
        "dropped_empty_loo": ensemble.dropped_empty_loo,
        "scores": int(ensemble.scores.size),
    }


def detect_stage(cfg: PipelineConfig) -> dict:
    """Stream the test panel through the detector a block of hours at a time; write detections.csv.

    Each block's detections are written as the block is done, so neither the
    test features nor the detection columns of the whole horizon exist at once.
    """
    ensemble_path = _require(cfg, "ensemble", "train")
    test_path = _require(cfg, "test_panel", "generate")
    sensors_path = _require(cfg, "sensors", "generate")

    ensemble, lag_rows, inputs = _read_artifact(load_ensemble, ensemble_path)
    # detection continues the training scores, so it runs only on the inputs and
    # at the feature layout that they came from
    for name, digest in _input_digests(cfg).items():
        if inputs.get(name) != digest:
            raise StageError(
                "config",
                f"{cfg.out_path() / name} has changed since ensemble {ensemble_path} was trained on it; rerun train",
            )
    n_lags, neighbor_size = cfg.features.n_lags, cfg.features.neighbor_size
    trained = len(lag_rows), ensemble.model.input_dim // len(lag_rows)
    if (n_lags, neighbor_size) != trained:
        raise StageError(
            "config",
            f"ensemble {ensemble_path} was trained at features.n_lags {trained[0]} and neighbor_size {trained[1]}, "
            f"but the config gives {n_lags} and {neighbor_size}; rerun train or restore the training feature config",
        )
    test = _read_complete_panel(cfg, test_path)
    sensors = _read_sensors(sensors_path, test, test_path)
    n_train, n_sensors = int(ensemble.plan.available[-1]) + 1, test.shape[1]
    feature_neighbors = _neighbors(sensors, neighbor_size, "features.neighbor_size", sensors_path)
    locality_neighbors = None
    # as_printed compares against every sensor, so it reads no neighbour array
    if cfg.detector.locality.enabled and cfg.detector.locality.variant == "neighbor_sensors":
        locality_neighbors = _neighbors(
            sensors, cfg.detector.locality.neighbor_size, "detector.locality.neighbor_size", sensors_path
        )
    # one block of test times at a time, so the (T, K, d) test feature grid
    # never exists whole; the blocks share one score store.  A block's panel
    # rows are its hours and the n_lags before them, the first block's from
    # lag_rows.  The rows go to a partial file that replaces detections.csv
    # once every block is written, so a failed run leaves no truncated one
    store = ScoreStore(ensemble.usable_times, ensemble.scores)
    n_points = n_flagged = 0
    path = _artifact(cfg, "detections")
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w") as fh:
        for i, block in enumerate(time_blocks(len(test), n_sensors)):
            rows = np.vstack([lag_rows[block.start :], test[max(0, block.start - n_lags) : block.stop]])
            times, X, y = build_features(rows, feature_neighbors, n_lags)
            detections = detect_stream(
                ensemble,
                times + (n_train - n_lags + block.start),
                X,
                y,
                cfg.detector.alpha,
                locality=cfg.detector.locality,
                neighbors=locality_neighbors,
                exclude_flagged_from_window=cfg.detector.exclude_flagged_from_window,
                store=store,
            )
            names = ("t", "k", "test_score", "p_value", "flagged")
            write_csv(fh, {name: getattr(detections, name) for name in names}, header=i == 0)
            n_points += len(detections.t)
            n_flagged += int(np.count_nonzero(detections.flagged))
    partial.replace(path)
    return {
        "stage": "detect",
        "points": n_points,
        "flagged": n_flagged,
        "flag_rate": round(n_flagged / max(1, n_points), 6),
    }


def _key_order(t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The order that sorts rows by (t, k), refusing a second row for one (t, k)."""
    order = np.lexsort((k, t))
    t, k = t[order], k[order]
    dup = np.flatnonzero((t[1:] == t[:-1]) & (k[1:] == k[:-1]))
    if dup.size:
        raise ValueError(f"more than one row for (t={t[dup[0]]}, k={k[dup[0]]})")
    return order


def _read_detections(path: Path) -> list[np.ndarray]:
    t, k, p, flagged = read_csv(path, {"t": np.int64, "k": np.int64, "p_value": float, "flagged": bool})
    if ((p < 0.0) | (p > 1.0)).any():
        raise ValueError("a p_value outside [0, 1]")
    _key_order(t, k)
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
    order = _key_order(truth_t, truth_k)
    truth_t, truth_k, label = truth_t[order], truth_k[order], label[order]
    new_t = np.r_[True, truth_t[1:] != truth_t[:-1]]
    # a (t, k) key is (rank of t) * n_k + (rank of k) among the distinct truth times
    # and sensors: ascending along the sorted rows, and below rows**2
    times, ks = truth_t[new_t], distinct(truth_k)
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


# the stages in run order; stage "x" is the function x_stage, looked up by name
# when it runs, so a wrapper set on this module's attribute reaches every caller
_RUN_ALL = ("generate", "impute", "train", "detect", "evaluate")


def run_all(cfg: PipelineConfig) -> list[dict]:
    """Run every stage in order; returns each stage's summary."""
    return [globals()[f"{name}_stage"](cfg) for name in _RUN_ALL]


def _summary_line(summary: dict, wall_s: float) -> str:
    """The stage's summary, its wall time and this process's peak RSS so far, as key=value pairs."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    parts = [f"{key}={value}" for key, value in summary.items()]
    return " ".join(parts + [f"wall_s={wall_s:.3f}", f"rss_mb={rss_mb:.1f}", "status=ok"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecad",
        description="Ensemble conformal anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_RUN_ALL, "run-all"]:
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

    # run-all prints each stage's summary as it returns, and an error names the failing stage
    stages = _RUN_ALL if args.command == "run-all" else (args.command,)
    for stage in stages:
        start = time.perf_counter()
        try:
            summary = globals()[f"{stage}_stage"](cfg)
        except StageError as exc:
            print(f'stage={stage} status=error category={exc.category} message="{exc}"', file=sys.stderr)
            return 3 if exc.category == "missing-artifact" else 2
        except Exception as exc:  # pragma: no cover - defensive surface for the CLI
            print(f'stage={stage} status=error category=internal message="{exc}"', file=sys.stderr)
            return 1
        print(_summary_line(summary, time.perf_counter() - start), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
