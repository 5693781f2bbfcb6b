import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ecad.cli
import ecad.panel
from ecad.cli import (
    ARTIFACTS,
    StageError,
    detect_stage,
    evaluate_stage,
    generate_stage,
    impute_stage,
    main,
    run_all,
    train_stage,
)
from ecad.backends import BackendSpec
from ecad.config import (
    DetectorConfig,
    EnsembleConfig,
    FeatureConfig,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    resolve_seeds,
)
from ecad.detector import LocalityConfig
from ecad.ensemble import AggregatorSpec, load_ensemble
from ecad.panel import (
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    read_csv,
)
from ecad.scenario import ErrorSpec, InjectionSpec, ScenarioConfig, TruthSpec


def _small_cfg(out_dir, seed=0, backend=None, aggregator=None, **scenario_overrides):
    scenario = {
        "n_sensors": 4,
        "n_train": 120,
        "n_test": 60,
        "missing_fraction": 0.2,
        **scenario_overrides,
    }
    payload = {
        "seed": seed,
        "out_dir": str(out_dir),
        "scenario": scenario,
        "features": {"n_lags": 2, "neighbor_size": 3},
        "ensemble": {"n_models": 8},
    }
    if aggregator is not None:
        payload["ensemble"]["aggregator"] = aggregator
    if backend is not None:
        payload["backend"] = backend
    return resolve_seeds(config_from_dict(payload))


def test_run_all_produces_every_artifact(tmp_path):
    cfg = _small_cfg(tmp_path / "run")
    summaries = run_all(cfg)
    assert [s["stage"] for s in summaries] == [
        "generate", "impute", "train", "detect", "evaluate",
    ]
    for name in ARTIFACTS.values():
        assert (tmp_path / "run" / name).exists(), name
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert len(report["per_sensor"]) == 4
    assert 0.0 <= report["aggregate"]["mean_f1"] <= 1.0


def test_detect_before_train_reports_missing_ensemble(tmp_path):
    cfg = _small_cfg(tmp_path / "run")
    generate_stage(cfg)
    impute_stage(cfg)
    with pytest.raises(StageError) as err:
        detect_stage(cfg)
    assert err.value.category == "missing-artifact"
    assert "ensemble" in str(err.value)


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--out", str(out), "--seed", "1"]) == 0
    # detect without a trained ensemble: missing-artifact exit code
    assert main(["detect", "--out", str(out)]) == 3
    # invalid config: bad key
    bad = tmp_path / "bad.json"
    bad.write_text('{"detecter": {}}')
    assert main(["run-all", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["run-all", "--config", str(missing)]) == 2
    # a config path that names a directory
    capsys.readouterr()
    assert main(["run-all", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err and f"config file {tmp_path} cannot be read" in err
    assert "Traceback" not in err


def test_evaluate_on_perfect_flags_scores_one(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(0)
    truth_lines = ["t,k,label,injected"]
    det_lines = ["t,k,test_score,p_value,flagged"]
    for t in range(10, 30):
        for k in range(3):
            label = int(rng.random() < 0.4 or t == 10)  # every sensor gets positives
            truth_lines.append(f"{t},{k},{label},0")
            det_lines.append(f"{t},{k},1.0,{0.01 if label else 0.9},{label}")
    (out / ARTIFACTS["truth"]).write_text("\n".join(truth_lines) + "\n")
    (out / ARTIFACTS["detections"]).write_text("\n".join(det_lines) + "\n")
    cfg = _small_cfg(out)
    summary = evaluate_stage(cfg)
    report = json.loads((out / ARTIFACTS["report_json"]).read_text())
    for sensor in report["per_sensor"]:
        assert sensor["f1"] == 1.0
    assert summary["mean_f1"] == 1.0


def test_pvalues_csv_holds_the_detection_p_values_as_plain_floats(tmp_path):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    det = (tmp_path / "run" / ARTIFACTS["detections"]).read_text().strip().split("\n")[1:]
    p_of = {tuple(r.split(",")[:2]): r.split(",")[3] for r in det}
    rows = (tmp_path / "run" / ARTIFACTS["pvalues"]).read_text().strip().split("\n")
    assert rows[0] == "t,k,p_value,label"
    assert len(rows) > 1
    for row in rows[1:]:
        t, k, p, _ = row.split(",")
        assert float(p) == float(p_of[t, k])


def test_evaluate_joins_only_labeled_detections(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    truth = {(t, k): int((t * 3 + k) % 4 == 0) for t in range(5, 9) for k in range(2)}
    truth_lines = ["t,k,label,injected"] + [f"{t},{k},{v},0" for (t, k), v in truth.items()]
    (out / ARTIFACTS["truth"]).write_text("\n".join(truth_lines) + "\n")
    # detections before, inside and after the labeled times, and at an unknown sensor
    det = [(t, k) for t in range(3, 11) for k in range(3)]
    det_lines = ["t,k,test_score,p_value,flagged"] + [
        f"{t},{k},1.0,{(t + k) / 20!r},{(t + k) % 2}" for t, k in det
    ]
    (out / ARTIFACTS["detections"]).write_text("\n".join(det_lines) + "\n")
    cfg = _small_cfg(out)
    assert evaluate_stage(cfg)["points"] == len(truth)
    joined = [line.split(",") for line in (out / ARTIFACTS["pvalues"]).read_text().split()[1:]]
    assert [(int(t), int(k), int(label)) for t, k, _, label in joined] == [
        (t, k, truth[(t, k)]) for t, k in det if (t, k) in truth
    ]

    det_lines = ["t,k,test_score,p_value,flagged", "2,0,1.0,0.5,0", "6,7,1.0,0.5,0"]
    (out / ARTIFACTS["detections"]).write_text("\n".join(det_lines) + "\n")
    with pytest.raises(StageError, match="no detection rows have ground-truth labels"):
        evaluate_stage(cfg)

    # a negative index in truth.csv must not wrap around onto the last row or column
    for bad in ("-1,0,1,0", "5,-1,1,0"):
        (out / ARTIFACTS["truth"]).write_text("\n".join(truth_lines + [bad]) + "\n")
        with pytest.raises(StageError, match="negative time or sensor index"):
            evaluate_stage(cfg)

    # a second label for one (t, k) must not silently replace the first
    (out / ARTIFACTS["truth"]).write_text("\n".join(truth_lines + ["9,1,1,0", "9,1,0,0"]) + "\n")
    with pytest.raises(StageError, match=r"more than one row for \(t=9, k=1\)"):
        evaluate_stage(cfg)


def test_evaluate_memory_does_not_grow_with_the_largest_truth_index(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    out = tmp_path / "run"
    before = {name: (out / ARTIFACTS[name]).read_bytes() for name in ("report_csv", "pvalues")}
    truth = out / ARTIFACTS["truth"]
    # rows that label no detection, at indices whose dense (t, k) grid would take terabytes
    truth.write_text(truth.read_text() + "1000000000000,0,0,0\n0,1000000000000,1,0\n")
    path = tmp_path / "evaluate.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path)]) == 0, capsys.readouterr().err
    for name, data in before.items():
        assert (out / ARTIFACTS[name]).read_bytes() == data, name


def test_detect_features_equal_full_panel_rows(tmp_path, monkeypatch):
    # 300 test hours of 4 sensors are two detection blocks, 128 and 172 hours
    cfg = _small_cfg(tmp_path / "run", n_test=300)
    generate_stage(cfg)
    impute_stage(cfg)
    train_stage(cfg)
    seen = []
    detect_stream = ecad.cli.detect_stream

    def recording_detect_stream(ensemble, times, X, y, *args, **kwargs):
        seen.append((times, X, y))
        return detect_stream(ensemble, times, X, y, *args, **kwargs)

    monkeypatch.setattr(ecad.cli, "detect_stream", recording_detect_stream)
    detect_stage(cfg)

    run = tmp_path / "run"
    train = load_panel(run / ARTIFACTS["completed_panel"])
    test = load_panel(run / ARTIFACTS["test_panel"])
    sensors = load_sensors(run / ARTIFACTS["sensors"])
    neighbors = neighbor_sets(sensors, cfg.features.neighbor_size)
    times, X, y = build_features(np.vstack([train, test]), neighbors, cfg.features.n_lags)
    test_rows = times >= len(train)
    assert [len(block[0]) for block in seen] == [128, 172]
    for i, whole in enumerate((times[test_rows], X[test_rows], y[test_rows])):
        assert np.array_equal(np.concatenate([block[i] for block in seen]), whole)

    # the blocks, sharing one score store, write what one call over every test row gives
    ensemble = load_ensemble(run / ARTIFACTS["ensemble"])[0]
    whole = detect_stream(ensemble, times[test_rows], X[test_rows], y[test_rows], cfg.detector.alpha)
    columns = {"t": np.int64, "k": np.int64, "test_score": float, "p_value": float, "flagged": bool}
    for name, written in zip(columns, read_csv(run / ARTIFACTS["detections"], columns)):
        assert np.array_equal(written, getattr(whole, name)), name
    assert whole.flagged.any()


def test_detect_memory_does_not_grow_with_the_test_horizon(tmp_path):
    # features of 10 lags x 6 neighbours, 480 bytes a point: the test feature
    # grid of a whole horizon made the stage's peak 3.2 times as high at 4x
    # the hours (2.6 and 8.3 MB); built a block of hours at a time it is 1.26
    # times (2.2 and 2.7 MB), and what grows is the test panel and the
    # detection columns
    peaks = []
    for n_test in (600, 2400):
        cfg = _small_cfg(tmp_path / str(n_test), n_sensors=6, n_train=100, n_test=n_test)
        cfg = dataclasses.replace(cfg, features=FeatureConfig(n_lags=10, neighbor_size=6))
        for stage in (generate_stage, impute_stage, train_stage):
            stage(cfg)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            detect_stage(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_detect_failing_mid_stream_leaves_the_previous_detections(tmp_path, monkeypatch):
    # 300 test hours of 4 sensors are two detection blocks; the second one fails
    cfg = _small_cfg(tmp_path / "run", n_test=300)
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS["detections"]
    before = path.read_bytes()
    calls, detect_stream = [], ecad.cli.detect_stream

    def failing_detect_stream(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("second block fails")
        return detect_stream(*args, **kwargs)

    monkeypatch.setattr(ecad.cli, "detect_stream", failing_detect_stream)
    with pytest.raises(RuntimeError, match="second block fails"):
        detect_stage(cfg)
    assert path.read_bytes() == before


def test_detect_writes_detections_without_holding_the_horizon(tmp_path):
    # 20 sensors at the default 5 lags x 5 neighbours.  Detection columns held
    # for one write at the end, and the test panel copied whole under its lag
    # rows, made the peak grow by 72 bytes a point from 500 to 2000 test hours
    # (2.08 to 4.24 MB); written a block at a time it grows by about 3 (2.00
    # to 2.08 MB): the test panel itself and its parsing
    peaks = []
    for n_test in (500, 2000):
        cfg = _small_cfg(tmp_path / str(n_test), n_sensors=20, n_train=100, n_test=n_test)
        cfg = dataclasses.replace(cfg, features=FeatureConfig(n_lags=5, neighbor_size=5))
        for stage in (generate_stage, impute_stage, train_stage):
            stage(cfg)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            detect_stage(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    added_points = 1500 * 20
    assert peaks[1] - peaks[0] <= 16 * added_points, peaks


def _detect_exit(cfg, tmp_path, capsys):
    """Exit code and stderr of the ``detect`` command run with ``cfg`` as a config file."""
    path = tmp_path / "detect.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    code = main(["detect", "--config", str(path)])
    return code, capsys.readouterr().err


def _replace_cell(path, line_no, column, text):
    lines = path.read_text().splitlines()
    cells = lines[line_no].split(",")
    cells[column] = text
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_column(path, column):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(row[:column] + row[column + 1 :]) + "\n" for row in rows))


def _blank_row(path, line_no):
    lines = path.read_text().splitlines()
    lines[line_no] = ",".join(["NA"] * len(lines[line_no].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _blank_column(path, column):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for row in rows[1:]:
        row[column] = "NA"
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def _repeat_last_row(path):
    text = path.read_text()
    path.write_text(text + text.splitlines()[-1] + "\n")


def _truncate_mid_row(path):
    lines = path.read_text().splitlines()
    middle = lines[len(lines) // 2]
    kept = "\n".join(lines[: len(lines) // 2])
    path.write_text(kept + "\n" + middle[: middle.index(",") + 1])


@pytest.mark.parametrize(
    "stage, artifact, corrupt",
    [
        ("impute", "train_panel", lambda p: _replace_cell(p, 3, 0, "abc")),
        ("train", "completed_panel", lambda p: _replace_cell(p, 3, 0, "abc")),
        ("train", "completed_panel", _truncate_mid_row),
        ("train", "sensors", lambda p: _replace_cell(p, 1, 0, "x0")),
        ("evaluate", "detections", lambda p: _replace_cell(p, 1, 0, "120.5")),
        ("evaluate", "truth", lambda p: _replace_cell(p, 5, 2, "x")),
        ("evaluate", "detections", lambda p: _replace_cell(p, 5, 4, "2")),
        ("evaluate", "detections", lambda p: _replace_cell(p, 5, 3, "nan")),
        ("evaluate", "detections", lambda p: _replace_cell(p, 5, 3, "7.0")),
        ("evaluate", "detections", lambda p: p.write_text(p.read_text().splitlines()[0] + "\n")),
        ("impute", "train_panel", lambda p: _replace_cell(p, 3, 1, "nan")),
        ("detect", "test_panel", lambda p: _replace_cell(p, 3, 1, "inf")),
        ("train", "sensors", lambda p: _drop_column(p, 1)),
        ("impute", "train_panel", lambda p: _blank_row(p, 5)),
        ("impute", "train_panel", lambda p: _blank_column(p, 3)),
        ("evaluate", "detections", _repeat_last_row),
    ],
    ids=[
        "non-numeric-panel",
        "non-numeric-completed",
        "ragged-completed",
        "sensor-id",
        "detection-t",
        "truth-label",
        "detection-flag",
        "detection-p-nan",
        "detection-p-above-one",
        "header-only-detections",
        "nan-panel",
        "inf-panel",
        "sensors-without-lat",
        "fully-missing-row",
        "column-without-observations",
        "duplicate-detection",
    ],
)
def test_corrupt_csv_artifact_is_a_config_error(tmp_path, capsys, stage, artifact, corrupt):
    cfg = _small_cfg(tmp_path / "run", n_sensors=6)
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS[artifact]
    corrupt(path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err and f"artifact {path}:" in err


@pytest.mark.parametrize(
    "stage, artifact",
    [("train", "completed_panel"), ("detect", "completed_panel"), ("detect", "test_panel")],
)
def test_panel_with_a_missing_cell_is_a_config_error(tmp_path, capsys, stage, artifact):
    # the last row of the completed panel is one the test rows' lags read;
    # detect takes that row from the ensemble, so to it the panel has changed
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS[artifact]
    _replace_cell(path, -1, 1, "NA")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    if (stage, artifact) == ("detect", "completed_panel"):
        assert "category=config" in err and f"{path} has changed since ensemble" in err and "rerun train" in err
    else:
        assert "category=config" in err and f"panel {path} has missing entries" in err


def test_detect_rejects_ensemble_that_is_not_an_archive(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    (tmp_path / "run" / ARTIFACTS["ensemble"]).write_text("not an archive\n")
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "not an ensemble artifact" in err
    assert "pickled" not in err


def test_detect_rejects_ensemble_of_other_feature_config(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    other = dataclasses.replace(cfg, features=FeatureConfig(n_lags=3, neighbor_size=3))
    code, err = _detect_exit(other, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err
    assert "trained at features.n_lags 2 and neighbor_size 3, but the config gives 3 and 3" in err
    # lag depth and neighbourhood swapped: as many features per point, but
    # other training times (3..119, not 2..119) and other features
    detections = (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes()
    swapped = dataclasses.replace(cfg, features=FeatureConfig(n_lags=3, neighbor_size=2))
    code, err = _detect_exit(swapped, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "n_lags 2 and neighbor_size 3, but the config gives 3 and 2" in err
    assert ARTIFACTS["ensemble"] in err and "rerun train" in err
    assert (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes() == detections


def test_detect_rejects_ensemble_of_other_horizon(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    # a shorter training panel in the same directory: the ensemble's scores reach
    # past it; a longer one: its last 30 rows would never have been scored
    for n_train in (100, 150):
        regenerated = _small_cfg(tmp_path / "run", n_train=n_train)
        generate_stage(regenerated)
        impute_stage(regenerated)
        code, err = _detect_exit(regenerated, tmp_path, capsys)
        assert code == 2
        assert "category=config" in err
        assert f"{tmp_path / 'run' / ARTIFACTS['completed_panel']} has changed since ensemble" in err
        assert ARTIFACTS["ensemble"] in err and "rerun train" in err


def test_detect_rejects_ensemble_of_other_sensor_count(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    wider = _small_cfg(tmp_path / "wider", n_sensors=5)
    generate_stage(wider)
    impute_stage(wider)
    train_stage(wider)
    shutil.copy(tmp_path / "wider" / ARTIFACTS["ensemble"], tmp_path / "run" / ARTIFACTS["ensemble"])
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err
    assert f"{ARTIFACTS['completed_panel']} has changed since ensemble" in err and "rerun train" in err


def _rewrite_ensemble(path, corrupt):
    """Apply ``corrupt`` to the dict of an ensemble artifact's arrays and save it back."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    corrupt(arrays)
    np.savez(path, **arrays)


def test_detect_rejects_ensemble_with_non_finite_weights(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    _rewrite_ensemble(
        tmp_path / "run" / ARTIFACTS["ensemble"],
        lambda a: a.update(model0_weights=np.full_like(a["model0_weights"], np.nan)),
    )
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "model0_weights holds non-finite" in err


def test_detect_rejects_ensemble_with_mis_shaped_weights(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    _rewrite_ensemble(
        tmp_path / "run" / ARTIFACTS["ensemble"],
        lambda a: a.update(model2_weights=a["model2_weights"][:-1], model2_x_mean=a["model2_x_mean"][:-1]),
    )
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "model2_weights has shape (5,), expected (6,)" in err


def _edit_meta(edit):
    """An ensemble corruption that applies ``edit`` to the decoded meta record."""

    def corrupt(arrays):
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))

    return corrupt


def _replace_meta(record):
    """An ensemble corruption that replaces the meta record with ``record``."""

    def corrupt(arrays):
        arrays["meta"] = np.array(json.dumps(record))

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_edit_meta(lambda m: m["backend"].update(bogus=1)), "malformed"),
        (_edit_meta(lambda m: m["aggregator"].update(bogus=1)), "malformed"),
        (_edit_meta(lambda m: m.pop("backend")), "lacks the key 'backend'"),
        (_edit_meta(lambda m: m.pop("n_models")), "lacks the key 'n_models'"),
        (_edit_meta(lambda m: m["aggregator"].update(kind="bogus")), "unknown aggregator 'bogus'"),
        (_edit_meta(lambda m: m["backend"].update(mlp_hidden=3)), "malformed"),
        (_edit_meta(lambda m: m["backend"].update(ridge_lambda="x")), "malformed"),
        (_replace_meta([]), "not a JSON object"),
        (_replace_meta(5), "not a JSON object"),
        (_edit_meta(lambda m: m.update(seed=1.5)), "seed must be an integer, got 1.5"),
        (_edit_meta(lambda m: m.update(n_models="x")), "n_models must be an integer, got 'x'"),
        (_edit_meta(lambda m: m.update(n_sensors=True)), "n_sensors must be an integer, got True"),
        (_edit_meta(lambda m: m.pop("inputs")), "lacks the key 'inputs'"),
        (_edit_meta(lambda m: m.update(inputs=["sensors.csv"])), "inputs must map file names to digests"),
        (_edit_meta(lambda m: m["inputs"].update({"sensors.csv": 5})), "inputs must map file names to digests"),
    ],
    ids=[
        "unknown-backend-key",
        "unknown-aggregator-key",
        "no-backend",
        "no-n-models",
        "bogus-aggregator",
        "scalar-mlp-hidden",
        "string-ridge-lambda",
        "list-meta",
        "number-meta",
        "float-seed",
        "string-n-models",
        "bool-n-sensors",
        "no-inputs",
        "list-inputs",
        "number-digest",
    ],
)
def test_detect_rejects_ensemble_with_corrupt_meta(tmp_path, capsys, corrupt, message):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS["ensemble"]
    _rewrite_ensemble(path, corrupt)
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and f"artifact {path}:" in err and message in err


def test_detect_rejects_ensemble_with_unequal_sensor_scores(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS["ensemble"]
    _rewrite_ensemble(path, lambda a: a.update({k: a[k][1:] for k in ("score_times", "score_sensors", "score_values")}))
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and str(path) in err
    assert "score_times does not hold the grid rows" in err


def test_detect_rejects_ensemble_with_unordered_available_times(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS["ensemble"]
    _rewrite_ensemble(path, lambda a: a.update(available=a["available"][::-1].copy()))
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and f"artifact {path}:" in err
    assert "available must be the consecutive times" in err


def test_detect_rejects_training_panel_of_other_sensor_count(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    wider = _small_cfg(tmp_path / "wider", n_sensors=5)
    generate_stage(wider)
    impute_stage(wider)
    shutil.copy(
        tmp_path / "wider" / ARTIFACTS["completed_panel"],
        tmp_path / "run" / ARTIFACTS["completed_panel"],
    )
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err
    assert f"{ARTIFACTS['completed_panel']} has changed since ensemble" in err and "rerun train" in err


def test_detect_rejects_sensor_file_of_other_sensor_count(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    wider = _small_cfg(tmp_path / "wider", n_sensors=5)
    generate_stage(wider)
    shutil.copy(tmp_path / "wider" / ARTIFACTS["sensors"], tmp_path / "run" / ARTIFACTS["sensors"])
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err
    assert f"{ARTIFACTS['sensors']} has changed since ensemble" in err and "rerun train" in err


def _reverse_coordinates(run):
    """Rewrite the sensor file with its coordinates in reverse order: as many sensors, other neighbours."""
    path = run / ARTIFACTS["sensors"]
    header, *rows = path.read_text().splitlines()
    ids, coords = zip(*(row.split(",", 1) for row in rows))
    path.write_text("\n".join([header, *(f"{k},{xy}" for k, xy in zip(ids, reversed(coords)))]) + "\n")


def _regenerate_with_seed_8(run):
    other = _small_cfg(run, seed=8)
    generate_stage(other)
    impute_stage(other)


@pytest.mark.parametrize(
    "change, changed",
    [(_reverse_coordinates, "sensors"), (_regenerate_with_seed_8, "completed_panel")],
    ids=["reversed-coordinates", "regenerated-without-train"],
)
def test_detect_rejects_training_inputs_changed_since_train(tmp_path, capsys, change, changed):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    detections = (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes()
    change(tmp_path / "run")
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "rerun train" in err
    assert f"{tmp_path / 'run' / ARTIFACTS[changed]} has changed since ensemble" in err
    assert (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes() == detections


def test_detect_does_not_parse_the_training_panel(tmp_path, monkeypatch):
    # the ensemble carries the training panel's last rows; detect only hashes the file
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    parsed = []

    def recording(reader):
        def read(path, *args, **kwargs):
            parsed.append(Path(path).name)
            return reader(path, *args, **kwargs)

        return read

    for module in (ecad.cli, ecad.panel):
        monkeypatch.setattr(module, "read_csv", recording(module.read_csv))
    monkeypatch.setattr(ecad.cli, "load_panel", recording(ecad.cli.load_panel))
    detections = (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes()
    detect_stage(cfg)
    assert ARTIFACTS["test_panel"] in parsed and ARTIFACTS["completed_panel"] not in parsed
    assert (tmp_path / "run" / ARTIFACTS["detections"]).read_bytes() == detections


def test_detect_rejects_ensemble_with_a_damaged_byte(tmp_path, capsys):
    # one flipped byte inside a member fails the archive's CRC-32 check of that member
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    path = tmp_path / "run" / ARTIFACTS["ensemble"]
    with np.load(path) as data:
        values = data["score_values"].tobytes()
    blob = bytearray(path.read_bytes())
    start = blob.find(values)
    assert start > 0
    blob[start + len(values) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    code, err = _detect_exit(cfg, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and f"artifact {path}:" in err and "score_values" in err


def test_train_rejects_sensor_file_of_other_sensor_count(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    generate_stage(cfg)
    impute_stage(cfg)
    wider = _small_cfg(tmp_path / "wider", n_sensors=5)
    generate_stage(wider)
    shutil.copy(tmp_path / "wider" / ARTIFACTS["sensors"], tmp_path / "run" / ARTIFACTS["sensors"])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err
    assert ARTIFACTS["sensors"] in err and "lists 5 sensors" in err and ARTIFACTS["completed_panel"] in err


def test_locality_neighborhood_larger_than_the_network_is_a_config_error(tmp_path, capsys):
    payload = {
        "out_dir": str(tmp_path / "run"),
        "scenario": {"n_sensors": 4, "n_train": 120, "n_test": 40, "missing_fraction": 0.2},
        "features": {"n_lags": 2, "neighbor_size": 3},
        "detector": {"locality": {"enabled": True, "neighbor_size": 9}},
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["run-all", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err and "detector.locality.neighbor_size 9" in err
    assert not (tmp_path / "run").exists()
    # a disabled locality's neighbourhood is never built, so it is not checked
    payload["detector"]["locality"]["enabled"] = False
    config.write_text(json.dumps(payload))
    assert load_config(config).detector.locality.neighbor_size == 9
    # nor is that of as_printed, which compares against every sensor
    payload["detector"]["locality"].update(enabled=True, variant="as_printed")
    config.write_text(json.dumps(payload))
    assert main(["run-all", "--config", str(config)]) == 0


def test_detect_rejects_locality_neighborhood_larger_than_the_sensor_file(tmp_path, capsys):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    # the config admits 9 neighbours, but the run's sensor file holds 4 sensors
    wide = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, n_sensors=10),
        detector=dataclasses.replace(
            cfg.detector,
            locality=dataclasses.replace(cfg.detector.locality, enabled=True, neighbor_size=9),
        ),
    )
    detections = tmp_path / "run" / ARTIFACTS["detections"]
    before = detections.read_bytes()
    code, err = _detect_exit(wide, tmp_path, capsys)
    assert code == 2
    assert "category=config" in err and "detector.locality.neighbor_size 9" in err
    assert ARTIFACTS["sensors"] in err
    assert detections.read_bytes() == before


def test_stages_are_idempotent(tmp_path):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    before = {
        name: (tmp_path / "run" / fname).read_bytes()
        for name, fname in ARTIFACTS.items()
        if fname.endswith(".csv") or fname.endswith(".npz")
    }
    run_all(cfg)
    for name, fname in ARTIFACTS.items():
        if name in before:
            assert (tmp_path / "run" / fname).read_bytes() == before[name], fname


def test_impute_accepts_default_missingness_on_small_panel(tmp_path):
    # the independent per-column draws at this size and seed leave training
    # row 354 with all 10 cells masked; inject_missing repairs that row
    cfg = _small_cfg(
        tmp_path / "run", seed=22, n_sensors=10, n_train=400, n_test=300, missing_fraction=0.4
    )
    assert generate_stage(cfg)["missing_per_column"] == 160
    assert impute_stage(cfg)["missing_cells"] == 1600


@pytest.mark.parametrize(
    "overrides",
    [
        {"backend": {"kind": "ridge"}},
        {"backend": {"kind": "mlp", "mlp_hidden": [4], "mlp_epochs": 20, "mlp_learning_rate": 0.05}},
        {"aggregator": {"kind": "median"}},
        {"aggregator": {"kind": "trimmed_mean", "trim_fraction": 0.3}},
    ],
    ids=["ridge", "mlp", "median", "trimmed_mean"],
)
def test_run_all_deterministic_across_directories(tmp_path, overrides):
    cfg_a = _small_cfg(tmp_path / "a", seed=42, **overrides)
    cfg_b = _small_cfg(tmp_path / "b", seed=42, **overrides)
    run_all(cfg_a)
    run_all(cfg_b)
    for fname in [ARTIFACTS[k] for k in ("ensemble", "detections", "report_csv", "pvalues")]:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_train_reports_diverged_mlp_as_config_error(tmp_path, capsys):
    backend = {"kind": "mlp", "mlp_hidden": [64, 64], "mlp_epochs": 20, "mlp_learning_rate": 0.5}
    cfg = _small_cfg(tmp_path / "run", backend=backend)
    generate_stage(cfg)
    impute_stage(cfg)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err and "mlp_learning_rate" in err
    assert not (tmp_path / "run" / ARTIFACTS["ensemble"]).exists()


def test_train_on_a_panel_shorter_than_the_lag_depth_is_a_config_error(tmp_path, capsys):
    short = _small_cfg(tmp_path / "run", n_train=4)
    generate_stage(short)
    impute_stage(short)
    # a config whose own horizon is long enough, run on the 4-row panel
    deeper = dataclasses.replace(_small_cfg(tmp_path / "run"), features=FeatureConfig(n_lags=6, neighbor_size=3))
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config_to_dict(deeper)))
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "stage=train" in err and "category=config" in err
    assert ARTIFACTS["completed_panel"] in err and "lag depth 6 must be smaller than panel length 4" in err
    assert not (tmp_path / "run" / ARTIFACTS["ensemble"]).exists()


def test_train_without_a_leave_one_out_time_is_a_config_error(tmp_path, capsys):
    # 7 training rows at 5 lags leave 2 times, and at this seed the one bag draws both
    payload = {
        "out_dir": str(tmp_path / "run"),
        "scenario": {"n_sensors": 4, "n_train": 7, "n_test": 5, "missing_fraction": 0.0, "truth": {"lag_depth": 2}},
        "features": {"n_lags": 5, "neighbor_size": 2},
        "ensemble": {"n_models": 1},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(path), "--seed", "1"]) == 0
    assert main(["impute", "--config", str(path), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "stage=train" in err and "category=config" in err
    assert "no training time has a leave-one-out model set" in err
    assert not (tmp_path / "run" / ARTIFACTS["ensemble"]).exists()


def test_retrain_refits_from_completed_panel(tmp_path):
    # after a change point, rerunning train refits the ensemble from the completed panel
    cfg = _small_cfg(tmp_path / "run")
    generate_stage(cfg)
    impute_stage(cfg)
    first = train_stage(cfg)
    ensemble_bytes = (tmp_path / "run" / ARTIFACTS["ensemble"]).read_bytes()
    summary = train_stage(cfg)
    assert summary["stage"] == "train"
    assert summary["models"] == first["models"]
    assert (tmp_path / "run" / ARTIFACTS["ensemble"]).read_bytes() == ensemble_bytes


def test_config_defaults_match_operating_point():
    cfg = PipelineConfig()
    assert cfg.ensemble.n_models == 25
    assert cfg.detector.alpha == 0.05
    assert cfg.features.n_lags == 5
    assert cfg.features.neighbor_size == 5
    assert cfg.scenario.n_sensors == 20
    assert cfg.scenario.missing_fraction == 0.4
    assert cfg.scenario.truth.alpha == 0.01
    assert cfg.scenario.truth.lag_depth == 3
    assert cfg.scenario.truth.neighborhood_size == 4
    assert cfg.detector.locality.enabled is False
    assert cfg.detector.exclude_flagged_from_window is False


def test_run_all_default_scenario_beats_baseline(tmp_path):
    # the zero-required-fields entry point: run-all --seed N on pure defaults
    cfg = load_config(None, seed=7, out_dir=str(tmp_path / "run"))
    summaries = run_all(cfg)
    report = json.loads((tmp_path / "run" / ARTIFACTS["report_json"]).read_text())
    agg = report["aggregate"]
    assert agg["mean_f1"] > agg["mean_rguess_f1"]
    assert summaries[1]["missing_cells"] == 20 * 400


def test_load_config_overrides_and_validation(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "scenario": {"n_sensors": 5}}))
    cfg = load_config(path, seed=9, out_dir=str(tmp_path / "o"))
    assert cfg.seed == 9
    assert cfg.scenario.n_sensors == 5
    assert cfg.out_dir == str(tmp_path / "o")
    # stage seeds were derived from the master seed
    assert cfg.scenario.seed is not None
    assert cfg.ensemble.seed is not None
    assert cfg.backend.seed is not None

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"n_sensor": 5}}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(bad)
    # the imputer's sweep rule is fixed: a config has no imputer section
    bad.write_text(json.dumps({"imputer": {"max_iters": 3}}))
    with pytest.raises(ValueError, match=r"unknown config keys at root: \['imputer'\]"):
        load_config(bad)
    capsys.readouterr()
    assert main(["impute", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "category=config" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"detector": {"alpha": 2.0}}))
    with pytest.raises(ValueError, match="alpha"):
        load_config(invalid)
    # the config is checked when it is built, not only by load_config
    with pytest.raises(ValueError, match="alpha"):
        config_from_dict({"detector": {"alpha": 2.0}})

    # configs that would fail only in a later stage: no test rows to detect on,
    # and a truth lag depth that reaches past the panel
    for payload, message in [
        ({"scenario": {"n_test": 0}}, "scenario.n_test must be >= 1"),
        ({"scenario": {"n_train": 60, "n_test": 20, "truth": {"lag_depth": 500}}}, "truth lag depth 500"),
        ({"scenario": {"n_train": 60, "n_test": 20, "truth": {"lag_depth": 80}}}, "truth lag depth 80"),
    ]:
        invalid.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["generate", "--config", str(invalid), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and message in err

    # a value of the wrong JSON type is a config error naming the key, not a traceback
    for payload, key in [
        ({"backend": {"mlp_hidden": 3}}, "backend.mlp_hidden"),
        ({"ensemble": {"n_models": "5"}}, "ensemble.n_models"),
        ({"detector": {"alpha": "0.1"}}, "detector.alpha"),
        ({"features": {"n_lags": None}}, "features.n_lags"),
    ]:
        invalid.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["generate", "--config", str(invalid), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and f"config key {key} must be of type" in err


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BackendSpec(kind="bogus"), "unknown backend kind"),
        (lambda: AggregatorSpec(kind="bogus"), "unknown aggregator"),
        (lambda: LocalityConfig(variant="bogus"), "unknown locality variant"),
        (lambda: ErrorSpec("ar1", 1.0), r"\|rho\| < 1"),
        (lambda: InjectionSpec(region="bogus"), "unknown injection region"),
        (lambda: TruthSpec(lag_depth=0), "truth lag depth must be >= 1"),
        (lambda: ScenarioConfig(model="chaos"), "unknown scenario model"),
        (lambda: ScenarioConfig(n_sensors=1), "1 columns of 600 cells cannot cover every row"),
        (lambda: ScenarioConfig(n_sensors=2, missing_fraction=0.6), "2 columns of 400 cells cannot"),
        (lambda: ScenarioConfig(n_train=3, missing_fraction=0.5), "leaves fewer than 2 observed per column"),
        (lambda: EnsembleConfig(n_models=0), "n_models must be >= 1"),
        (lambda: FeatureConfig(n_lags=0), "feature lag depth must be >= 1"),
        (lambda: DetectorConfig(alpha=2.0), r"alpha must be in \(0, 1\)"),
        (lambda: PipelineConfig(features=FeatureConfig(neighbor_size=30)), "exceeds scenario.n_sensors 20"),
    ],
    ids=[
        "backend",
        "aggregator",
        "locality",
        "error",
        "injection",
        "truth",
        "scenario",
        "scenario-one-sensor",
        "scenario-two-sensors",
        "scenario-short-panel",
        "ensemble",
        "features",
        "detector",
        "pipeline",
    ],
)
def test_every_spec_refuses_an_invalid_value_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_truth_neighborhood_larger_than_the_network_names_both_keys(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": {"n_sensors": 2, "missing_fraction": 0.0}}))
    assert main(["run-all", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "category=config" in err
    assert "scenario.truth.neighborhood_size 4 exceeds scenario.n_sensors 2" in err


@pytest.mark.parametrize(
    "section, key, build, message",
    [
        (("backend",), "ridge_lambda", BackendSpec, "ridge_lambda must be >= 0"),
        (("backend",), "mlp_learning_rate", BackendSpec, "mlp_learning_rate must be > 0"),
        (("scenario",), "noise_sigma", ScenarioConfig, "noise_sigma must be >= 0"),
        (("scenario", "injection"), "magnitude_sigma", InjectionSpec, "magnitude_sigma must be > 0"),
    ],
    ids=["ridge_lambda", "mlp_learning_rate", "noise_sigma", "magnitude_sigma"],
)
def test_nan_config_values_are_refused(tmp_path, section, key, build, message):
    # NaN fails every comparison, so a range check written as `x < 0` lets it through
    with pytest.raises(ValueError, match=message):
        build(**{key: float("nan")})
    payload = {key: float("nan")}
    for name in reversed(section):
        payload = {name: payload}
    with pytest.raises(ValueError, match=message):
        config_from_dict(payload)
    # Python's json reads these constants, but JSON has none of them
    path = tmp_path / "cfg.json"
    for constant in ("NaN", "Infinity", "-Infinity"):
        path.write_text(json.dumps(payload).replace("NaN", constant))
        with pytest.raises(ValueError, match=f"not valid JSON: {constant} is not a JSON number"):
            load_config(path)


def test_explicit_stage_seeds_survive_resolution(tmp_path):
    path = tmp_path / "cfg.json"
    payload = {"seed": 3, "scenario": {"seed": 77}, "ensemble": {"seed": 5}, "backend": {"seed": 6}}
    path.write_text(json.dumps(payload))
    cfg = load_config(path)
    assert (cfg.scenario.seed, cfg.ensemble.seed, cfg.backend.seed) == (77, 5, 6)


def test_summary_lines_are_machine_parsable(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--out", str(out), "--seed", "5"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(part.split("=", 1) for part in line.split())
    assert fields["stage"] == "generate"
    assert fields["status"] == "ok"
    assert int(fields["sensors"]) == 20
    # the stage's wall time and the process's peak RSS, in seconds and MB
    assert 0 < float(fields["wall_s"]) < 60
    assert 1 < float(fields["rss_mb"]) < 1e5


def test_run_all_prints_finished_stages_and_names_the_failing_one(tmp_path, capsys):
    # 7 training hours less 5 lags leave 2 times, both in the one bootstrap bag,
    # so train fails after generate and impute have written their artifacts
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "scenario": {"n_sensors": 4, "n_train": 7, "n_test": 5},
        "ensemble": {"n_models": 1},
        "features": {"n_lags": 5, "neighbor_size": 4},
    }))
    out = tmp_path / "run"
    assert main(["run-all", "--seed", "1", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines] == ["stage=generate", "stage=impute"]
    assert all(line.endswith(" status=ok") for line in lines)
    assert captured.err.startswith("stage=train status=error category=config ")
    assert "no training time has a leave-one-out model set" in captured.err
    assert (out / ARTIFACTS["completed_panel"]).exists()
    assert not (out / ARTIFACTS["ensemble"]).exists()


def test_a_wrapper_on_a_stage_reaches_run_all_and_the_run_all_command(tmp_path, monkeypatch, capsys):
    # both look a stage up by name when it runs, so a wrapper set on the module
    # attribute (as a tracer installs one) sees every call
    calls = []
    train = ecad.cli.train_stage

    def wrapped(cfg):
        calls.append(cfg.out_dir)
        return train(cfg)

    monkeypatch.setattr(ecad.cli, "train_stage", wrapped)
    run_all(_small_cfg(tmp_path / "a"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(config_to_dict(_small_cfg(tmp_path / "b"))))
    assert main(["run-all", "--config", str(config)]) == 0
    assert calls == [str(tmp_path / "a"), str(tmp_path / "b")]
    assert "stage=train " in capsys.readouterr().out


def test_retrain_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrain"])
    assert exc.value.code == 2 and "invalid choice: 'retrain'" in capsys.readouterr().err


def test_detections_csv_sorted_by_time_then_sensor(tmp_path):
    cfg = _small_cfg(tmp_path / "run")
    run_all(cfg)
    rows = (tmp_path / "run" / ARTIFACTS["detections"]).read_text().strip().split("\n")[1:]
    keys = [(int(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
    assert keys == sorted(keys)


def test_run_all_with_mlp_backend(tmp_path):
    payload = {
        "seed": 2,
        "out_dir": str(tmp_path / "run"),
        "scenario": {"n_sensors": 4, "n_train": 80, "n_test": 30, "missing_fraction": 0.2},
        "features": {"n_lags": 2, "neighbor_size": 2},
        "ensemble": {"n_models": 5},
        "backend": {"kind": "mlp", "mlp_hidden": [4], "mlp_epochs": 30, "mlp_learning_rate": 0.05},
    }
    cfg = resolve_seeds(config_from_dict(payload))
    summaries = run_all(cfg)
    assert summaries[3]["points"] == 4 * 30
    report = json.loads((tmp_path / "run" / ARTIFACTS["report_json"]).read_text())
    assert report["config"]["backend"]["kind"] == "mlp"


@pytest.mark.parametrize("variant", ["neighbor_sensors", "as_printed"])
def test_run_all_with_locality_enabled(tmp_path, variant):
    payload = {
        "seed": 1,
        "out_dir": str(tmp_path / "run"),
        "scenario": {"n_sensors": 4, "n_train": 120, "n_test": 40, "missing_fraction": 0.2},
        "features": {"n_lags": 2, "neighbor_size": 3},
        "ensemble": {"n_models": 8},
        "detector": {
            "alpha": 0.05,
            "locality": {"enabled": True, "n_lags": 3, "neighbor_size": 2, "variant": variant},
        },
    }
    cfg = resolve_seeds(config_from_dict(payload))
    summaries = run_all(cfg)
    assert summaries[3]["points"] == 4 * 40
    # local comparison sets are larger than one sensor's window, so counts in
    # the CSV reflect the union
    rows = (tmp_path / "run" / ARTIFACTS["detections"]).read_text().strip().split("\n")[1:]
    assert len(rows) == 4 * 40


def test_no_stage_imports_numpy_ma(tmp_path):
    """np.unique imports numpy.ma (11-15 ms and about 1 MB in a fresh process);
    each stage, in a process of its own, must run without it.  The median
    aggregator and locality reach every distinct-value call site."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": {"n_sensors": 4, "n_train": 120, "n_test": 60, "missing_fraction": 0.2},
        "features": {"n_lags": 2, "neighbor_size": 3},
        "ensemble": {"n_models": 8, "aggregator": {"kind": "median"}},
        "detector": {"locality": {"enabled": True, "n_lags": 2, "neighbor_size": 3}},
    }))
    src = str(Path(ecad.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for stage in ("generate", "impute", "train", "detect", "evaluate"):
        argv = [stage, "--config", str(config), "--out", str(tmp_path / "run"), "--seed", "3"]
        script = (
            "import sys; from ecad.cli import main; "
            f"sys.exit(main({argv!r}) or 10 * ('numpy.ma' in sys.modules))"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, (stage, result.returncode, result.stderr)


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracing.py wraps ecad functions and methods by name, so deleting
    or renaming one of them makes the benchmark's traced runs fail at install."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    src = str(Path(ecad.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        f"import sys; sys.path.insert(0, {str(perfbench)!r}); "
        "import ecad, ecad.cli, tracing; tracing.install(tracing.Tracer(0), ecad)"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
