"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import ecad
from ecad.backends import BackendSpec, fit, init_mlp_params
from ecad.cli import ARTIFACTS, run_all
from ecad.config import config_from_dict, resolve_seeds
from ecad.ensemble import train_ensemble
from ecad.evaluation import rguess_expected_f1
from ecad.imputation import impute
from ecad.panel import build_features, neighbor_sets
from ecad.scenario import (
    ErrorSpec,
    ScenarioConfig,
    generate,
    inject_missing,
    label_ground_truth,
)

from _oracles import gauss_solve, loo_predict, mlp_loss, mlp_loss_and_gradients, p_value


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _calibration_flag_rate(seed: int, error: ErrorSpec, missing_fraction: float = 0.0) -> float:
    cfg = ScenarioConfig(
        n_sensors=5,
        n_train=1500,
        n_test=2000,
        model="linear_neighbor_lag",
        noise_sigma=1.0,
        error=error,
        seed=seed,
    )
    values, coords, _ = generate(cfg)
    if missing_fraction:
        completed, _ = impute(inject_missing(values[: cfg.n_train], missing_fraction, seed))
        values = np.vstack([completed, values[cfg.n_train :]])
    neighbors = neighbor_sets(coords, 5)
    times, X, y = build_features(values, neighbors, 5)
    train_sel = times < cfg.n_train
    ensemble = train_ensemble(values[: cfg.n_train], neighbors, 5, BackendSpec(kind="ridge"), 25, seed=seed + 1000)
    test_sel = ~train_sel
    detections = ecad.detect_stream(ensemble, times[test_sel], X[test_sel], y[test_sel], alpha=0.05)
    return float(np.mean([d.flagged for d in detections]))


@pytest.mark.parametrize("error", [ErrorSpec("iid"), ErrorSpec("ar1", rho=0.5)], ids=["iid", "ar1"])
def test_criterion_1_type_one_error_calibration(error):
    start = time.perf_counter()
    rates = [_calibration_flag_rate(seed, error) for seed in range(5)]
    elapsed = time.perf_counter() - start
    mean_rate = float(np.mean(rates))
    ok = 0.02 <= mean_rate <= 0.08 and elapsed < 60.0
    _report(
        f"criterion-1 type-I calibration ({error.kind})",
        ok,
        f"mean flag rate {mean_rate:.4f} over 5 seeds, band [0.02, 0.08], {elapsed:.1f}s < 60s",
    )


def test_type_one_error_with_imputed_training_panel():
    # criterion 1's iid scenario with 40% of the training cells masked and imputed:
    # the training scores of imputed targets are residuals against fitted values,
    # not observations, so the flag rate sits above its complete-panel value
    start = time.perf_counter()
    rates = [_calibration_flag_rate(seed, ErrorSpec("iid"), missing_fraction=0.4) for seed in range(5)]
    elapsed = time.perf_counter() - start
    mean_rate = float(np.mean(rates))
    _report(
        "type-I calibration, imputed training panel",
        0.02 <= mean_rate <= 0.08,
        f"mean flag rate {mean_rate:.4f} over 5 seeds (range {min(rates):.4f}-{max(rates):.4f}), "
        f"40% of training cells imputed, band [0.02, 0.08], {elapsed:.1f}s",
    )


def test_criterion_2_p_value_oracle_equivalence():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(50):
        window = rng.exponential(size=500)
        probe = float(rng.exponential())
        expected = sum(1 for w in window if w >= probe) / 500
        if p_value(window, probe) != expected:
            failures += 1
    _report("criterion-2 p-value oracle", failures == 0, f"{failures}/50 mismatches (exact)")


def _loo_construction_oracle(name, spec, naive_fit):
    """Every training score and ``loo_predict`` of an ensemble against models refitted naively.

    ``naive_fit(X, y, row_idx)`` returns a predictor of one point, fitted on
    the rows ``row_idx`` of (X, y): bag b's rows, a duplicated time's rows repeated.
    """
    rng = np.random.default_rng(77)
    n_times, n_sensors, n_models = 8, 2, 5
    # 3 lags of each sensor's own values: the times 3..10, 3 features per point
    feats = rng.normal(size=(n_times + 3, n_sensors)), np.arange(n_sensors)[:, None], 3
    grid_times, X, y = build_features(*feats)
    # the grid's rows, flat, by time then sensor
    times, sensors = np.repeat(grid_times, n_sensors), np.tile(np.arange(n_sensors), n_times)
    X, y = X.reshape(-1, 3), y.ravel()
    ensemble = train_ensemble(*feats, spec, n_models, seed=123)
    assert (ensemble.plan.multiplicity > 1).any(), "no bag repeats a time"

    # naive oracle: refit every bootstrap model and re-aggregate from scratch
    naive_models = []
    for b in range(n_models):
        idx = [i for bag_t in ensemble.plan.in_bag[b] for i in range(len(y)) if times[i] == bag_t]
        naive_models.append(naive_fit(X, y, idx))

    worst = 0.0
    score_map = {
        (t, k): s
        for t, row in zip(ensemble.usable_times.tolist(), ensemble.scores.tolist())
        for k, s in enumerate(row)
    }
    assert len(score_map) == ensemble.scores.size
    for t, k, x, v in zip(times.tolist(), sensors.tolist(), X, y.tolist()):
        excluded = [b for b in range(n_models) if t not in set(ensemble.plan.in_bag[b].tolist())]
        if not excluded:
            assert (t, k) not in score_map
            continue
        naive_score = abs(v - np.mean([naive_models[b](x) for b in excluded]))
        worst = max(worst, abs(score_map[(t, k)] - naive_score))
    probe_rng = np.random.default_rng(5)
    for t in ensemble.usable_times:
        x = probe_rng.normal(size=3)
        excluded = [b for b in range(n_models) if t not in set(ensemble.plan.in_bag[b].tolist())]
        naive_pred = float(np.mean([naive_models[b](x) for b in excluded]))
        worst = max(worst, abs(loo_predict(ensemble, int(t), x) - naive_pred))
    _report(name, worst <= 1e-10, f"worst |diff| {worst:.2e} <= 1e-10")


def test_criterion_3_loo_construction_oracle():
    def naive_fit(X, y, row_idx):
        Xb, yb = X[row_idx], y[row_idx]
        x_mean, y_mean = Xb.mean(axis=0), yb.mean()
        Xc, yc = Xb - x_mean, yb - y_mean
        w = gauss_solve(Xc.T @ Xc + np.eye(3), Xc.T @ yc)
        return lambda x: float((np.asarray(x) - x_mean) @ w + y_mean)

    spec = BackendSpec(kind="ridge", ridge_lambda=1.0)
    _loo_construction_oracle("criterion-3 LOO construction oracle", spec, naive_fit)


def test_criterion_3_loo_construction_oracle_mlp():
    spec = BackendSpec(kind="mlp", mlp_hidden=(8, 4), mlp_epochs=50, mlp_learning_rate=0.05, seed=3)

    def naive_fit(X, y, row_idx):
        model = fit(spec, X[row_idx], y[row_idx])
        return lambda x: float(model.predict(np.asarray(x)[None, :])[0, 0])

    _loo_construction_oracle("criterion-3 LOO construction oracle (MLP)", spec, naive_fit)


def test_criterion_4_ground_truth_labeler_oracle():
    import math

    rng = np.random.default_rng(404)
    values = rng.normal(size=(50, 5))
    sensors = rng.uniform(size=(5, 2))
    alpha, depth, n_size = 0.01, 3, 4
    labels = label_ground_truth(values, sensors, alpha, depth, n_size)
    neighbors = neighbor_sets(sensors, n_size)
    mismatches = 0
    for t in range(depth, 50):
        for k in range(5):
            pool = sorted(float(values[tt, kk]) for tt in range(t - depth, t) for kk in neighbors[k])
            hi = pool[max(0, math.ceil(round((1 - alpha) * len(pool), 9)) - 1)]
            lo = pool[max(0, math.ceil(round(alpha * len(pool), 9)) - 1)]
            if labels[t, k] != (values[t, k] >= hi or values[t, k] <= lo):
                mismatches += 1
    _report("criterion-4 labeler oracle", mismatches == 0, f"{mismatches} mismatches over 47x5 points")


def test_criterion_5_rguess_formula_vs_reference():
    expected = {0.32: 0.48, 0.38: 0.55, 0.31: 0.48, 0.24: 0.39}
    worst = max(abs(rguess_expected_f1(q) - f1) for q, f1 in expected.items())
    _report("criterion-5 always-flag baseline formula", worst <= 0.01, f"worst |diff| {worst:.4f} <= 0.01")


def _seasonal_trial(seed: int, out_dir: Path) -> tuple[float, float, float]:
    payload = {
        "seed": seed,
        "out_dir": str(out_dir),
        "scenario": {
            "n_sensors": 20,
            "n_train": 1500,
            "n_test": 600,
            "model": "seasonal_nonlinear",
            "noise_sigma": 1.0,
            "injection": {"rate": 0.4, "magnitude_sigma": 8.0, "region": "test"},
            "missing_fraction": 0.4,
            "truth": {"alpha": 0.12, "lag_depth": 5, "neighborhood_size": 4},
        },
    }
    cfg = resolve_seeds(config_from_dict(payload))
    run_all(cfg)
    agg = json.loads((out_dir / ARTIFACTS["report_json"]).read_text())["aggregate"]
    return agg["mean_f1"], agg["mean_rguess_f1"], agg["mean_q"]


def test_criterion_6_detector_beats_biased_baseline(tmp_path):
    start = time.perf_counter()
    results = [_seasonal_trial(seed, tmp_path / f"seed{seed}") for seed in range(3)]
    elapsed = time.perf_counter() - start
    mean_f1 = float(np.mean([r[0] for r in results]))
    mean_rguess = float(np.mean([r[1] for r in results]))
    mean_q = float(np.mean([r[2] for r in results]))
    ok = mean_f1 > mean_rguess and 0.2 <= mean_q <= 0.45
    _report(
        "criterion-6 detector beats always-flag baseline",
        ok,
        f"mean F1 {mean_f1:.3f} > baseline {mean_rguess:.3f} at anomaly fraction "
        f"{mean_q:.3f} (3 seeds, 40% missing, imputed, {elapsed:.1f}s)",
    )


def test_criterion_7_imputation_beats_mean_fill():
    wins = 0
    seeds = [2, 3, 4, 5, 6]
    for seed in seeds:
        rng = np.random.default_rng(100 + seed)
        a = rng.uniform(1.0, 3.0, size=200)
        b = rng.uniform(0.5, 2.0, size=8)
        values = np.outer(a, b)
        masked = inject_missing(values, 0.4, seed=seed)
        held = np.isnan(masked)
        completed, _ = impute(masked)
        rmse = float(np.sqrt(np.mean((completed[held] - values[held]) ** 2)))
        col_means = np.array([values[~held[:, k], k].mean() for k in range(8)])
        baseline = float(
            np.sqrt(np.mean((np.broadcast_to(col_means, values.shape)[held] - values[held]) ** 2))
        )
        wins += int(rmse < baseline)
    _report("criterion-7 imputation beats mean-fill", wins == len(seeds), f"{wins}/{len(seeds)} seeds strictly better")


def test_criterion_8_mlp_gradient_check():
    rng = np.random.default_rng(88)
    h = 1e-6
    worst = 0.0
    for _ in range(3):
        weights, biases = init_mlp_params(3, (4,), rng)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        _, grad_w, grad_b = mlp_loss_and_gradients(weights, biases, X, y)
        for params, grads in ((weights, grad_w), (biases, grad_b)):
            for arr, grad in zip(params, grads):
                flat, gflat = arr.ravel(), grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = mlp_loss(weights, biases, X, y)
                    flat[i] = orig - h
                    down = mlp_loss(weights, biases, X, y)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, rel)
    _report("criterion-8 MLP gradient check", worst < 1e-4, f"worst relative error {worst:.2e} < 1e-4")


def test_criterion_9_run_all_determinism(tmp_path):
    payload = {
        "seed": 31,
        "out_dir": str(tmp_path / "run"),
        "scenario": {"n_sensors": 6, "n_train": 200, "n_test": 100, "missing_fraction": 0.3},
        "features": {"n_lags": 3, "neighbor_size": 3},
        "ensemble": {"n_models": 10},
    }
    cfg = resolve_seeds(config_from_dict(payload))
    run_all(cfg)
    first = {
        name: (tmp_path / "run" / ARTIFACTS[name]).read_bytes()
        for name in ("detections", "report_csv")
    }
    run_all(cfg)
    same = all(
        (tmp_path / "run" / ARTIFACTS[name]).read_bytes() == blob for name, blob in first.items()
    )
    _report("criterion-9 determinism", same, "detections.csv and report.csv byte-identical across 2 runs")
