"""Output checks computed apart from the program.

Every check reads the run's artifacts with its own code (``csv`` and
``numpy.load``), never through ``ecad``, and recomputes what it compares
against: features from the panels, ridge and MLP predictions from the saved
weights, leave-one-out sets from the saved bootstrap bags, p-values by
replaying the sliding windows, and precision/recall/F1 from the detections and
the ground truth.  Each check returns ``(passed, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

SAMPLE_ROWS = 48
SCORE_TOL = 1e-8  # predictions are recomputed in another summation order
METRIC_TOL = 1e-12  # precision/recall/F1 are recomputed in another algebraic form
# Conformal p-values keep the flag rate near alpha on clean data.  The band is
# the one the project's acceptance gate uses for alpha = 0.05: [0.02, 0.08].
FLAG_RATE_BAND = (0.4, 1.6)


# ---------------------------------------------------------------- readers


def read_panel(path: Path, missing: str) -> tuple[np.ndarray, np.ndarray]:
    """(values with NaN at missing cells, observed mask) of a panel CSV."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    values = np.array([[math.nan if c == missing else float(c) for c in row] for row in rows])
    return values, ~np.isnan(values)


def read_sensors(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: int(r["sensor_id"]))
    return np.array([[float(r["lat"]), float(r["lon"])] for r in rows])


def read_detections(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "t": np.array([int(r["t"]) for r in rows], dtype=np.int64),
        "k": np.array([int(r["k"]) for r in rows], dtype=np.int64),
        "score": np.array([float(r["test_score"]) for r in rows]),
        "p": np.array([float(r["p_value"]) for r in rows]),
        "flagged": np.array([r["flagged"] == "1" for r in rows]),
    }


def read_truth(path: Path) -> dict[tuple[int, int], bool]:
    with open(path, newline="") as fh:
        return {(int(r["t"]), int(r["k"])): r["label"] == "1" for r in csv.DictReader(fh)}


def read_ensemble(path: Path) -> dict:
    """Meta, bootstrap bags, training scores and per-model weights from the .npz."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        out = {name: data[name] for name in ("available", "in_bag", "score_times", "score_sensors", "score_values")}
        models: list[dict] = [{} for _ in range(int(meta["n_models"]))]
        for key in data.files:
            if key.startswith("model"):
                head, _, field = key.partition("_")
                models[int(head[len("model"):])][field] = data[key]
    out["meta"] = meta
    out["models"] = models
    return out


# ---------------------------------------------------------------- recomputation


def neighbours(coords: np.ndarray, size: int) -> list[np.ndarray]:
    """Nearest ``size`` sensors of each sensor (itself first), ties by id."""
    ids = np.arange(len(coords))
    out = []
    for k in ids:
        dist = np.hypot(coords[:, 0] - coords[k, 0], coords[:, 1] - coords[k, 1])
        out.append(np.lexsort((ids, dist))[:size])
    return out


def features(values: np.ndarray, t: int, k: int, nbrs: list[np.ndarray], n_lags: int) -> np.ndarray:
    """Neighbour-major lags t-1 .. t-n_lags of each neighbour of k."""
    return np.array([values[t - lag, j] for j in nbrs[k] for lag in range(1, n_lags + 1)])


def model_predict(state: dict, X: np.ndarray) -> np.ndarray:
    if "weights" in state:  # ridge
        return (X - state["x_mean"]) @ state["weights"] + float(state["y_mean"])
    a = (X - state["x_mean"]) / state["x_std"]
    n_layers = sum(1 for key in state if key.startswith("W"))
    for i in range(n_layers):
        a = a @ state[f"W{i}"] + state[f"b{i}"]
        if i < n_layers - 1:
            a = np.maximum(a, 0.0)
    return float(state["y_mean"]) + float(state["y_std"]) * a[:, 0]


def excluded(ens: dict) -> np.ndarray:
    """(n_models, n_available): True where model b's bag leaves the time out."""
    available = ens["available"]
    out = np.ones((len(ens["in_bag"]), available.size), dtype=bool)
    for b, bag in enumerate(ens["in_bag"]):
        out[b, np.searchsorted(available, bag)] = False
    return out


def aggregate(preds: np.ndarray, kind: str, trim: float) -> np.ndarray:
    """Combine (m, n) model predictions column-wise."""
    if kind == "mean":
        return preds.mean(axis=0)
    if kind == "median":
        return np.median(preds, axis=0)
    cut = int(math.floor(trim * preds.shape[0]))
    return np.sort(preds, axis=0)[cut: preds.shape[0] - cut].mean(axis=0)


def nearest_rank(level: Fraction, n: int) -> int:
    """0-based index of the ceil(level * n)-th smallest of n values."""
    return max(0, math.ceil(level * n) - 1)


def sample(n: int, seed: int, salt: int) -> np.ndarray:
    """Sorted sample of row indices: the first, the last and SAMPLE_ROWS others."""
    rng = np.random.default_rng([seed, salt])
    pick = rng.choice(n, size=min(n, SAMPLE_ROWS), replace=False)
    return np.unique(np.concatenate([[0, n - 1], pick]))


def sampled_test_rows(n_rows: int, seed: int) -> np.ndarray:
    return sample(n_rows, seed, 2)


# ---------------------------------------------------------------- the run's artifacts


class Artifacts:
    """The artifacts of one run and the workload settings they were made with."""

    def __init__(self, out: Path, config: dict, seed: int):
        self.out = Path(out)
        self.config = config
        self.seed = seed
        token = config["missing_token"]
        self.train, self.train_mask = read_panel(self.out / "train_panel.csv", token)
        self.completed, self.completed_mask = read_panel(self.out / "train_panel_completed.csv", token)
        self.test, _ = read_panel(self.out / "test_panel.csv", token)
        self.coords = read_sensors(self.out / "sensors.csv")
        self.det = read_detections(self.out / "detections.csv")
        self.truth = read_truth(self.out / "truth.csv")
        self.ens = read_ensemble(self.out / "ensemble.npz")
        with open(self.out / "report.csv", newline="") as fh:
            self.report = list(csv.DictReader(fh))
        self.report_json = json.loads((self.out / "report.json").read_text())
        self.n_lags = config["features"]["n_lags"]
        self.nbrs = neighbours(self.coords, config["features"]["neighbor_size"])
        self.alpha = config["detector"]["alpha"]
        agg = config["ensemble"]["aggregator"]
        self.agg_kind, self.trim = agg["kind"], agg["trim_fraction"]

    def model_preds(self, X: np.ndarray) -> np.ndarray:
        return np.stack([model_predict(state, X) for state in self.ens["models"]])


def check_imputation(a: Artifacts) -> tuple[bool, str]:
    if a.completed.shape != a.train.shape or not a.completed_mask.all():
        return False, f"completed panel shape {a.completed.shape} or missing cells"
    obs = a.train_mask
    same = a.train[obs].view(np.uint64) == a.completed[obs].view(np.uint64)
    return bool(same.all()), f"{int((~same).sum())} of {int(obs.sum())} observed cells changed"


def check_training_scores(a: Artifacts) -> tuple[bool, str]:
    ens = a.ens
    times, sensors, scores = ens["score_times"], ens["score_sensors"], ens["score_values"]
    excl = excluded(ens)
    usable = excl.any(axis=0)
    K = a.completed.shape[1]
    expected_rows = int(usable.sum()) * K
    if times.size != expected_rows:
        return False, f"{times.size} training scores, expected {expected_rows}"
    idx = sample(times.size, a.seed, 1)
    X = np.stack([features(a.completed, times[i], sensors[i], a.nbrs, a.n_lags) for i in idx])
    y = a.completed[times[idx], sensors[idx]]
    preds = a.model_preds(X)
    pos = np.searchsorted(ens["available"], times[idx])
    expect = np.array(
        [abs(y[j] - aggregate(preds[excl[:, pos[j]], j: j + 1], a.agg_kind, a.trim)[0]) for j in range(idx.size)]
    )
    err = float(np.max(np.abs(expect - scores[idx])))
    return err <= SCORE_TOL, f"max |error| {err:.3g} over {idx.size} sampled rows"


def check_test_scores(a: Artifacts) -> tuple[bool, str]:
    det = a.det
    panel = np.vstack([a.completed, a.test])
    idx = sampled_test_rows(det["t"].size, a.seed)
    X = np.stack([features(panel, det["t"][i], det["k"][i], a.nbrs, a.n_lags) for i in idx])
    y = panel[det["t"][idx], det["k"][idx]]
    preds = a.model_preds(X)  # (B, n)
    excl = excluded(a.ens)
    loo = np.stack([aggregate(preds[excl[:, u]], a.agg_kind, a.trim) for u in np.flatnonzero(excl.any(axis=0))])
    level = 1 - Fraction(str(a.alpha))
    q = np.sort(loo, axis=0)[nearest_rank(level, loo.shape[0])]
    err = float(np.max(np.abs(np.abs(y - q) - det["score"][idx])))
    return err <= SCORE_TOL, f"max |error| {err:.3g} over {idx.size} sampled rows"


def check_detection_rows(a: Artifacts) -> tuple[bool, str]:
    n_train, K = a.completed.shape
    n_test = a.test.shape[0]
    t_exp = np.repeat(np.arange(n_train, n_train + n_test), K)
    k_exp = np.tile(np.arange(K), n_test)
    ok = np.array_equal(a.det["t"], t_exp) and np.array_equal(a.det["k"], k_exp)
    return ok, f"{a.det['t'].size} rows, expected {t_exp.size} ordered by (t, k)"


def check_p_values(a: Artifacts) -> tuple[bool, str]:
    """Replay each sensor's sliding window; under locality only the range is checked."""
    p = a.det["p"]
    if a.config["detector"]["locality"]["enabled"]:
        ok = bool(((p >= 0) & (p <= 1)).all())
        return ok, f"range only (locality): {int(((p < 0) | (p > 1)).sum())} outside [0, 1]"
    ens = a.ens
    mismatches = 0
    for k in range(a.completed.shape[1]):
        own = ens["score_sensors"] == k
        order = np.argsort(ens["score_times"][own], kind="stable")
        train_scores = ens["score_values"][own][order]
        rows = np.flatnonzero(a.det["k"] == k)
        test_scores = a.det["score"][rows]
        W = train_scores.size
        seq = np.concatenate([train_scores, test_scores])
        windows = np.lib.stride_tricks.sliding_window_view(seq, W)[: rows.size]
        counts = (windows >= test_scores[:, None]).sum(axis=1)
        expect = np.array([c / W for c in counts.tolist()])
        mismatches += int(np.count_nonzero(expect != p[rows]))
    return mismatches == 0, f"{mismatches} of {p.size} p-values differ from the replayed windows"


def check_flags(a: Artifacts) -> tuple[bool, str]:
    bad = int(np.count_nonzero(a.det["flagged"] != (a.det["p"] <= a.alpha)))
    return bad == 0, f"{bad} rows where flagged != (p <= alpha)"


def recomputed_report(a: Artifacts) -> dict[int, dict[str, float]]:
    per: dict[int, list[int]] = {}
    for t, k, f in zip(a.det["t"].tolist(), a.det["k"].tolist(), a.det["flagged"].tolist()):
        label = a.truth.get((t, k))
        if label is None:
            continue
        c = per.setdefault(k, [0, 0, 0, 0])  # tp, fp, fn, n
        c[0] += label and f
        c[1] += (not label) and f
        c[2] += label and not f
        c[3] += 1
    out = {}
    for k, (tp, fp, fn, n) in sorted(per.items()):
        out[k] = {
            "q": (tp + fn) / n,
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
            "f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
        }
    return out


def check_report(a: Artifacts) -> tuple[bool, str]:
    expect = recomputed_report(a)
    got = {int(r["sensor"]): {key: float(r[key]) for key in ("q", "precision", "recall", "f1")} for r in a.report}
    if sorted(got) != sorted(expect):
        return False, f"report sensors {sorted(got)} != {sorted(expect)}"
    worst = max(abs(got[k][key] - expect[k][key]) for k in expect for key in expect[k])
    baseline = max(
        abs(s["rguess_f1"] - (2 * s["q"] / (s["q"] + 1) if s["q"] > 0 else 0.0))
        for s in a.report_json["per_sensor"]
    )
    ok = worst <= METRIC_TOL and baseline <= METRIC_TOL
    return ok, f"max |error| {worst:.3g} in report.csv, {baseline:.3g} in the 2q/(q+1) baseline"


def check_quality(a: Artifacts) -> tuple[bool, str]:
    """Clean data: flag rate near alpha.  Injected anomalies: F1 beats always-flag."""
    if a.config["scenario"]["injection"]["rate"] == 0:
        rate = float(a.det["flagged"].mean())
        lo, hi = (f * a.alpha for f in FLAG_RATE_BAND)
        return lo <= rate <= hi, f"flag rate {rate:.4f}, band [{lo:.3f}, {hi:.3f}] around alpha"
    rep = recomputed_report(a)
    f1 = float(np.mean([r["f1"] for r in rep.values()]))
    base = float(np.mean([2 * r["q"] / (r["q"] + 1) for r in rep.values()]))
    return f1 > base, f"mean F1 {f1:.4f} vs always-flag F1 {base:.4f}"


CHECKS = {
    "imputation_observed_cells": check_imputation,
    "training_loo_scores": check_training_scores,
    "detection_rows": check_detection_rows,
    "test_scores": check_test_scores,
    "p_values": check_p_values,
    "flags": check_flags,
    "report": check_report,
    "quality": check_quality,
}


def run_checks(out: Path, config: dict, seed: int) -> list[tuple[str, bool, str]]:
    """Every check on one run's artifacts, as (name, passed, detail)."""
    a = Artifacts(out, config, seed)
    results = []
    for name, check in CHECKS.items():
        try:
            passed, detail = check(a)
        except (ValueError, IndexError, KeyError) as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results


def fingerprint(out: Path) -> dict:
    """Result fingerprint kept for reference: flag rate, mean F1, detections hash."""
    det = read_detections(Path(out) / "detections.csv")
    report = json.loads((Path(out) / "report.json").read_text())
    return {
        "flag_rate": float(det["flagged"].mean()),
        "mean_f1": report["aggregate"]["mean_f1"],
        "detections_sha256": hashlib.sha256((Path(out) / "detections.csv").read_bytes()).hexdigest(),
    }
