"""Detection quality metrics: per-sensor precision/recall/F1 as columns, and
the analytic always-flag baseline.

``evaluate_sensors`` counts every sensor's confusion cells in one pass over
the points and returns one array per metric, one entry per sensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import distinct

__all__ = ["rguess_expected_f1", "SensorEvaluation", "evaluate_sensors"]


def rguess_expected_f1(q: float | np.ndarray) -> float | np.ndarray:
    """Best expected F1 of the coin-flip baseline, reached by flagging everything.

    Flagging every observation gives recall 1 and precision q, hence
    F1 = 2q / (q + 1), elementwise for an array of anomaly fractions.
    """
    q = np.asarray(q, dtype=np.float64)
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError(f"anomaly fraction must be in [0, 1], got {q}")
    return 2.0 * q / (q + 1.0)


@dataclass(frozen=True, eq=False)
class SensorEvaluation:
    """Per-sensor metrics as columns, one entry per sensor in ascending id order.

    ``q`` is the sensor's anomaly fraction over its ``n_points`` evaluated
    points.  A metric whose denominator is 0 (no flags, no anomalies, or
    precision and recall both 0) is reported as 0 and marks the sensor
    ``degenerate``, so that "no positives predicted" is distinguishable from a
    genuinely bad detector in reports.
    """

    sensor: np.ndarray
    q: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    rguess_f1: np.ndarray
    degenerate: np.ndarray
    n_points: np.ndarray


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def evaluate_sensors(sensors: np.ndarray, labels: np.ndarray, flags: np.ndarray) -> SensorEvaluation:
    """Per-sensor metrics plus each sensor's anomaly fraction q over the
    evaluated points, from aligned sensor ids, ground-truth labels and flags."""
    sensors = np.asarray(sensors, dtype=np.int64)
    labels = np.asarray(labels, dtype=bool)
    flags = np.asarray(flags, dtype=bool)
    if not (len(sensors) == len(labels) == len(flags)):
        raise ValueError("sensors, labels, and flags must have equal lengths")
    sensor = distinct(sensors)
    index = np.searchsorted(sensor, sensors)

    def count(cell: np.ndarray) -> np.ndarray:
        return np.bincount(index[cell], minlength=sensor.size)

    n_points = np.bincount(index, minlength=sensor.size)
    tp, fp, fn = count(labels & flags), count(~labels & flags), count(labels & ~flags)
    q = (tp + fn) / n_points
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    degenerate = (tp + fp == 0) | (tp + fn == 0) | (precision + recall == 0.0)
    return SensorEvaluation(sensor, q, precision, recall, f1, rguess_expected_f1(q), degenerate, n_points)
