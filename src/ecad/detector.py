"""Sequential conformal detection: test scores, p-values, flags, sliding windows.

Each test point's score is the absolute gap between the observation and the
(1 - alpha) nearest-rank quantile of all leave-one-out ensemble predictions at
its features.  Scoring streams over chunks of test points: each chunk's
point-major (chunk, n_usable_times) block of LOO predictions is built straight
from the leave-one-out kernel, partitioned in place row by row to its
quantiles and dropped before the next, so peak memory does not grow with the
number of test points.  The p-value ranks that score against a retained window
of past scores; a point is flagged when p <= alpha, and the window then slides
unconditionally (the flagged score still enters) unless configured otherwise.

Window state mutates per sensor, so detection is sequential; the default
implementation processes the stream single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ensemble import Ensemble, loo_aggregate

__all__ = [
    "nearest_rank_index",
    "empirical_quantile",
    "p_value",
    "flag_decision",
    "Detection",
    "LocalityConfig",
    "ScoreStore",
    "local_window",
    "test_score",
    "loo_prediction_matrix",
    "detect_stream",
]

LOCALITY_VARIANTS = ("neighbor_sensors", "as_printed")


def nearest_rank_index(level: float, n: int) -> int:
    """Index of the nearest-rank quantile in an ascending sort of n values.

    The rank is ceil(level * n) with a tiny guard against float noise when
    level * n is mathematically an integer (e.g. 0.95 * 1000).
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {level}")
    if n < 1:
        raise ValueError("need at least one value")
    return max(0, math.ceil(round(level * n, 9)) - 1)


def empirical_quantile(values: np.ndarray, level: float) -> float:
    """Nearest-rank empirical quantile: sort ascending, take ceil(level*n)-th."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty vector")
    idx = nearest_rank_index(level, values.size)
    return float(np.partition(values, idx)[idx])


def p_value(window: np.ndarray, score: float) -> float:
    """Fraction of retained past scores that are >= the test score (ties count)."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise ValueError("cannot compute a p-value against an empty score window")
    return int(np.count_nonzero(window >= score)) / window.size


def flag_decision(p: float, alpha: float) -> bool:
    """Anomaly rule: flag exactly when p <= alpha."""
    return p <= alpha


@dataclass(frozen=True)
class Detection:
    """Outcome of one detection step at (t, k).

    ``p_value * comparison_count`` is the integer rank count behind the
    p-value, and ``flagged`` is equivalent to ``p_value <= alpha``.
    """

    t: int
    k: int
    test_score: float
    p_value: float
    flagged: bool
    comparison_count: int


@dataclass(frozen=True)
class LocalityConfig:
    """Controls which past scores a test score is compared against.

    With ``enabled`` off, each sensor ranks only against its own window.  The
    ``neighbor_sensors`` variant compares against scores from the last
    ``n_lags`` steps of all sensors plus the full windows of the
    ``neighbor_size`` nearest sensors.  ``as_printed`` keeps the source rule's
    literal reading, whose sensor clause is always true, so the comparison set
    is every retained score.
    """

    enabled: bool = False
    n_lags: int = 5
    neighbor_size: int = 5
    variant: str = "neighbor_sensors"

    def validate(self) -> None:
        if self.variant not in LOCALITY_VARIANTS:
            raise ValueError(
                f"unknown locality variant {self.variant!r}; expected one of {LOCALITY_VARIANTS}"
            )
        if self.n_lags < 1:
            raise ValueError(f"locality lag depth must be >= 1, got {self.n_lags}")
        if self.neighbor_size < 1:
            raise ValueError(f"locality neighbor size must be >= 1, got {self.neighbor_size}")


class ScoreStore:
    """Fixed-length ring buffers of (time, score) pairs, one per sensor.

    Seeded from the ensemble's training scores; each push drops the sensor's
    oldest retained score and appends the new one, keeping the buffer length
    constant at ``window_len``.
    """

    def __init__(self, initial: Mapping[int, tuple[np.ndarray, np.ndarray]]):
        if not initial:
            raise ValueError("score store needs at least one sensor")
        lengths = {len(scores) for _, scores in initial.values()}
        if lengths == {0}:
            raise ValueError("score store is cold: no retained scores at all")
        if len(lengths) != 1:
            raise ValueError(f"sensors have unequal initial window lengths: {sorted(lengths)}")
        self.window_len = lengths.pop()
        self._times: dict[int, np.ndarray] = {}
        self._scores: dict[int, np.ndarray] = {}
        self._head: dict[int, int] = {}
        for k, (times, scores) in initial.items():
            order = np.argsort(times, kind="stable")
            self._times[int(k)] = np.asarray(times, dtype=np.int64)[order].copy()
            self._scores[int(k)] = np.asarray(scores, dtype=np.float64)[order].copy()
            self._head[int(k)] = 0

    @property
    def sensor_ids(self) -> list[int]:
        return sorted(self._scores)

    def scores(self, k: int) -> np.ndarray:
        """Retained scores of sensor k (storage order; use for rank counting)."""
        return self._scores[k]

    def times(self, k: int) -> np.ndarray:
        return self._times[k]

    def scores_in_age_order(self, k: int) -> np.ndarray:
        head = self._head[k]
        return np.concatenate((self._scores[k][head:], self._scores[k][:head]))

    def times_in_age_order(self, k: int) -> np.ndarray:
        head = self._head[k]
        return np.concatenate((self._times[k][head:], self._times[k][:head]))

    def push(self, k: int, t: int, score: float) -> None:
        """Drop sensor k's oldest score and append the new one."""
        head = self._head[k]
        self._times[k][head] = t
        self._scores[k][head] = score
        self._head[k] = (head + 1) % self.window_len

    def all_scores(self) -> np.ndarray:
        return np.concatenate([self._scores[k] for k in self.sensor_ids])


def local_window(
    store: ScoreStore,
    t: int,
    k: int,
    n_lags: int,
    neighbors: Sequence[int],
) -> np.ndarray:
    """Union of recent scores from all sensors and full windows of k's neighbors.

    Selects scores at times t-n_lags..t-1 from every sensor, plus every
    retained score at the neighbor sensors of k; (time, sensor) duplicates are
    counted once.
    """
    neighbor_set = set(int(j) for j in neighbors)
    parts = []
    for sensor in store.sensor_ids:
        if sensor in neighbor_set:
            parts.append(store.scores(sensor))
        else:
            times = store.times(sensor)
            sel = (times >= t - n_lags) & (times <= t - 1)
            if sel.any():
                parts.append(store.scores(sensor)[sel])
    if not parts:
        raise ValueError(f"no retained scores qualify for the local window at (t={t}, k={k})")
    return np.concatenate(parts)


# points per model-prediction call in loo_prediction_matrix and per scoring block
_PREDICT_CHUNK = 512


def loo_prediction_matrix(
    ensemble: Ensemble, X: np.ndarray, chunk: int = _PREDICT_CHUNK
) -> np.ndarray:
    """(n_points, n_usable_times) matrix of leave-one-out ensemble predictions.

    Point-major: row j holds point j's aggregated prediction over the LOO set
    of each usable time, so column i comes from the models that exclude usable
    time i; times with empty LOO sets are already dropped.  A batch of at most
    ``chunk`` points is returned as the kernel builds it, without a copy.
    """
    X = np.asarray(X, dtype=np.float64)
    mask = ensemble.usable_loo_mask  # (n_usable, B)
    if mask.shape[0] == 0:
        raise ValueError("no leave-one-out predictor available: every time index is in every bag")
    if X.shape[0] <= chunk:
        return loo_aggregate(ensemble.predict_all_models(X), mask, ensemble.aggregator)
    out = np.empty((X.shape[0], mask.shape[0]))
    for start in range(0, X.shape[0], chunk):
        preds = ensemble.predict_all_models(X[start : start + chunk])  # (B, c)
        out[start : start + chunk] = loo_aggregate(preds, mask, ensemble.aggregator)
    return out


def batch_test_scores(
    ensemble: Ensemble, X: np.ndarray, y: np.ndarray, alpha: float
) -> np.ndarray:
    """Test scores for a batch of points: |y - (1-alpha) quantile of LOO predictions|.

    One point-major (chunk, n_usable_times) block of LOO predictions is alive
    at a time, and each point's quantile is a contiguous partition of its row,
    done in place.  A block is exactly one prediction chunk, so every model
    prediction and LOO aggregate covers the same points as in one dense
    ``loo_prediction_matrix`` call over the batch, and the scores are
    bit-identical to it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    X = np.asarray(X, dtype=np.float64)
    quantiles = np.empty(X.shape[0])
    # an empty batch still makes one call, which rejects an ensemble without LOO sets
    for start in range(0, max(1, X.shape[0]), _PREDICT_CHUNK):
        stop = start + _PREDICT_CHUNK
        block = loo_prediction_matrix(ensemble, X[start:stop])
        idx = nearest_rank_index(1.0 - alpha, block.shape[1])
        block.partition(idx, axis=1)
        quantiles[start:stop] = block[:, idx]
        del block  # free this block before the next one is built
    return np.abs(np.asarray(y, dtype=np.float64) - quantiles)


def test_score(ensemble: Ensemble, x: np.ndarray, y: float, alpha: float) -> float:
    """Distance from y to the (1 - alpha) quantile of all LOO predictions at x."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(batch_test_scores(ensemble, x, np.array([y]), alpha)[0])


def _initial_store(ensemble: Ensemble) -> ScoreStore:
    initial = {}
    for k in range(ensemble.n_sensors):
        times, scores = ensemble.scores_for_sensor(k)
        initial[k] = (times, scores)
    return ScoreStore(initial)


def detect_stream(
    ensemble: Ensemble,
    times: Sequence[int],
    sensors: Sequence[int],
    X: np.ndarray,
    y: Sequence[float],
    alpha: float,
    locality: LocalityConfig | None = None,
    neighbors: Mapping[int, Sequence[int]] | None = None,
    exclude_flagged_from_window: bool = False,
) -> list[Detection]:
    """Run sequential detection over a stream of (t, k, x, y) items.

    The score store is initialized from the ensemble's training scores.  For
    each item the test score is computed, ranked against the configured
    comparison set (the sensor's own window, or the local union when locality
    is enabled), flagged when p <= alpha, and the window slides by dropping the
    oldest score and appending the new one.  Items must arrive time-ordered
    within each sensor.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    locality = locality or LocalityConfig()
    locality.validate()
    if locality.enabled and locality.variant == "neighbor_sensors" and neighbors is None:
        raise ValueError("locality with neighbor_sensors variant requires a neighbor map")

    times = np.asarray(times, dtype=np.int64)
    sensors = np.asarray(sensors, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (len(times) == len(sensors) == X.shape[0] == len(y)):
        raise ValueError("stream arrays must have equal lengths")

    store = _initial_store(ensemble)
    known = set(store.sensor_ids)
    scores = batch_test_scores(ensemble, X, y, alpha)

    last_time: dict[int, int] = {}
    detections: list[Detection] = []
    for j in range(len(times)):
        t, k, s = int(times[j]), int(sensors[j]), float(scores[j])
        if k not in known:
            raise ValueError(f"unknown sensor id {k} in detection stream")
        if k in last_time and t <= last_time[k]:
            raise ValueError(
                f"out-of-order timestamp {t} for sensor {k}: already processed {last_time[k]}"
            )
        last_time[k] = t

        if not locality.enabled:
            window = store.scores(k)
        elif locality.variant == "as_printed":
            window = store.all_scores()
        else:
            window = local_window(store, t, k, locality.n_lags, neighbors[k])
        count = int(np.count_nonzero(window >= s))
        p = count / window.size
        flagged = flag_decision(p, alpha)
        if not (exclude_flagged_from_window and flagged):
            store.push(k, t, s)
        detections.append(Detection(t, k, s, p, flagged, int(window.size)))
    return detections
