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

Detection is sequential over time and runs one numpy step per timestamp: every
item of timestamp t is ranked against the score store as it stood at the end
of t-1, then all of t is pushed at once.  A comparison set therefore never
holds a score of its own timestamp, and results do not depend on the order of
sensors within a timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ensemble import Ensemble, loo_aggregate

__all__ = [
    "nearest_rank_index",
    "empirical_quantile",
    "p_value",
    "flag_decision",
    "Detection",
    "Detections",
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
    """Fixed-length ring buffers of (time, score) pairs, one row per sensor.

    ``score_grid`` and ``time_grid`` are (K, W) arrays whose row i belongs to
    sensor ``sensor_ids[i]``, and ``head[i]`` is the slot of row i's oldest
    entry, the one its next push overwrites.  Rows are seeded time-ascending
    from the ensemble's training scores, so every head starts at 0; each push
    drops the sensor's oldest retained score and appends the new one, keeping
    the window length constant at ``window_len``.  Heads move per sensor,
    because a timestamp may push only some sensors.
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
        entries = sorted((int(k), pair) for k, pair in initial.items())
        self.sensor_ids = [k for k, _ in entries]
        self._row = {k: i for i, k in enumerate(self.sensor_ids)}
        self.score_grid = np.empty((len(entries), self.window_len))
        self.time_grid = np.empty((len(entries), self.window_len), dtype=np.int64)
        for i, (_, (times, scores)) in enumerate(entries):
            order = np.argsort(times, kind="stable")
            self.time_grid[i] = np.asarray(times, dtype=np.int64)[order]
            self.score_grid[i] = np.asarray(scores, dtype=np.float64)[order]
        self.head = np.zeros(len(entries), dtype=np.intp)

    def scores(self, k: int) -> np.ndarray:
        """Retained scores of sensor k (storage order; use for rank counting)."""
        return self.score_grid[self._row[k]]

    def times(self, k: int) -> np.ndarray:
        return self.time_grid[self._row[k]]

    def push(self, k: int, t: int, score: float) -> None:
        """Drop sensor k's oldest score and append the new one."""
        self.push_rows(np.array([self._row[k]]), t, np.array([score]))

    def push_rows(self, rows: np.ndarray, t: int, scores: np.ndarray) -> None:
        """Push ``scores[i]`` at time t onto row ``rows[i]``; the rows must be distinct."""
        head = self.head[rows]
        self.score_grid[rows, head] = scores
        self.time_grid[rows, head] = t
        head += 1
        head[head == self.window_len] = 0
        self.head[rows] = head


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
    counted once.  This is the one-point definition of the ``neighbor_sensors``
    comparison set, with ``store`` as it stood at the end of t-1;
    ``detect_stream`` counts the same sets for a whole timestamp at once
    without calling it.
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
        return loo_aggregate(ensemble.model.predict(X), mask, ensemble.aggregator)
    out = np.empty((X.shape[0], mask.shape[0]))
    for start in range(0, X.shape[0], chunk):
        preds = ensemble.model.predict(X[start : start + chunk])  # (B, c)
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
    return ScoreStore({k: ensemble.scores_for_sensor(k) for k in range(ensemble.n_sensors)})


@dataclass(frozen=True, eq=False)
class Detections:
    """Outcomes of a detection stream as columns, one entry per item in stream order.

    Iterating, ``len`` and integer indexing give :class:`Detection` rows.
    """

    t: np.ndarray
    k: np.ndarray
    test_score: np.ndarray
    p_value: np.ndarray
    flagged: np.ndarray
    comparison_count: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i: int) -> Detection:
        return Detection(
            int(self.t[i]),
            int(self.k[i]),
            float(self.test_score[i]),
            float(self.p_value[i]),
            bool(self.flagged[i]),
            int(self.comparison_count[i]),
        )

    def __iter__(self) -> Iterator[Detection]:
        columns = (self.t, self.k, self.test_score, self.p_value, self.flagged, self.comparison_count)
        return map(Detection, *(c.tolist() for c in columns))


def _timestamp_bounds(times: np.ndarray, sensors: np.ndarray, store: ScoreStore) -> np.ndarray:
    """Offsets where each timestamp of the stream starts, then the stream length.

    Raises ValueError unless every sensor is known, times are non-decreasing
    and later than the sensor's retained scores, and each (t, k) is unique.
    """
    n_sensors = len(store.sensor_ids)
    unknown = np.flatnonzero((sensors < 0) | (sensors >= n_sensors))
    if unknown.size:
        raise ValueError(f"unknown sensor id {sensors[unknown[0]]} in detection stream")
    back = np.flatnonzero(times[1:] < times[:-1])
    if back.size:
        j = back[0] + 1
        t, k = times[j], sensors[j]
        earlier = times[:j][sensors[:j] == k]
        if earlier.size and earlier.max() >= t:
            raise ValueError(
                f"out-of-order timestamp {t} for sensor {k}: already processed {earlier.max()}"
            )
        raise ValueError(
            f"stream times must be non-decreasing: time {t} at position {j} follows {times[j - 1]}"
        )
    # times are non-decreasing, so each sensor's first item carries its earliest time
    ks, first = np.unique(sensors, return_index=True)
    newest = store.time_grid.max(axis=1)[ks]
    stale = np.flatnonzero(times[first] <= newest)
    if stale.size:
        k = ks[stale[0]]
        raise ValueError(
            f"out-of-order timestamp {times[first[stale[0]]]} for sensor {k}: "
            f"its window already holds time {newest[stale[0]]}"
        )
    order = np.lexsort((sensors, times))
    ts, ks = times[order], sensors[order]
    dup = np.flatnonzero((ts[1:] == ts[:-1]) & (ks[1:] == ks[:-1]))
    if dup.size:
        raise ValueError(f"duplicate stream item (t={ts[dup[0]]}, k={ks[dup[0]]})")
    if not times.size:
        return np.zeros(1, dtype=np.intp)
    return np.flatnonzero(np.r_[True, times[1:] != times[:-1], True])


class _NeighborSets:
    """Rank counts against the ``neighbor_sensors`` comparison sets.

    The set of sensor k at time t is every score of k's neighbors plus the
    other sensors' scores at times t-n_lags..t-1, read from a store whose row
    k is sensor k.  Each row holds strictly increasing times from its head
    onwards, so those recent scores lie in the last min(n_lags, W) slots
    before the head.
    """

    def __init__(self, n_sensors: int, window: int, n_lags: int, neighbors: Mapping[int, Sequence[int]]):
        self.n_lags = n_lags
        self.is_neighbor = np.zeros((n_sensors, n_sensors), dtype=bool)
        for k in range(n_sensors):
            if k not in neighbors:
                raise ValueError(f"neighbor map lacks sensor {k}")
            for j in neighbors[k]:
                if not 0 <= j < n_sensors:
                    raise ValueError(f"neighbor map names unknown sensor {j} for sensor {k}")
                self.is_neighbor[k, j] = True
        self.n_neighbors = self.is_neighbor.sum(axis=1)
        # neighbor rows padded to equal width with row 0, which a zero weight cancels
        width = max(1, int(self.n_neighbors.max()))
        self.rows = np.zeros((n_sensors, width), dtype=np.intp)
        self.weight = np.zeros((n_sensors, width), dtype=np.int64)
        for k, nb in enumerate(self.is_neighbor):
            self.rows[k, : self.n_neighbors[k]] = np.flatnonzero(nb)
            self.weight[k, : self.n_neighbors[k]] = 1
        self.back = np.arange(1, min(n_lags, window) + 1)
        self.all_rows = np.arange(n_sensors)[:, None]

    def counts(
        self, store: ScoreStore, t: int, ks: np.ndarray, s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(rank count, comparison-set size) of the scores s of sensors ks at time t."""
        grid, window = store.score_grid, store.window_len
        hits = np.count_nonzero(grid[self.rows[ks]] >= s[:, None, None], axis=2)
        count = (hits * self.weight[ks]).sum(axis=1)
        slots = (store.head[:, None] - self.back) % window
        recent = store.time_grid[self.all_rows, slots] >= t - self.n_lags  # (K, lags)
        outside = ~self.is_neighbor[ks]  # (g, K)
        recent_hits = (grid[self.all_rows, slots] >= s[:, None, None]) & recent
        count += np.count_nonzero(recent_hits & outside[:, :, None], axis=(1, 2))
        size = self.n_neighbors[ks] * window + outside @ recent.sum(axis=1)
        if not size.all():
            k = ks[np.argmin(size)]
            raise ValueError(f"no retained scores qualify for the local window at (t={t}, k={k})")
        return count, size


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
) -> Detections:
    """Run sequential detection over a stream of (t, k, x, y) items.

    The score store is initialized from the ensemble's training scores.  The
    stream is taken one timestamp at a time: each item of timestamp t is
    ranked against its comparison set in the store as it stood at the end of
    t-1 (the sensor's own window, or the local union when locality is
    enabled) and flagged when p <= alpha; then all of t is pushed at once,
    each push dropping its sensor's oldest score.  Stream times must be
    non-decreasing and later than the retained training times, and each
    (t, k) may appear at most once; a timestamp need not hold every sensor.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    locality = locality or LocalityConfig()
    locality.validate()
    local = locality.enabled and locality.variant == "neighbor_sensors"
    if local and neighbors is None:
        raise ValueError("locality with neighbor_sensors variant requires a neighbor map")

    times = np.asarray(times, dtype=np.int64)
    sensors = np.asarray(sensors, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (len(times) == len(sensors) == X.shape[0] == len(y)):
        raise ValueError("stream arrays must have equal lengths")

    store = _initial_store(ensemble)  # row k of the store is sensor k
    bounds = _timestamp_bounds(times, sensors, store)
    scores = batch_test_scores(ensemble, X, y, alpha)
    grid = store.score_grid
    n_sensors, window = grid.shape
    counter = _NeighborSets(n_sensors, window, locality.n_lags, neighbors) if local else None

    # a timestamp holding every sensor in row order ranks against the grid itself
    n_items = np.diff(bounds)
    in_place = sensors == np.arange(len(times)) - np.repeat(bounds[:-1], n_items)
    whole = (n_items == n_sensors) & np.logical_and.reduceat(in_place, bounds[:-1])
    count = np.empty(len(times), dtype=np.int64)
    size = np.full(len(times), window * (n_sensors if locality.enabled else 1), dtype=np.int64)
    for a, b, whole_t in zip(bounds[:-1].tolist(), bounds[1:].tolist(), whole.tolist()):
        t, ks, s = int(times[a]), sensors[a:b], scores[a:b]
        if counter is not None:
            count[a:b], size[a:b] = counter.counts(store, t, ks, s)
        elif locality.enabled:  # as_printed: every retained score
            count[a:b] = np.count_nonzero(grid >= s[:, None, None], axis=(1, 2))
        else:
            own = grid if whole_t else grid[ks]
            count[a:b] = np.count_nonzero(own >= s[:, None], axis=1)
        if exclude_flagged_from_window:
            keep = count[a:b] / size[a:b] > alpha
            ks, s = ks[keep], s[keep]
        store.push_rows(ks, t, s)

    p = count / size
    return Detections(times, sensors, scores, p, p <= alpha, size)
