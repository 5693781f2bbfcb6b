"""Sequential conformal detection: test scores, p-values, flags, sliding windows.

Each test point's score is the absolute gap between the observation and the
(1 - alpha) nearest-rank quantile of all leave-one-out ensemble predictions at
its features.  Scoring streams over chunks of test points: each chunk's
point-major (chunk, n_usable_times) block of LOO predictions is built straight
from the leave-one-out kernel (for the mean, one matrix product whose weights
already hold 1/|S_i|, so no second pass divides the block), partitioned in
place row by row to its quantiles and dropped before the next, so peak memory
does not grow with the number of test points.  The p-value ranks that score
against a retained window of past scores; a point is flagged when p <= alpha,
and the window then slides unconditionally (the flagged score still enters)
unless configured otherwise.

The test stream is the time x sensor grid ``(times, X, y)`` of
``panel.build_features``, as the training data is, and detection runs one
numpy step per timestamp: every sensor's point at time t is ranked against
the score store as it stood at the end of t-1, then all of t is pushed at
once.  Sensor k is column k of the stream, row k of the store's (K, W) score
and time grids (which start as the transpose of the ensemble's (W, K)
training score grid) and row k of the (K, m) neighbor id array that locality
reads.  A comparison set therefore never holds a score of its own timestamp.

A stream can be detected in parts: ``detect_stream`` continues a
``ScoreStore`` passed to it, and the blocks of ``panel.time_blocks`` fill whole
scoring chunks of ``panel.PREDICT_CHUNK`` points, so running them in order
through one store gives the results of one call over the whole stream, bit for
bit, while only one block's features need exist at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .ensemble import Ensemble, loo_aggregate
from .panel import PREDICT_CHUNK, as_grid, check_neighbors, grid_rows

__all__ = [
    "nearest_rank_index",
    "Detection",
    "Detections",
    "LocalityConfig",
    "ScoreStore",
    "local_window",
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

    def __post_init__(self) -> None:
        if self.variant not in LOCALITY_VARIANTS:
            raise ValueError(
                f"unknown locality variant {self.variant!r}; expected one of {LOCALITY_VARIANTS}"
            )
        if self.n_lags < 1:
            raise ValueError(f"locality lag depth must be >= 1, got {self.n_lags}")
        if self.neighbor_size < 1:
            raise ValueError(f"locality neighbor size must be >= 1, got {self.neighbor_size}")


class ScoreStore:
    """Fixed-length ring buffers of (time, score) pairs, row k for sensor k.

    ``score_grid`` and ``time_grid`` are (K, W) arrays, and ``head[k]`` is the
    slot of row k's oldest entry, the one its next push overwrites.  The store
    is seeded with the transpose of a ``(W, K)`` training score grid whose row
    i holds every sensor's score at ``times[i]``, times ascending, so every
    head starts at 0; each push drops the sensor's oldest retained score and
    appends the new one, keeping the window length constant at
    ``window_len``.  Heads move per sensor, because a timestamp may push only
    some sensors (see ``exclude_flagged_from_window``).
    """

    def __init__(self, times: np.ndarray, scores: np.ndarray):
        if not len(times):
            raise ValueError("score store is cold: no retained scores at all")
        self.window_len = len(times)
        self.score_grid = np.asarray(scores, dtype=np.float64).T.copy()
        self.time_grid = np.tile(np.asarray(times, dtype=np.int64), (len(self.score_grid), 1))
        self.head = np.zeros(len(self.score_grid), dtype=np.intp)

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
    for sensor, (times, scores) in enumerate(zip(store.time_grid, store.score_grid)):
        if sensor in neighbor_set:
            parts.append(scores)
        else:
            sel = (times >= t - n_lags) & (times <= t - 1)
            if sel.any():
                parts.append(scores[sel])
    if not parts:
        raise ValueError(f"no retained scores qualify for the local window at (t={t}, k={k})")
    return np.concatenate(parts)


def loo_prediction_matrix(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """(n_points, n_usable_times) matrix of leave-one-out ensemble predictions.

    Point-major: row j holds point j's aggregated prediction over the LOO set
    of each usable time, so column i comes from the models that exclude usable
    time i; times with empty LOO sets are already dropped.  One model
    prediction covers every point of X, so the caller bounds the block
    (``batch_test_scores`` passes at most ``PREDICT_CHUNK`` points); the
    matrix is returned as the kernel builds it, without a copy.
    """
    mask = ensemble.plan.usable_excluded  # (n_usable, B)
    if mask.shape[0] == 0:
        raise ValueError("no leave-one-out predictor available: every time index is in every bag")
    return loo_aggregate(ensemble.model.predict(X), mask, ensemble.aggregator)


def batch_test_scores(
    ensemble: Ensemble, X: np.ndarray, y: np.ndarray, alpha: float
) -> np.ndarray:
    """Test scores for a batch of points: |y - (1-alpha) quantile of LOO predictions|.

    One point-major (chunk, n_usable_times) block of LOO predictions is alive
    at a time, and each point's quantile is a contiguous partition of its row,
    done in place.  Block j is the ``loo_prediction_matrix`` of points
    ``j * PREDICT_CHUNK`` onwards, at most ``PREDICT_CHUNK`` of them, so the
    scores are bit-identical to the quantiles of those matrices; blocks cut
    elsewhere can move the last bits of a BLAS product.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    X = np.asarray(X, dtype=np.float64)
    quantiles = np.empty(X.shape[0])
    # an empty batch still makes one call, which rejects an ensemble without LOO sets
    for start in range(0, max(1, X.shape[0]), PREDICT_CHUNK):
        stop = start + PREDICT_CHUNK
        block = loo_prediction_matrix(ensemble, X[start:stop])
        idx = nearest_rank_index(1.0 - alpha, block.shape[1])
        block.partition(idx, axis=1)
        quantiles[start:stop] = block[:, idx]
        del block  # free this block before the next one is built
    return np.abs(np.asarray(y, dtype=np.float64) - quantiles)


@dataclass(frozen=True, eq=False)
class Detections:
    """Outcomes of a detection stream as columns, one entry per (t, k) in stream order.

    Iterating and ``len`` give :class:`Detection` rows.
    """

    t: np.ndarray
    k: np.ndarray
    test_score: np.ndarray
    p_value: np.ndarray
    flagged: np.ndarray
    comparison_count: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def __iter__(self) -> Iterator[Detection]:
        columns = (self.t, self.k, self.test_score, self.p_value, self.flagged, self.comparison_count)
        return map(Detection, *(c.tolist() for c in columns))


class _NeighborSets:
    """Rank counts against the ``neighbor_sensors`` comparison sets.

    The set of sensor k at time t is every score of the sensors in row k of the
    ``(K, m)`` neighbor array plus the other sensors' scores at times
    t-n_lags..t-1, read from a store whose row k is sensor k.  Each store row
    holds strictly increasing times from its head onwards, so those recent
    scores lie in the last min(n_lags, W) slots before the head.
    """

    def __init__(self, window: int, n_lags: int, neighbors: np.ndarray):
        n_sensors, self.width = neighbors.shape
        self.n_lags = n_lags
        self.rows = neighbors
        self.outside = np.ones((n_sensors, n_sensors), dtype=bool)
        self.outside[np.arange(n_sensors)[:, None], neighbors] = False
        self.back = np.arange(1, min(n_lags, window) + 1)
        self.all_rows = np.arange(n_sensors)[:, None]

    def counts(self, store: ScoreStore, t: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rank count, comparison-set size) of the scores s[k] of every sensor k at time t."""
        grid, window = store.score_grid, store.window_len
        count = np.count_nonzero(grid[self.rows] >= s[:, None, None], axis=(1, 2))
        slots = (store.head[:, None] - self.back) % window
        recent = store.time_grid[self.all_rows, slots] >= t - self.n_lags  # (K, lags)
        recent_hits = (grid[self.all_rows, slots] >= s[:, None, None]) & recent
        count += np.count_nonzero(recent_hits & self.outside[:, :, None], axis=(1, 2))
        return count, self.width * window + self.outside @ recent.sum(axis=1)


def detect_stream(
    ensemble: Ensemble,
    times: Sequence[int],
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    locality: LocalityConfig | None = None,
    neighbors: np.ndarray | None = None,
    exclude_flagged_from_window: bool = False,
    store: ScoreStore | None = None,
) -> Detections:
    """Run sequential detection over a time x sensor grid of test points.

    ``(times, X, y)`` is laid out as ``panel.build_features`` returns it
    (``panel.as_grid``), with the ensemble's K sensors as the columns of y.
    Its times strictly increase from a first time later than the latest time
    in the score store.  That store is ``store``, which detection continues
    and advances in place, or else a fresh one initialized from the
    ensemble's training score grid, row k for sensor k; so the blocks of
    `panel.time_blocks`, run in order through one store, give the results of
    one call over the whole stream, bit for bit.  Each point of
    timestamp t is ranked against its comparison set in the store as it stood
    at the end of t-1 (the sensor's own window, or the local union when
    locality is enabled) and flagged when p <= alpha; then all of t is pushed
    at once, each push dropping its sensor's oldest score.  The
    ``neighbor_sensors`` variant takes ``neighbors``, a ``(K, m)`` array whose
    row k lists sensor k's neighbors (``panel.neighbor_sets``); ``as_printed``
    makes every sensor a neighbor of every sensor.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    locality = locality or LocalityConfig()
    n_sensors = ensemble.n_sensors
    if locality.enabled and locality.variant == "as_printed":
        neighbors = np.broadcast_to(np.arange(n_sensors), (n_sensors, n_sensors))
    elif locality.enabled:
        if neighbors is None:
            raise ValueError("locality with neighbor_sensors variant requires the (K, m) neighbor array")
        neighbors = check_neighbors(neighbors, n_sensors)

    times, X, y = as_grid(times, X, y)
    if y.shape[1] != n_sensors:
        raise ValueError(f"the stream has {y.shape[1]} sensors, but the ensemble was trained on {n_sensors}")

    if store is None:
        store = ScoreStore(ensemble.usable_times, ensemble.scores)
    elif len(store.score_grid) != n_sensors:
        raise ValueError(
            f"the score store holds {len(store.score_grid)} sensors, but the ensemble was trained on {n_sensors}"
        )
    last = int(store.time_grid.max())
    if times.size and times[0] <= last:
        raise ValueError(f"out-of-order timestamp {times[0]}: the score store already holds time {last}")
    scores = batch_test_scores(ensemble, X.reshape(-1, X.shape[2]), y.reshape(-1), alpha)
    grid, window = store.score_grid, store.window_len
    counter = _NeighborSets(window, locality.n_lags, neighbors) if locality.enabled else None

    count = np.empty(y.shape, dtype=np.int64)
    size = np.full(count.shape, window, dtype=np.int64)
    every_sensor = np.arange(n_sensors)
    for i, (t, s) in enumerate(zip(times.tolist(), scores.reshape(y.shape))):
        if counter is not None:
            count[i], size[i] = counter.counts(store, t, s)
        else:
            count[i] = np.count_nonzero(grid >= s[:, None], axis=1)
        pushed = every_sensor
        if exclude_flagged_from_window:
            pushed = np.flatnonzero(count[i] / size[i] > alpha)
        store.push_rows(pushed, t, s[pushed])

    p = (count / size).ravel()
    return Detections(*grid_rows(times, n_sensors), scores, p, p <= alpha, size.ravel())
