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
``panel.build_features``, as the training data is: every sensor's point at
time t is ranked against the score store as it stood at the end of t-1, then
all of t is pushed at once.  Sensor k is column k of the stream, row k of the
store's (K, W) score and time grids (which start as the transpose of the
ensemble's (W, K) training score grid) and row k of the (K, m) neighbor id
array that locality reads.  A comparison set therefore never holds a score of
its own timestamp.

The rank counts are made a chunk of ``CHUNK_HOURS`` timestamps at a time.  A
chunk can evict only the oldest slots of a store row, one per push, so the
row's other slots are settled: they are sorted once per chunk and each score
is counted against them by a binary search.  Only the volatile slots, the
ones the chunk can evict and its own pushes, are compared with each hour's
scores, for the whole chunk at once when every score is pushed.  The counts
are the same integers as a compare with the whole store at every timestamp.

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
    some sensors (see ``exclude_flagged_from_window``).  Seed times that do
    not strictly increase, or scores of another shape than ``(len(times), K)``,
    raise ValueError.
    """

    def __init__(self, times: np.ndarray, scores: np.ndarray):
        times = np.asarray(times, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if not times.size:
            raise ValueError("score store is cold: no retained scores at all")
        if times.ndim != 1 or scores.ndim != 2 or len(scores) != len(times):
            raise ValueError(
                f"a score store is seeded with (W,) times and a (W, K) score grid, got {times.shape} and {scores.shape}"
            )
        if (times[1:] <= times[:-1]).any():
            raise ValueError("the times of a score store must strictly increase")
        self.window_len = len(times)
        self.score_grid = scores.T.copy()
        self.time_grid = np.tile(times, (len(self.score_grid), 1))
        self.head = np.zeros(len(self.score_grid), dtype=np.intp)


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


# hours ranked against one sort of the score store: a chunk of L hours pushes
# at most L scores onto a store row, so every slot but its L oldest stays for
# the whole chunk.  One CLI detect block (64 hours at K = 40) is one chunk
CHUNK_HOURS = 64
# cells of one compare of the volatile slots, so that a chunk's compare stays
# small next to the scoring chunk's LOO block at any K
_COMPARE_CELLS = 1 << 18


class _RankCounter:
    """Exact rank counts against the comparison sets of a ``ScoreStore``, a chunk of hours at a time.

    Sensor k's set is its own store row, every row (``merged``, the
    ``as_printed`` variant), or for ``neighbor_sensors`` the store rows in row
    k of ``rows``, the ``(K, m)`` neighbor array, plus the other rows' scores
    at times t-n_lags..t-1.  At the start of a chunk of n hours each store row
    is read oldest first.  A push evicts its row's oldest slot, so only the
    V = min(n, W) oldest slots are volatile, and the other W - V are settled
    for the whole chunk.  They are sorted once per chunk, row by row or, for
    ``merged``, all rows together, and a score s counts those from
    ``searchsorted(sorted, s, side="left")`` on: the slots >= s, ties
    included.  The volatile slots go into a buffer followed by the
    chunk's pushes onto the row, so that after p pushes the live volatile
    slots are buffer positions p .. p + V - 1.  The recent slots, read by
    position and time, are a row's newest min(n_lags, W), kept likewise in a
    buffer of the newest slots followed by the pushes.  The counts are the
    integers that a compare with the whole store at every hour gives.
    """

    def __init__(self, n_sensors: int, merged: bool, rows: np.ndarray | None, n_lags: int):
        self.merged = merged
        self.rows = rows
        self.n_lags = 0 if rows is None else n_lags
        # the sensors whose set holds store row j, or all rows if merged, count its settled slots
        if merged:
            self.queriers = [slice(None)]
        elif rows is None:
            self.queriers = range(n_sensors)
        else:
            member = np.zeros((n_sensors, n_sensors), dtype=bool)
            member[np.arange(n_sensors)[:, None], rows] = True
            self.queriers = [np.flatnonzero(column) for column in member.T]
            self.outside = ~member

    def count(
        self, store: ScoreStore, times: np.ndarray, s: np.ndarray, exclude_alpha: float | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(rank count, comparison-set size) of each score ``s[i, k]`` of the chunk's hours ``times``.

        Hour i ranks against the store as it stood at the end of hour i-1; then
        every score of hour i is pushed, or with ``exclude_alpha`` only those
        whose p-value exceeds it.  The store ends as those pushes, made one
        hour at a time, would leave it.
        """
        n, n_sensors = s.shape
        window = store.window_len
        n_volatile, n_recent = min(n, window), min(self.n_lags, window)
        sensors = np.arange(n_sensors)
        oldest = (store.head[:, None] + np.arange(n_volatile)) % window
        newest = (store.head[:, None] - np.arange(n_recent, 0, -1)) % window
        # a row's oldest slots, or its newest ones and their times, then its pushes
        volatile = np.empty((n_sensors, n_volatile + n))
        recent = np.empty((n_sensors, n_recent + n))
        recent_t = np.empty(recent.shape, dtype=np.int64)
        volatile[:, :n_volatile] = store.score_grid[sensors[:, None], oldest]
        recent[:, :n_recent] = store.score_grid[sensors[:, None], newest]
        recent_t[:, :n_recent] = store.time_grid[sensors[:, None], newest]
        count = self._settled_counts(store.score_grid, oldest, s)
        size = np.empty(s.shape, dtype=np.int64)
        views = [
            np.lib.stride_tricks.sliding_window_view(b, width, axis=1)
            for b, width in ((volatile, n_volatile), (recent, n_recent), (recent_t, n_recent))
        ]
        if exclude_alpha is None:
            # every hour pushes onto every row, so the chunk's live slots are all known
            volatile[:, n_volatile:] = recent[:, n_recent:] = s.T
            recent_t[:, n_recent:] = times
            live = [v[:, :n].swapaxes(0, 1) for v in views]
            step = max(1, _COMPARE_CELLS // (n_sensors * self._compare_width(n_sensors, n_volatile, n_recent)))
            for start in range(0, n, step):
                hours = slice(start, start + step)
                more, size[hours] = self._live_counts(*(v[hours] for v in live), s[hours], times[hours], window)
                count[hours] += more
            pushes = np.full(n_sensors, n)
        else:
            # a push depends on the count before it, so the chunk goes an hour at a time
            pushes = np.zeros(n_sensors, dtype=np.intp)
            for i in range(n):
                live = (v[sensors, pushes][None] for v in views)
                more, size[i] = self._live_counts(*live, s[i : i + 1], times[i : i + 1], window)
                count[i] += more[0]
                pushed = np.flatnonzero(count[i] / size[i] > exclude_alpha)
                at = pushes[pushed]
                volatile[pushed, n_volatile + at] = recent[pushed, n_recent + at] = s[i, pushed]
                recent_t[pushed, n_recent + at] = times[i]
                pushes[pushed] += 1

        # the pushes a row's ring buffer still holds, in the slots the pushes one by one would take
        q = np.arange(n)
        row, q = np.nonzero((q < pushes[:, None]) & (q >= pushes[:, None] - window))
        slot = (store.head[row] + q) % window
        store.score_grid[row, slot] = volatile[row, n_volatile + q]
        store.time_grid[row, slot] = recent_t[row, n_recent + q]
        store.head[:] = (store.head + pushes) % window
        return count, size

    def _settled_counts(self, grid: np.ndarray, oldest: np.ndarray, s: np.ndarray) -> np.ndarray:
        """How many settled slots of each sensor's set are >= each of its scores s (n, K).

        The settled slots of a store row are all but its ``oldest`` (K, V)
        slots, which are set to NaN in a copy of the (K, W) grid.  NaN sorts
        last and is >= no score, so in a sorted row, or in all rows sorted
        together for ``merged``, the slots >= s run from
        ``searchsorted(s, side="left")``, ties included, to the first NaN.
        """
        settled = grid.copy()
        settled[np.arange(len(grid))[:, None], oldest] = np.nan
        if self.merged:
            settled = settled.reshape(1, -1)
        settled.sort(axis=1)
        by_sensor = np.ascontiguousarray(s.T)
        count = np.zeros(by_sensor.shape, dtype=np.int64)
        for row, sensors in zip(settled, self.queriers):
            count[sensors] += row.searchsorted(np.nan) - row.searchsorted(by_sensor[sensors])
        return count.T

    def _compare_width(self, n_sensors: int, n_volatile: int, n_recent: int) -> int:
        """How many slots ``_live_counts`` compares one score with."""
        if self.merged:
            return n_sensors * n_volatile
        if self.rows is None:
            return n_volatile
        return self.rows.shape[1] * n_volatile + n_sensors * n_recent

    def _live_counts(
        self, live: np.ndarray, recent: np.ndarray, recent_t: np.ndarray, s: np.ndarray, t: np.ndarray, window: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(count over the live volatile and recent slots, set size) of scores s (h, K) at hours t (h,).

        ``live`` (h, K, V) holds each row's live volatile slots at each hour,
        and ``recent`` and ``recent_t`` (h, K, min(n_lags, W)) its newest
        slots and their times.
        """
        h, n_sensors, n_volatile = live.shape
        if self.merged:
            sets = live.reshape(h, 1, n_sensors * n_volatile)
        elif self.rows is None:
            sets = live
        else:
            sets = live[:, self.rows].reshape(h, n_sensors, -1)
        count = np.count_nonzero(sets >= s[:, :, None], axis=2)
        if self.rows is None:
            return count, window * (n_sensors if self.merged else 1)
        lagged = recent_t >= (t - self.n_lags)[:, None, None]  # (h, K, lags)
        hits = (recent[:, None] >= s[:, :, None, None]) & lagged[:, None] & self.outside[:, :, None]
        count += np.count_nonzero(hits, axis=(2, 3))
        return count, self.rows.shape[1] * window + lagged.sum(axis=2) @ self.outside.T


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
    rows = None
    if locality.enabled and locality.variant == "neighbor_sensors":
        if neighbors is None:
            raise ValueError("locality with neighbor_sensors variant requires the (K, m) neighbor array")
        rows = check_neighbors(neighbors, n_sensors)

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
    scores = batch_test_scores(ensemble, X.reshape(-1, X.shape[2]), y.reshape(-1), alpha).reshape(y.shape)
    counter = _RankCounter(n_sensors, locality.enabled and locality.variant == "as_printed", rows, locality.n_lags)
    count = np.empty(y.shape, dtype=np.int64)
    size = np.empty(y.shape, dtype=np.int64)
    for start in range(0, len(times), CHUNK_HOURS):
        hours = slice(start, start + CHUNK_HOURS)
        count[hours], size[hours] = counter.count(
            store, times[hours], scores[hours], alpha if exclude_flagged_from_window else None
        )

    p = (count / size).ravel()
    return Detections(*grid_rows(times, n_sensors), scores.ravel(), p, p <= alpha, size.ravel())
