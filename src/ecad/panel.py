"""Panel data model: sensor geometry, observation masks, lagged feature construction.

``build_features`` turns a complete panel into the arrays every later stage
consumes: ``(times, sensors, X, y)``, one supervised row per (t, k).  Panels
are read-only after construction, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "SensorMetadata",
    "TimeSeriesPanel",
    "load_panel",
    "save_panel",
    "load_sensors",
    "save_sensors",
    "neighbor_sets",
    "build_features",
]


@dataclass(frozen=True)
class SensorMetadata:
    """A sensor in the network: contiguous integer id plus scaled planar coordinates.

    Coordinates are unitless and expected to lie in [0, 1]^2, so any pairwise
    distance is at most sqrt(2).
    """

    sensor_id: int
    coords: tuple[float, float]


@dataclass
class TimeSeriesPanel:
    """T x K matrix of flow values with a per-entry observation mask.

    ``mask[t, k]`` is True where ``values[t, k]`` was observed.  Masked-out
    entries hold placeholder numbers that must never enter a fit or score
    computation; the imputer replaces them before any training happens.
    ``sensors`` is optional because value panels and sensor coordinates travel
    in separate files.
    """

    values: np.ndarray
    mask: np.ndarray
    sensors: list[SensorMetadata] | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError(f"panel values must be 2-D, got shape {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape {self.values.shape}"
            )
        if self.sensors is not None and len(self.sensors) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.sensors)} sensors attached to a panel with "
                f"{self.values.shape[1]} columns"
            )

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.values.shape[1]

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def observed_counts(self) -> np.ndarray:
        """Per-sensor count of observed entries (column sums of the mask)."""
        return self.mask.sum(axis=0)

    def copy(self) -> "TimeSeriesPanel":
        return TimeSeriesPanel(self.values.copy(), self.mask.copy(), self.sensors)


def load_panel(path: str | Path, missing_token: str = "NA") -> TimeSeriesPanel:
    """Read a value panel from CSV: one column per sensor, one row per hour.

    Cells equal to ``missing_token`` (after stripping whitespace) are marked
    unobserved and stored as NaN placeholders.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"empty panel: {path} has no header row")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate sensor ids in header of {path}")
    n_sensors = len(header)
    if len(rows) == 1:
        raise ValueError(f"empty panel: {path} has a header but no data rows")
    values = np.full((len(rows) - 1, n_sensors), np.nan)
    mask = np.zeros((len(rows) - 1, n_sensors), dtype=bool)
    for t, row in enumerate(rows[1:]):
        if len(row) != n_sensors:
            raise ValueError(
                f"ragged row {t + 1} in {path}: expected {n_sensors} cells, got {len(row)}"
            )
        for k, cell in enumerate(row):
            cell = cell.strip()
            if cell == missing_token:
                continue
            try:
                values[t, k] = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric cell {cell!r} at row {t + 1}, column {k} of {path}"
                ) from None
            if not math.isfinite(values[t, k]):
                raise ValueError(f"non-finite cell at row {t + 1}, column {k} of {path}")
            mask[t, k] = True
    return TimeSeriesPanel(values, mask)


def save_panel(panel: TimeSeriesPanel, path: str | Path, missing_token: str = "NA") -> None:
    """Write a panel to CSV; unobserved cells become ``missing_token``.

    Observed values are written with full round-trip precision so a save/load
    cycle is bit-exact.
    """
    path = Path(path)
    header = ",".join(f"sensor_{k}" for k in range(panel.n_sensors))
    lines = [header]
    for t in range(panel.n_times):
        cells = [
            repr(float(panel.values[t, k])) if panel.mask[t, k] else missing_token
            for k in range(panel.n_sensors)
        ]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def load_sensors(path: str | Path) -> list[SensorMetadata]:
    """Read sensor coordinates from a ``sensor_id,lat,lon`` CSV.

    Ids must form the contiguous range 0..K-1 and coordinates must be
    pre-scaled to [0, 1].
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"sensor file {path} has no data rows")
    sensors = []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"sensor row {row!r} in {path} must have 3 cells")
        sid, lat, lon = int(row[0]), float(row[1]), float(row[2])
        if not (0.0 <= lat <= 1.0 and 0.0 <= lon <= 1.0):
            raise ValueError(f"sensor {sid} coordinates ({lat}, {lon}) not scaled to [0, 1]")
        sensors.append(SensorMetadata(sid, (lat, lon)))
    ids = sorted(s.sensor_id for s in sensors)
    if ids != list(range(len(sensors))):
        raise ValueError(f"sensor ids in {path} must form the contiguous range 0..K-1")
    sensors.sort(key=lambda s: s.sensor_id)
    return sensors


def save_sensors(sensors: Sequence[SensorMetadata], path: str | Path) -> None:
    lines = ["sensor_id,lat,lon"]
    for s in sensors:
        lines.append(f"{s.sensor_id},{s.coords[0]!r},{s.coords[1]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def neighbor_sets(
    sensors: Sequence[SensorMetadata], size: int
) -> dict[int, tuple[int, ...]]:
    """Return, for each sensor, the ``size`` nearest sensors including itself.

    Ordering is ascending Euclidean distance with ties broken by ascending
    sensor id, so the sensor itself (distance 0) is always first.
    """
    n = len(sensors)
    if size < 1:
        raise ValueError(f"neighbor size must be >= 1, got {size}")
    if size > n:
        raise ValueError(f"neighbor size {size} exceeds sensor count {n}")
    coords = np.array([s.coords for s in sensors], dtype=np.float64)
    ids = np.array([s.sensor_id for s in sensors])
    out: dict[int, tuple[int, ...]] = {}
    for k in range(n):
        dists = np.hypot(coords[:, 0] - coords[k, 0], coords[:, 1] - coords[k, 1])
        order = np.lexsort((ids, dists))
        out[int(ids[k])] = tuple(int(ids[j]) for j in order[:size])
    return out


def build_features(
    panel: TimeSeriesPanel,
    neighbors: Mapping[int, Sequence[int]],
    n_lags: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lagged neighbor features of every (t, k) with t in [n_lags, T): (times, sensors, X, y).

    Row i is the supervised example ``y[i] = values[times[i], sensors[i]]``;
    rows are ordered by time then sensor, (T - n_lags) * K in all.  ``X[i]`` is
    neighbor-major: for each neighbor of the row's sensor (ascending distance,
    ties by sensor id) the lags appear from t-1 down to t-n_lags, so only
    strictly earlier values are referenced and the width is
    ``n_lags * len(neighbors[k])``.  Requires a complete panel; run the imputer
    first if there are missing entries.  Pure function: identical inputs give
    bit-identical arrays.
    """
    if not panel.is_complete:
        raise ValueError("panel has missing entries; impute before building features")
    if n_lags < 1:
        raise ValueError(f"lag depth must be >= 1, got {n_lags}")
    T, K = panel.n_times, panel.n_sensors
    if n_lags >= T:
        raise ValueError(f"lag depth {n_lags} must be smaller than panel length {T}")
    V = panel.values
    n_rows_per_sensor = T - n_lags
    widths = {k: len(neighbors[k]) for k in range(K)}
    if len(set(widths.values())) != 1:
        raise ValueError("all sensors must use the same neighbor count")
    width = n_lags * widths[0]
    X = np.empty((n_rows_per_sensor, K, width))
    for k in range(K):
        for j, nb in enumerate(neighbors[k]):
            for lag in range(1, n_lags + 1):
                # column for (neighbor j, lag) at target times t = n_lags .. T-1
                X[:, k, j * n_lags + (lag - 1)] = V[n_lags - lag : T - lag, nb]
    times = np.repeat(np.arange(n_lags, T), K)
    sensor_ids = np.tile(np.arange(K), n_rows_per_sensor)
    X = X.reshape(n_rows_per_sensor * K, width)
    y = V[n_lags:, :].reshape(-1)
    return times, sensor_ids, X, y
