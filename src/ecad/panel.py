"""Panel data model: sensor geometry, observation masks, lagged feature construction.

``build_features`` turns a complete panel into the arrays every later stage
consumes: ``(times, sensors, X, y)``, one supervised row per (t, k).  Panels
are read-only after construction, so they are safe to share across threads.

The CSV format of every pipeline artifact lives here: ``read_csv`` is the only
parser of CSV text and ``write_csv`` the only formatter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "SensorMetadata",
    "TimeSeriesPanel",
    "read_csv",
    "write_csv",
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


def read_csv(
    path: str | Path,
    columns: Mapping[str, type] | None = None,
    missing_token: str | None = None,
) -> list[np.ndarray]:
    """The named columns of a CSV artifact with a header row, one array each.

    ``columns`` maps header names to dtypes; ``None`` reads every column as
    float64.  The rows are parsed by numpy's C reader: blank lines are skipped
    and every row must have one cell per header name.  A ``bool`` column holds
    0/1 flags, a float cell must be finite, and a cell equal to
    ``missing_token`` (spaces around it ignored) reads as NaN.  A malformed
    file raises ValueError.
    """
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        if missing_token is None:
            # numpy's reader streams the rows from the file itself
            source, skip, n_missing = path, 1, 0
            has_rows = any(map(str.strip, fh))
        else:
            # the token wherever neither neighbour is part of a cell: a padded token
            # reads as NaN, and a cell holding more than the token stays unparsable;
            # blank lines go first, as an empty token would read one as a missing cell
            token = re.escape(missing_token)
            cell = re.compile(rf"{token}(?<![^, \t]{token})(?![^, \t])")
            lines = [cell.subn("nan", line) for line in fh.read().splitlines() if line]
            source, n_missing = [line for line, _ in lines], sum(n for _, n in lines)
            skip, has_rows = 0, bool(source)
    if "" in header:
        raise ValueError(f"no header row, or an empty column name in it: {header}")
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate column names in header {header}")
    kinds = columns or dict.fromkeys(header, float)
    absent = [name for name in kinds if name not in header]
    if absent:
        raise ValueError(f"lacks the column(s) {absent}")
    if not has_rows:
        raise ValueError("no data rows after the header")
    # a flag parses as uint8 and must then be 0 or 1; an unnamed column only counts toward the row width
    fields = [(name, np.uint8 if kinds.get(name) is bool else kinds.get(name, "U0")) for name in header]
    try:
        rows = np.loadtxt(source, dtype=fields, delimiter=",", comments=None, skiprows=skip, ndmin=1)
    except ValueError as exc:  # numpy's message, in terms of the file and without its advice on usecols
        message = str(exc).split(";")[0]
        raise ValueError(message.replace("the dtype passed requires", "the header has")) from None
    for name, kind in kinds.items():
        if kind is bool and (rows[name] > 1).any():
            raise ValueError(f"column {name!r} holds a flag other than 0 or 1")
    arrays = [rows[name].view(kind) for name, kind in kinds.items()]
    if sum(np.count_nonzero(~np.isfinite(a)) for a in arrays if a.dtype.kind == "f") != n_missing:
        raise ValueError("a non-finite cell (nan or inf)")
    return arrays


# rows formatted at a time by write_csv, so a write never holds every cell as a Python object
_WRITE_BLOCK_ROWS = 4096


def write_csv(path: str | Path, columns: Mapping[str, Sequence | np.ndarray]) -> None:
    """Write equal-length columns under a header row of their names.

    Every number is written as its shortest round-trip repr (``str`` of the
    Python int or float), a flag as 0 or 1 and a string cell (a missing token)
    as it is, so ``read_csv`` gives back the exact values.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    arrays = [a.astype(np.uint8) if a.dtype == bool else a for a in arrays]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _WRITE_BLOCK_ROWS):
            block = zip(*(a[start : start + _WRITE_BLOCK_ROWS].tolist() for a in arrays))
            fh.writelines(",".join(map(str, row)) + "\n" for row in block)


def load_panel(path: str | Path, missing_token: str = "NA") -> TimeSeriesPanel:
    """Read a value panel from CSV: one column per sensor, one row per hour.

    Cells equal to ``missing_token`` are marked unobserved and stored as NaN
    placeholders.
    """
    values = np.column_stack(read_csv(path, missing_token=missing_token))
    return TimeSeriesPanel(values, ~np.isnan(values))


def save_panel(panel: TimeSeriesPanel, path: str | Path, missing_token: str = "NA") -> None:
    """Write a panel to CSV; unobserved cells become ``missing_token``.

    Observed values are written with full round-trip precision so a save/load
    cycle is bit-exact.
    """
    cells = panel.values.astype(object)
    cells[~panel.mask] = missing_token
    write_csv(path, {f"sensor_{k}": cells[:, k] for k in range(panel.n_sensors)})


def load_sensors(path: str | Path) -> list[SensorMetadata]:
    """Read sensor coordinates from a ``sensor_id,lat,lon`` CSV.

    Ids must form the contiguous range 0..K-1 and coordinates must be
    pre-scaled to [0, 1].
    """
    ids, lat, lon = read_csv(path, {"sensor_id": np.int64, "lat": float, "lon": float})
    outside = (np.minimum(lat, lon) < 0.0) | (np.maximum(lat, lon) > 1.0)
    if outside.any():
        i = np.argmax(outside)
        raise ValueError(f"sensor {ids[i]} coordinates ({lat[i]}, {lon[i]}) not scaled to [0, 1]")
    if not np.array_equal(np.sort(ids), np.arange(ids.size)):
        raise ValueError(f"sensor ids in {path} must form the contiguous range 0..K-1")
    return [SensorMetadata(int(ids[i]), (float(lat[i]), float(lon[i]))) for i in np.argsort(ids)]


def save_sensors(sensors: Sequence[SensorMetadata], path: str | Path) -> None:
    write_csv(
        path,
        {
            "sensor_id": [s.sensor_id for s in sensors],
            "lat": [s.coords[0] for s in sensors],
            "lon": [s.coords[1] for s in sensors],
        },
    )


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
