"""Panel data model: sensor geometry, observation masks, lagged feature construction.

Sensor geometry is a ``(K, 2)`` array of planar coordinates whose row k is
sensor k; ``neighbor_sets`` ranks every sensor's neighbours from it into a
``(K, m)`` array of sensor ids, again with row k for sensor k.

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


@dataclass
class TimeSeriesPanel:
    """T x K matrix of flow values with a per-entry observation mask.

    ``mask[t, k]`` is True where ``values[t, k]`` was observed.  Masked-out
    entries hold placeholder numbers that must never enter a fit or score
    computation; the imputer replaces them before any training happens.
    ``sensors`` is the ``(K, 2)`` array of sensor coordinates, row k for
    column k; it is optional because value panels and sensor coordinates
    travel in separate files.
    """

    values: np.ndarray
    mask: np.ndarray
    sensors: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError(f"panel values must be 2-D, got shape {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape {self.values.shape}"
            )
        if self.sensors is not None:
            self.sensors = np.asarray(self.sensors, dtype=np.float64)
            if self.sensors.shape != (self.values.shape[1], 2):
                raise ValueError(
                    f"sensor coordinates of shape {self.sensors.shape} attached to a panel "
                    f"with {self.values.shape[1]} columns"
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
        message = str(exc).split(";")[0].replace("the dtype passed requires", "the header has")
        raise ValueError(_with_file_line(message, path)) from None
    for name, kind in kinds.items():
        if kind is bool and (rows[name] > 1).any():
            raise ValueError(f"column {name!r} holds a flag other than 0 or 1")
    arrays = [rows[name].view(kind) for name, kind in kinds.items()]
    if sum(np.count_nonzero(~np.isfinite(a)) for a in arrays if a.dtype.kind == "f") != n_missing:
        raise ValueError("a non-finite cell (nan or inf)")
    return arrays


def _with_file_line(message: str, path: str | Path) -> str:
    """numpy's "at row N" as the 1-based line of the file, the header being line 1.

    numpy counts only the non-empty data rows, from 0 for a bad cell and from 1
    for a row of the wrong width.
    """
    found = re.search(r"at row (\d+)", message)
    if found is None:
        return message
    row = int(found[1]) - ("found at row" in message)
    with open(path) as fh:
        lines = [n for n, line in enumerate(fh.read().splitlines()[1:], start=2) if line]
    return message.replace(found[0], f"on line {lines[row]}")


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


def load_sensors(path: str | Path) -> np.ndarray:
    """Read sensor coordinates from a ``sensor_id,lat,lon`` CSV as a ``(K, 2)`` array.

    Ids must form the contiguous range 0..K-1, and row k of the array is
    sensor k.  Coordinates must be pre-scaled to [0, 1], so any pairwise
    distance is at most sqrt(2).
    """
    ids, lat, lon = read_csv(path, {"sensor_id": np.int64, "lat": float, "lon": float})
    outside = (np.minimum(lat, lon) < 0.0) | (np.maximum(lat, lon) > 1.0)
    if outside.any():
        i = np.argmax(outside)
        raise ValueError(f"sensor {ids[i]} coordinates ({lat[i]}, {lon[i]}) not scaled to [0, 1]")
    if not np.array_equal(np.sort(ids), np.arange(ids.size)):
        raise ValueError(f"sensor ids in {path} must form the contiguous range 0..K-1")
    return np.column_stack((lat, lon))[np.argsort(ids)]


def save_sensors(coords: np.ndarray, path: str | Path) -> None:
    """Write a ``(K, 2)`` coordinate array as ``sensor_id,lat,lon``, sensor k on row k."""
    write_csv(path, {"sensor_id": np.arange(len(coords)), "lat": coords[:, 0], "lon": coords[:, 1]})


def neighbor_sets(coords: np.ndarray, size: int) -> np.ndarray:
    """The ``(K, size)`` array whose row k lists sensor k's ``size`` nearest sensors.

    ``coords`` is the ``(K, 2)`` coordinate array, row k for sensor k.
    Ordering is ascending Euclidean distance with ties broken by ascending
    sensor id, so the sensor itself (distance 0) is always first.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if size < 1:
        raise ValueError(f"neighbor size must be >= 1, got {size}")
    if size > n:
        raise ValueError(f"neighbor size {size} exceeds sensor count {n}")
    # row k holds every sensor's distance from sensor k; a stable sort keeps ties in id order
    offsets = coords[None, :, :] - coords[:, None, :]
    order = np.argsort(np.hypot(offsets[..., 0], offsets[..., 1]), axis=1, kind="stable")
    return order[:, :size]


def build_features(
    panel: TimeSeriesPanel,
    neighbors: np.ndarray,
    n_lags: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lagged neighbor features of every (t, k) with t in [n_lags, T): (times, sensors, X, y).

    ``neighbors`` is a ``(K, m)`` array of sensor ids, row k for sensor k, as
    ``neighbor_sets`` returns it.  Row i is the supervised example
    ``y[i] = values[times[i], sensors[i]]``; rows are ordered by time then
    sensor, (T - n_lags) * K in all.  ``X[i]`` is neighbor-major: for each
    neighbor in the sensor's row the lags appear from t-1 down to t-n_lags, so
    only strictly earlier values are referenced and the width is
    ``n_lags * m``.  Requires a complete panel; run the imputer first if there
    are missing entries.  Pure function: identical inputs give bit-identical
    arrays.
    """
    if not panel.is_complete:
        raise ValueError("panel has missing entries; impute before building features")
    if n_lags < 1:
        raise ValueError(f"lag depth must be >= 1, got {n_lags}")
    T, K = panel.n_times, panel.n_sensors
    if n_lags >= T:
        raise ValueError(f"lag depth {n_lags} must be smaller than panel length {T}")
    neighbors = np.asarray(neighbors)
    if neighbors.ndim != 2 or len(neighbors) != K:
        raise ValueError(f"neighbor array of shape {neighbors.shape} for a panel of {K} sensors")
    # lag_rows[i, l] is the time l+1 steps before target time n_lags + i
    lag_rows = np.arange(n_lags, T)[:, None] - np.arange(1, n_lags + 1)
    X = panel.values[lag_rows[:, None, None, :], neighbors[None, :, :, None]]  # (T - n_lags, K, m, n_lags)
    times = np.repeat(np.arange(n_lags, T), K)
    sensor_ids = np.tile(np.arange(K), T - n_lags)
    y = panel.values[n_lags:, :].reshape(-1)
    return times, sensor_ids, X.reshape(times.size, -1), y
