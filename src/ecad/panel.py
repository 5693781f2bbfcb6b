"""Panel data model: value panels, sensor geometry, lagged feature construction.

A value panel is a float64 ``(T, K)`` array, row t for hour t and column k
for sensor k, with NaN where a cell was not observed; ``as_panel`` is the one
check of that shape.  Sensor geometry is a ``(K, 2)`` array of planar
coordinates whose row k is sensor k; ``neighbor_sets`` ranks every sensor's
neighbours from it into a ``(K, m)`` array of sensor ids, again with row k
for sensor k, and ``check_neighbors`` is the one check of such an array.

``build_features`` turns a complete panel into the time x sensor grid every
later stage consumes: ``(times, X, y)`` with ``X`` of shape ``(T', K, d)`` and
``y`` of shape ``(T', K)``, so sensor k is column k at every time.
``FeatureGrid`` is that grid unbuilt: it gathers the rows of X of the times
asked for from the panel, so training builds one chunk of times at a time.
``as_grid`` is the one check of those shapes, ``grid_rows`` flattens a
grid into its ``(t, k)`` rows where an artifact stores one, and
``time_blocks``, the one block rule, cuts a grid's times into blocks of whole
``PREDICT_CHUNK``-point chunks that training and detection process one at a time.

The CSV format of every pipeline artifact lives here: ``read_csv`` is the only
parser of CSV text and ``write_csv`` the only formatter.  ``distinct`` is the
package's one way to take the sorted distinct values of an array.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "as_panel",
    "read_csv",
    "write_csv",
    "load_panel",
    "save_panel",
    "load_sensors",
    "save_sensors",
    "neighbor_sets",
    "check_neighbors",
    "FeatureGrid",
    "build_features",
    "as_grid",
    "grid_rows",
    "PREDICT_CHUNK",
    "time_blocks",
    "distinct",
]


def as_panel(values: np.ndarray) -> np.ndarray:
    """``values`` as a float64 ``(T, K)`` panel, NaN where unobserved, else ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"panel values must be 2-D, got shape {values.shape}")
    return values


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened, as ``np.unique`` gives them for integers.

    A sort and a comparison of neighbours, because ``np.unique`` imports
    ``numpy.ma`` (11-15 ms and about 1 MB in a fresh process) on first use.
    """
    values = np.sort(a, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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


# cells formatted at a time by write_csv, so a write never holds every cell as a
# Python object; a column's table of distinct values holds at most as many
_WRITE_BLOCK_CELLS = 4096


class _CellText:
    """The text of one column's cells, over the blocks of one file.

    A numeric column formats each distinct value of a block once and looks
    the rest up, taking the text of the values the block before it also held
    from that block's table, so a value that recurs from block to block is
    formatted once.  A column whose first block holds no value twice, or a
    block of more than ``_WRITE_BLOCK_CELLS`` distinct values, is formatted
    cell by cell from then on.  A float's key is its bit pattern, so values
    that compare equal but print differently (0.0 and -0.0) keep their own
    text.
    """

    def __init__(self, a: np.ndarray) -> None:
        """The column's text, from its first block ``a``."""
        self.dtype = a.dtype
        keys = self._keys(a)
        self.table = None if keys is None else keys[:0]  # sorted distinct keys; None: cell by cell
        self.text = np.empty(0, dtype=object)
        self.first = True

    @staticmethod
    def _keys(a: np.ndarray) -> np.ndarray | None:
        """The integer keys of a numeric column's cells, or None for another column."""
        if a.dtype.kind in "iu":
            return a
        if a.dtype.kind == "f" and a.dtype.itemsize in (2, 4, 8):
            return a.view(f"u{a.dtype.itemsize}")
        return None

    def __call__(self, a: np.ndarray) -> Callable[[slice], Iterable[str]]:
        """The function from a slice of rows of this column's next block ``a`` to the text of its cells."""
        keys = self._keys(a)
        if self.table is not None and (a.dtype != self.dtype or not self._enter(keys)):
            self.table = None
        self.first = False
        if self.table is None:
            return lambda rows: map(str, a[rows].tolist())
        table, text = self.table, self.text
        return lambda rows: text[np.searchsorted(table, keys[rows])].tolist()

    def _enter(self, keys: np.ndarray) -> bool:
        """Make a block's distinct keys the table, with their text; False when it should not have one."""
        # gathered a part at a time, so a column of many distinct values stops early
        found = keys[:0]
        for start in range(0, len(keys), _WRITE_BLOCK_CELLS):
            found = distinct(np.concatenate((found, keys[start : start + _WRITE_BLOCK_CELLS])))
            if found.size > _WRITE_BLOCK_CELLS:
                return False
        if self.first and found.size == len(keys):
            return False
        text = np.empty(found.size, dtype=object)
        at = np.searchsorted(self.table, found).clip(max=max(0, self.table.size - 1))
        known = self.table[at] == found if self.table.size else np.zeros(found.size, dtype=bool)
        text[known] = self.text[at[known]]
        text[~known] = list(map(str, found[~known].view(self.dtype).tolist()))
        self.table, self.text = found, text
        return True


def write_csv(
    path: str | Path, columns: Mapping[str, Sequence | np.ndarray] | Iterable[Mapping[str, Sequence | np.ndarray]]
) -> None:
    """Write equal-length columns to a new file, under a header row of their names.

    ``columns`` maps names to columns, or is an iterable of such mappings with
    the same names: the blocks of one file, taken one at a time, so that only
    one need exist at once.  The file holds the bytes of one call over the
    joined columns.  Every number is written as its shortest round-trip repr
    (``str`` of the Python int or float), a flag as 0 or 1 and a string cell
    (a missing token) as it is, so ``read_csv`` gives back the exact values.
    A numeric column of few distinct values (times, sensor ids, flags,
    p-values) formats each distinct value of a block once, and a value the
    block before also held not again, with the same bytes.  Rows are joined a
    block of about ``_WRITE_BLOCK_CELLS`` cells at a time.  A block of no
    columns, of columns of unequal lengths or of other names than the first
    raises ValueError.
    """
    blocks = [columns] if isinstance(columns, Mapping) else columns
    names: list[str] = []
    texts: list[_CellText] = []
    with open(path, "w") as fh:
        for block in blocks:
            arrays = [np.asarray(c) for c in block.values()]
            arrays = [a.astype(np.uint8) if a.dtype == bool else a for a in arrays]
            lengths = {name: len(a) for name, a in zip(block, arrays)}
            if len(set(lengths.values())) != 1:
                raise ValueError(f"write_csv needs one or more columns of one length, got lengths {lengths}")
            if not names:
                names, texts = list(block), [_CellText(a) for a in arrays]
                fh.write(",".join(names) + "\n")
            elif list(block) != names:
                raise ValueError(f"a block of columns {list(block)} in a file of columns {names}")
            block_rows = max(1, _WRITE_BLOCK_CELLS // len(arrays))
            cells = [text(a) for text, a in zip(texts, arrays)]
            for start in range(0, len(arrays[0]), block_rows):
                rows = slice(start, start + block_rows)
                fh.write("\n".join(map(",".join, zip(*(cell(rows) for cell in cells)))))
                fh.write("\n")


def load_panel(path: str | Path, missing_token: str = "NA") -> np.ndarray:
    """Read a value panel from CSV: one column per sensor, one row per hour.

    Cells equal to ``missing_token`` read as NaN, the panel's unobserved cells.
    """
    return np.column_stack(read_csv(path, missing_token=missing_token))


def save_panel(values: np.ndarray, path: str | Path, missing_token: str = "NA") -> None:
    """Write a panel to CSV; its NaN (unobserved) cells become ``missing_token``.

    Observed values are written with full round-trip precision so a save/load
    cycle is bit-exact.
    """
    values = as_panel(values)
    cells = values.astype(object)
    cells[np.isnan(values)] = missing_token
    write_csv(path, {f"sensor_{k}": cells[:, k] for k in range(values.shape[1])})


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
    The sensor itself is always first, even when another sensor shares its
    coordinates; the rest follow by ascending Euclidean distance with ties
    broken by ascending sensor id.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if size < 1:
        raise ValueError(f"neighbor size must be >= 1, got {size}")
    if size > n:
        raise ValueError(f"neighbor size {size} exceeds sensor count {n}")
    # row k holds every sensor's distance from sensor k; a stable sort keeps ties in id order
    offsets = coords[None, :, :] - coords[:, None, :]
    distance = np.hypot(offsets[..., 0], offsets[..., 1])
    np.fill_diagonal(distance, -1.0)  # the sensor itself, before any sensor at its coordinates
    return np.argsort(distance, axis=1, kind="stable")[:, :size]


def check_neighbors(neighbors: np.ndarray, n_sensors: int) -> np.ndarray:
    """``neighbors`` as an array, refused unless each of its K rows holds m >= 1 distinct ids in [0, K)."""
    neighbors = np.asarray(neighbors)
    if neighbors.ndim != 2 or len(neighbors) != n_sensors or not neighbors.size or neighbors.dtype.kind not in "iu":
        raise ValueError(
            f"neighbor array must be an integer ({n_sensors}, m) array, got {neighbors.dtype} {neighbors.shape}"
        )
    ids = np.sort(neighbors, axis=1)
    if ids[:, 0].min() < 0 or ids[:, -1].max() >= n_sensors or (ids[:, 1:] == ids[:, :-1]).any():
        raise ValueError(f"each row of the neighbor array must hold distinct sensor ids in [0, {n_sensors})")
    return neighbors


class FeatureGrid:
    """The ``(T', K, d)`` feature grid of a complete panel, built a set of times at a time.

    ``values`` is a ``(T, K)`` panel without NaN and ``neighbors`` a ``(K, m)``
    array of sensor ids, row k for sensor k, as ``neighbor_sets`` returns it.
    ``times`` is ``n_lags .. T-1``, ``y`` is ``values[n_lags:]`` (a view, so
    ``y[i, k]`` is sensor k's value at ``times[i]``) and ``shape`` is
    ``(T - n_lags, K, n_lags * m)``.  ``grid[rows]``, for a slice or an
    integer array of grid positions, gathers ``X[rows]`` from the panel:
    ``X[i, k]`` is neighbor-major, for each neighbor in the sensor's row the
    lags from t-1 down to t-n_lags, so only strictly earlier values are
    referenced.  Only the rows asked for are built; the same rows give
    bit-identical arrays.  The grid reads ``values`` without copying it.
    """

    def __init__(self, values: np.ndarray, neighbors: np.ndarray, n_lags: int) -> None:
        values = as_panel(values)
        if np.isnan(values).any():
            raise ValueError("panel has missing entries; impute before building features")
        if n_lags < 1:
            raise ValueError(f"lag depth must be >= 1, got {n_lags}")
        T, K = values.shape
        if n_lags >= T:
            raise ValueError(f"lag depth {n_lags} must be smaller than panel length {T}")
        self.values = values
        self.neighbors = check_neighbors(neighbors, K)
        self.n_lags = n_lags
        self.times = np.arange(n_lags, T)
        self.y = values[n_lags:]
        self.shape = (T - n_lags, K, n_lags * self.neighbors.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice | np.ndarray) -> np.ndarray:
        times = self.times[rows]
        if not times.size:
            return np.empty((0, *self.shape[1:]))
        # the neighbour columns of the hours [lo, hi) that the rows' lags read,
        # latest hour first, so that window w's lag l is hour hi - 1 - w - l:
        # target time t is window hi - t.  One copy of (span, K, m) and one of
        # the result, where indexing the panel by time and neighbour is slower
        lo, hi = int(times.min()) - self.n_lags, int(times.max())
        columns = self.values[lo:hi][:, self.neighbors][::-1]  # (hi - lo, K, m)
        windows = np.lib.stride_tricks.sliding_window_view(columns, self.n_lags, axis=0)  # (., K, m, n_lags)
        return windows[hi - times].reshape(len(times), *self.shape[1:])


def build_features(
    values: np.ndarray,
    neighbors: np.ndarray,
    n_lags: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lagged neighbor features of every (t, k) with t in [n_lags, T): (times, X, y).

    The whole of ``FeatureGrid(values, neighbors, n_lags)``: ``times`` is
    ``n_lags .. T-1``, and ``(X[i, k], y[i, k])`` is the supervised example
    of sensor k at ``times[i]``, with ``y[i, k] = values[times[i], k]`` and
    ``X[i, k]`` of width ``n_lags * m`` (see `FeatureGrid`).  Requires a
    complete panel (no NaN); run the imputer first if there are missing
    entries.  Pure function: identical inputs give bit-identical arrays.
    """
    grid = FeatureGrid(values, neighbors, n_lags)
    return grid.times, grid[:], grid.y


def as_grid(times: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, X, y)`` as the int64 and float64 arrays of a time x sensor grid, else ValueError.

    ``X`` must be ``(T', K, d)``, ``y`` ``(T', K)`` and ``times`` ``(T',)``,
    strictly increasing.
    """
    times = np.asarray(times, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if times.ndim != 1 or y.ndim != 2 or X.ndim != 3 or X.shape[:2] != y.shape or len(times) != len(y):
        raise ValueError(
            f"the arrays do not form a time x sensor grid: times {times.shape}, X {X.shape} and y "
            f"{y.shape} must be of shapes (T',), (T', K, d) and (T', K)"
        )
    if (times[1:] <= times[:-1]).any():
        raise ValueError("the times of the grid must strictly increase")
    return times, X, y


# points per prediction chunk: the training and the test scores are predicted
# and aggregated this many points at a time, in blocks of whole chunks
# (`time_blocks`).  With OpenBLAS 0.3.31 at 1 and 2 threads, such blocks gave
# the predictions of one (25, 25) ridge product over every row bit for bit on
# 286 grids of 5 to 200 sensors, while blocks cut elsewhere, or a short last
# block, moved the last bits of some
PREDICT_CHUNK = 512


def time_blocks(n_times: int, n_sensors: int) -> list[slice]:
    """Consecutive slices of a grid's ``n_times`` times, cut where whole prediction chunks end.

    A block holds ``PREDICT_CHUNK // gcd(PREDICT_CHUNK, n_sensors)`` times, the
    fewest whose ``n_sensors`` points per time fill whole chunks of
    ``PREDICT_CHUNK`` points; the last block also takes the remaining times, so
    that no block is shorter than that unless the whole grid is.
    """
    step = PREDICT_CHUNK // math.gcd(PREDICT_CHUNK, n_sensors)
    starts = list(range(0, n_times, step))[: max(1, n_times // step)]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n_times])]


def grid_rows(times: np.ndarray, n_sensors: int) -> tuple[np.ndarray, np.ndarray]:
    """The (time, sensor) of each row of the time x sensor grid over ``times``, flattened.

    Rows i*K .. i*K + K - 1 hold sensors 0..K-1, in order, at ``times[i]``.
    """
    return np.repeat(times, n_sensors), np.tile(np.arange(n_sensors), len(times))
