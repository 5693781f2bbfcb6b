"""Bootstrap leave-one-out ensemble training and the initial anomaly score set.

Training takes a complete panel, its neighbour array and the lag depth, and
reads the time x sensor grid ``(times, X, y)`` of ``panel.build_features``
through a `panel.FeatureGrid`, which builds the features of the times asked
for and no others: the whole ``(T', K, d)`` grid never exists.  Bootstrap
sampling runs over time indices only: each model trains on every sensor's
rows at its in-bag times, so a single ensemble serves all sensors.  A bag is a
multiplicity vector over the available times (`BootstrapPlan.multiplicity`),
and one `backends.fit` call fits all B bags into one stacked model,
`Ensemble.model`, with the K rows of each time as one block.
A time's training score is aggregated exclusively from models whose bag
excludes that time, which keeps the scores out-of-sample without any data
splitting; the scores form one ``(n_usable_times, K)`` grid, `Ensemble.scores`.
They are predicted and aggregated one block of whole times at a time
(``panel.time_blocks``, the package's one block rule), so training holds one
block's features and ``(B, block)`` predictions, never those of every row.
Every aggregator takes one path there: the times whose LOO sets have one size
are aggregated together by `_window_mean`, which sums each set in model order
for the mean and runs a comparator network first for the median and trimmed
mean.
``Ensemble.model.predict`` is the one source of per-model predictions,
``(B, n)``, for the training scores and for detection.  The artifact stores
the score grid flat, as the ``score_times``, ``score_sensors`` and
``score_values`` of its rows, and model b's parameters as the members
``model{b}_{name}``, one per name of the backend's ``param_shapes`` table.
Its training context, which detection continues, is ``available`` (the times
n_lags, n_lags + 1, ...), the member ``lag_rows`` (the training panel's last
n_lags rows) and the meta ``inputs``, the SHA-256 of each input by file name.
Ensembles are immutable after construction.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from .backends import MODEL_TYPES, BackendSpec, MLPModel, RidgeModel, fit
from .panel import FeatureGrid, distinct, grid_rows, time_blocks

__all__ = [
    "AggregatorSpec",
    "loo_aggregate",
    "BootstrapPlan",
    "bootstrap_indices",
    "train_ensemble",
    "Ensemble",
    "save_ensemble",
    "load_ensemble",
    "ENSEMBLE_FORMAT_VERSION",
]

logger = logging.getLogger(__name__)

ENSEMBLE_FORMAT_VERSION = 1

AGGREGATOR_KINDS = ("mean", "median", "trimmed_mean")


@dataclass(frozen=True)
class AggregatorSpec:
    """Pointwise combiner of bootstrap predictions."""

    kind: str = "mean"
    trim_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(
                f"unknown aggregator {self.kind!r}; expected one of {AGGREGATOR_KINDS}"
            )
        if self.kind == "trimmed_mean" and not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError(f"trim_fraction must be in [0, 0.5), got {self.trim_fraction}")

    def rank_window(self, count: int) -> tuple[int, int]:
        """Ranks [lo, hi) of ``count`` sorted predictions whose mean is the aggregate."""
        if self.kind == "mean":
            return 0, count
        if self.kind == "median":
            return (count - 1) // 2, count // 2 + 1
        cut = int(np.floor(self.trim_fraction * count))
        return cut, count - cut


# points per wire of the selection network in loo_aggregate
_NETWORK_TILE = 128


@lru_cache(maxsize=None)  # one entry per (set size, rank window) in use: at most B per aggregator
def _selection_network(count: int, lo: int, hi: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """Comparators ``(a, b, want_min, want_max)`` that place ranks [lo, hi) of ``count`` wires.

    The network is Batcher's odd-even merge sort over ``count`` wires padded to
    a power of two.  The pad wires would hold +inf, so every comparator that
    touches one is a no-op and is dropped.  A backward liveness pass then drops
    the comparators whose outputs never reach ranks lo..hi-1; ``want_min`` /
    ``want_max`` say which of a kept comparator's two outputs is read later.
    """
    width = 1 << (count - 1).bit_length()
    comparators = []
    p = 1
    while p < width:
        k = p
        while k >= 1:
            for j in range(k % p, width - k, 2 * k):
                for i in range(min(k, width - j - k)):
                    a, b = i + j, i + j + k
                    if a // (2 * p) == b // (2 * p) and b < count:
                        comparators.append((a, b))
            k //= 2
        p *= 2
    live = set(range(lo, hi))
    kept = []
    for a, b in reversed(comparators):
        want_min, want_max = a in live, b in live
        if want_min or want_max:
            kept.append((a, b, want_min, want_max))
            live.update((a, b))
    return tuple(reversed(kept))


def _window_mean(wires: np.ndarray, network: tuple, lo: int, hi: int) -> np.ndarray:
    """Mean of wires [lo, hi) of ``wires`` after ``network`` runs on them; it overwrites them.

    ``network`` is a `_selection_network`, whose outputs are exactly the sorted
    values along the leading axis, or ``()``, which keeps the wires in order.
    The window is summed one wire at a time in ascending order, so with a
    network the result is bit-identical to sorting along axis 0 and summing
    ``sorted[lo:hi]`` in order.
    """
    w = list(wires)
    spare = np.empty_like(w[0])
    for a, b, want_min, want_max in network:
        if not want_max:
            np.minimum(w[a], w[b], out=w[a])
        elif not want_min:
            np.maximum(w[a], w[b], out=w[b])
        else:
            np.minimum(w[a], w[b], out=spare)
            np.maximum(w[a], w[b], out=w[b])
            w[a], spare = spare, w[a]
    total = w[lo]
    for r in range(lo + 1, hi):
        total += w[r]
    total /= hi - lo
    return total


def _check_finite_predictions(preds: np.ndarray) -> None:
    # a NaN would score as "flagged" downstream, and np.sort puts it last while
    # np.minimum/np.maximum spread it, so the network and the sort would disagree
    if not np.isfinite(preds).all():
        raise ValueError("cannot aggregate non-finite model predictions")


def _size_groups(excluded: np.ndarray, agg: AggregatorSpec) -> list[tuple]:
    """The LOO sets of ``excluded`` (an (m, B) boolean matrix) grouped by size.

    One ``(rows, members, network, lo, hi)`` per distinct set size: the rows of
    ``excluded`` whose set has that size, their ``(count, g)`` member models in
    ascending order (column j lists set ``rows[j]``), and the
    `_selection_network` of the window ``agg.rank_window(count)``.  The mean
    has no network, so `_window_mean` sums each set in model order.
    """
    counts = excluded.sum(axis=1)
    groups = []
    for count in distinct(counts).tolist():
        rows = np.flatnonzero(counts == count)
        members = np.nonzero(excluded[rows])[1].reshape(rows.size, count).T
        lo, hi = agg.rank_window(count)
        network = () if agg.kind == "mean" else _selection_network(count, lo, hi)
        groups.append((rows, members, network, lo, hi))
    return groups


def loo_aggregate(preds: np.ndarray, excluded: np.ndarray, agg: AggregatorSpec) -> np.ndarray:
    """(n, m) aggregates of (B, n) model predictions over m leave-one-out model sets.

    The result is point-major: row j holds point j's aggregate over each LOO
    set, and column i combines the models that ``excluded[i]`` (an (m, B)
    boolean matrix) marks: the mean of the rank window ``agg.rank_window`` of
    their sorted predictions at each point.  The mean is one matrix product
    whose (B, m) weight matrix holds 1/|S_i| for each model of set i: no second
    pass over the result divides by the set size, and the last bits of a mean
    can differ from those of its sum divided by |S_i|.  For the median and
    trimmed mean, all LOO sets of one size go through one comparator network
    at once (see `_selection_network`), a tile of points at a time; its
    outputs are the sorted values themselves, and the window is summed one
    rank at a time in ascending order, so the aggregates equal those of a
    per-set sort exactly and do not depend on the number of points.
    Non-finite predictions are rejected.
    """
    _check_finite_predictions(preds)
    counts = excluded.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("cannot aggregate an empty leave-one-out model set")
    if agg.kind == "mean":
        return preds.T @ (excluded.T / counts)
    n = preds.shape[1]
    out = np.empty((n, excluded.shape[0]))
    groups = _size_groups(excluded, agg)
    for start in range(0, n, _NETWORK_TILE):
        tile = preds[:, start : start + _NETWORK_TILE]
        for idx, members, network, lo, hi in groups:
            out[start : start + _NETWORK_TILE, idx] = _window_mean(tile[members], network, lo, hi).T
    return out


@dataclass
class BootstrapPlan:
    """B multisets of time indices drawn with replacement from the available times.

    ``in_bag[b]`` preserves draw order and duplicates; a duplicated time
    contributes its rows twice to that model's fit.
    """

    n_models: int
    available: np.ndarray
    in_bag: np.ndarray
    seed: int

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """(n_models, n_available) counts: how often bag b drew available[i]."""
        n_available = self.available.size
        draws = np.searchsorted(self.available, self.in_bag)
        draws += np.arange(self.n_models)[:, None] * n_available
        counts = np.bincount(draws.ravel(), minlength=self.n_models * n_available)
        return counts.reshape(self.n_models, n_available)

    @cached_property
    def usable(self) -> np.ndarray:
        """Mask over ``available`` of the times whose leave-one-out set is nonempty."""
        return (self.multiplicity == 0).any(axis=0)

    @cached_property
    def usable_excluded(self) -> np.ndarray:
        """(n_usable, n_models) boolean matrix: row i marks the models whose bag lacks usable time i."""
        return self.multiplicity.T[self.usable] == 0


def bootstrap_indices(available: Iterable[int], n_models: int, seed: int) -> BootstrapPlan:
    """Draw B bootstrap multisets over the available time indices.

    Each multiset has exactly ``len(available)`` entries drawn i.i.d. uniformly
    with replacement; deterministic given the seed.
    """
    if not isinstance(available, np.ndarray):
        available = list(available)
    avail = distinct(np.asarray(available, dtype=np.int64))
    if avail.size == 0:
        raise ValueError("available time index set is empty")
    if n_models < 1:
        raise ValueError(f"need at least one bootstrap model, got {n_models}")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, avail.size, size=(n_models, avail.size))
    return BootstrapPlan(n_models, avail, avail[draws], int(seed))


@dataclass
class Ensemble:
    """B fitted models, stacked in one model, plus the plan, aggregator, and training scores.

    ``scores`` is the ``(n_usable_times, K)`` grid of training scores: row i
    holds every sensor's score at ``usable_times[i]``, and column k is sensor
    k.  Times whose LOO set is empty have no row; ``dropped_empty_loo`` counts
    them.
    """

    plan: BootstrapPlan
    model: RidgeModel | MLPModel
    aggregator: AggregatorSpec
    scores: np.ndarray

    @property
    def n_models(self) -> int:
        return self.plan.n_models

    @property
    def n_sensors(self) -> int:
        return self.scores.shape[1]

    @property
    def usable_times(self) -> np.ndarray:
        return self.plan.available[self.plan.usable]

    @property
    def dropped_empty_loo(self) -> int:
        return int(np.count_nonzero(~self.plan.usable))


def train_ensemble(
    values: np.ndarray,
    neighbors: np.ndarray,
    n_lags: int,
    spec: BackendSpec,
    n_models: int,
    aggregator: AggregatorSpec = AggregatorSpec(),
    seed: int = 0,
) -> Ensemble:
    """Fit B bootstrap models over time indices and compute the LOO score grid.

    ``values`` is a complete ``(T, K)`` panel, ``neighbors`` its ``(K, m)``
    neighbour array and ``n_lags`` the lag depth: the examples are those of
    ``panel.build_features(values, neighbors, n_lags)``, ``(X[i, k], y[i, k])``
    sensor k's at time ``n_lags + i``, and their features are built from the
    panel (`panel.FeatureGrid`) only a chunk of times at a time.  Model b
    trains on all rows (every sensor) whose time index lies in its bag,
    honoring duplicates.  The training score of (i, k) is
    |y_ik - aggregate(predictions at x_ik of the models excluding time i)|;
    times whose LOO set is empty are dropped with a warning, and ValueError
    is raised if that leaves no time.  A panel that ``build_features``
    refuses raises its ValueError, and a model that cannot be fitted on its
    data (for instance an MLP that diverges) raises ValueError naming the bag.
    """
    X = FeatureGrid(values, neighbors, n_lags)
    y = X.y
    n_sensors = y.shape[1]
    plan = bootstrap_indices(X.times, n_models, seed)
    usable = plan.usable
    if not usable.any():
        raise ValueError(
            f"no training time has a leave-one-out model set: each of the {usable.size} times "
            f"lies in all {n_models} bootstrap bags; use more models or a longer training panel"
        )
    try:
        model = fit(spec, X, y, plan.multiplicity)
    except ValueError as exc:  # numpy's LinAlgError is a ValueError
        raise ValueError(f"bootstrap ensemble failed to fit: {exc}") from exc

    if not usable.all():
        logger.warning(
            "dropped %d of %d time indices with empty leave-one-out model sets",
            np.count_nonzero(~usable), usable.size,
        )
    times_used = np.flatnonzero(usable)
    loo = np.empty((times_used.size, n_sensors))
    # each LOO set size's group, with its rows' grid times, runs once per block:
    # wire r of (i, k) is the prediction of i's r-th LOO member; rows ascend in time
    groups = [(*group, times_used[group[0]]) for group in _size_groups(plan.usable_excluded, aggregator)]
    for block in time_blocks(len(y), n_sensors):
        predictions = model.predict(X[block].reshape(-1, X.shape[2]))  # (B, block points), built here
        _check_finite_predictions(predictions)
        grid = predictions.reshape(len(predictions), -1, n_sensors)  # (B, block times, K)
        for rows, members, network, lo, hi, at in groups:
            i, j = np.searchsorted(at, (block.start, block.stop))
            loo[rows[i:j]] = _window_mean(grid[members[:, i:j], at[i:j] - block.start], network, lo, hi)
    return Ensemble(
        plan=plan,
        model=model,
        aggregator=aggregator,
        scores=np.abs(y[usable] - loo),
    )


def save_ensemble(ensemble: Ensemble, path: str | Path, lag_rows: np.ndarray, inputs: dict[str, str]) -> None:
    """Serialize the ensemble and its training context (see the module docstring) to a versioned .npz."""
    meta = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "backend": asdict(ensemble.model.spec),
        "aggregator": asdict(ensemble.aggregator),
        "n_models": ensemble.n_models,
        "n_sensors": ensemble.n_sensors,
        "seed": ensemble.plan.seed,
        "inputs": inputs,
    }
    # the score grid's rows, flat and ordered by (time, sensor)
    score_times, score_sensors = grid_rows(ensemble.usable_times, ensemble.n_sensors)
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta, sort_keys=True)),
        "available": ensemble.plan.available,
        "in_bag": ensemble.plan.in_bag,
        "score_times": score_times,
        "score_sensors": score_sensors,
        "score_values": ensemble.scores.ravel(),
        "lag_rows": lag_rows,
    }
    for b in range(ensemble.n_models):
        for name, stack in ensemble.model.params.items():
            arrays[f"model{b}_{name}"] = stack[b]
    # straight to the file: an in-memory archive would hold the whole artifact again
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_ensemble(path: str | Path) -> tuple[Ensemble, np.ndarray, dict[str, str]]:
    """The ensemble, lag rows and input digests of an artifact, refusing other format versions."""
    if not zipfile.is_zipfile(path):
        raise ValueError("the file is not an ensemble artifact: it is not an .npz archive")
    try:  # a damaged byte fails a CRC-32, a header field, or an offset or size check
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, NotImplementedError, EOFError, OSError) as exc:
        raise ValueError(f"the ensemble archive is damaged: {exc}") from None

    def member(key: str) -> np.ndarray:
        if key not in arrays:
            raise ValueError(f"ensemble array {key} is missing")
        return arrays[key]

    meta = json.loads(str(member("meta")))
    if not isinstance(meta, dict):
        raise ValueError("the ensemble meta record is not a JSON object")
    version = meta.get("format_version")
    if version != ENSEMBLE_FORMAT_VERSION:
        raise ValueError(
            f"ensemble artifact format version {version} is not supported "
            f"(expected {ENSEMBLE_FORMAT_VERSION})"
        )
    int_keys = ("n_models", "n_sensors", "seed")
    try:
        backend = BackendSpec(**meta["backend"])
        aggregator = AggregatorSpec(**meta["aggregator"])
        n_models, n_sensors, seed, inputs = (meta[key] for key in (*int_keys, "inputs"))
    except KeyError as exc:
        raise ValueError(f"the ensemble meta record lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"the ensemble meta record is malformed: {exc}") from None
    for key in int_keys:
        if type(meta[key]) is not int:  # a bool is an int to isinstance
            raise ValueError(f"the ensemble meta record's {key} must be an integer, got {meta[key]!r}")
    if not isinstance(inputs, dict) or not all(isinstance(v, str) for v in inputs.values()):
        raise ValueError(f"the ensemble meta record's inputs must map file names to digests, got {inputs!r}")

    available, in_bag, lag_rows = member("available"), member("in_bag"), member("lag_rows")
    # the feature times n_lags, n_lags + 1, ... of the training panel: available[0] is the lag depth
    n_lags = int(available[0]) if available.ndim == 1 and available.size and available.dtype.kind in "iu" else 0
    if n_lags < 1 or not np.array_equal(available, np.arange(n_lags, n_lags + available.size)):
        raise ValueError("ensemble array available must be the consecutive times n_lags, n_lags + 1, ... from 1 on")
    if lag_rows.shape != (n_lags, n_sensors) or lag_rows.dtype.kind != "f" or not np.isfinite(lag_rows).all():
        raise ValueError(
            f"ensemble array lag_rows must be a finite {(n_lags, n_sensors)} array, got shape {lag_rows.shape}"
        )
    if in_bag.shape != (n_models, available.size) or not np.isin(in_bag, available).all():
        raise ValueError(
            f"ensemble array in_bag must be a {(n_models, available.size)} "
            f"matrix of available times, got shape {in_bag.shape}"
        )
    plan = BootstrapPlan(n_models, available, in_bag, seed=seed)
    # the score members are the rows of the usable-time x sensor grid, flat
    n_usable = int(np.count_nonzero(plan.usable))
    if n_usable == 0:
        raise ValueError("the ensemble holds no training score: every available time lies in every bag")
    for key, want in zip(("score_times", "score_sensors"), grid_rows(available[plan.usable], n_sensors)):
        if not np.array_equal(member(key), want):
            raise ValueError(
                f"ensemble array {key} does not hold the grid rows of the "
                f"{n_usable} usable times x {n_sensors} sensors"
            )
    values = member("score_values")
    if values.shape != (n_usable * n_sensors,):
        raise ValueError(
            f"ensemble array score_values has shape {values.shape}, expected {(n_usable * n_sensors,)}"
        )
    if not np.isfinite(values).all():
        raise ValueError("ensemble array score_values holds non-finite values")
    if (values < 0).any():
        raise ValueError("ensemble array score_values holds negative scores")

    # every model's parameters must have the shapes the backend's table gives
    # for the input width of model 0, n_lags features per neighbour
    width = member("model0_x_mean").shape
    if len(width) != 1 or width[0] % n_lags:
        raise ValueError(f"ensemble array model0_x_mean must be 1-D of n_lags {n_lags} x m, got shape {width}")
    model_type = MODEL_TYPES[backend.kind]
    shapes = model_type.param_shapes(backend, width[0])
    params = {name: np.empty((n_models, *shape)) for name, shape in shapes.items()}
    for b in range(n_models):
        for name, shape in shapes.items():
            key = f"model{b}_{name}"
            value = member(key)
            if value.shape != shape:
                raise ValueError(f"ensemble array {key} has shape {value.shape}, expected {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"ensemble array {key} holds non-finite values")
            params[name][b] = value
    ensemble = Ensemble(plan, model_type(backend, params), aggregator, values.reshape(n_usable, n_sensors))
    return ensemble, lag_rows, inputs
