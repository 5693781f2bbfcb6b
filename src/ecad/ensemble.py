"""Bootstrap leave-one-out ensemble training and the initial anomaly score set.

Training takes the ``(times, sensors, X, y)`` arrays of ``panel.build_features``.
Bootstrap sampling runs over time indices only: each model trains on every
sensor's rows at its in-bag times, so a single ensemble serves all sensors.
A bag is a multiplicity vector over the available times
(`BootstrapPlan.multiplicity`), and one `backends.fit` call fits all B bags
into one stacked model, `Ensemble.model`.  A time's training score is
aggregated exclusively from models whose bag excludes that time, which keeps
the scores out-of-sample without any data splitting.  ``Ensemble.model.predict``
is the one source of per-model predictions, ``(B, n)``, for the training
scores and for detection.  The artifact stores model b's parameters as the
members ``model{b}_{name}``, one per name of the backend's ``param_shapes``
table.  Ensembles are immutable after construction.
"""

from __future__ import annotations

import io
import json
import logging
import zipfile
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from .backends import MODEL_TYPES, BackendSpec, Bags, MLPModel, RidgeModel, fit

__all__ = [
    "AggregatorSpec",
    "loo_aggregate",
    "BootstrapPlan",
    "bootstrap_indices",
    "train_ensemble",
    "Ensemble",
    "loo_predict",
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

    def validate(self) -> None:
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


def _window_mean(wires: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mean of ranks [lo, hi) over the leading axis of ``wires``, which it overwrites.

    The comparator outputs are exactly the sorted values, and the window is
    summed one rank at a time in ascending order, so the result is bit-identical
    to sorting along axis 0 and summing ``sorted[lo:hi]`` in order.
    """
    w = list(wires)
    spare = np.empty_like(w[0])
    for a, b, want_min, want_max in _selection_network(len(w), lo, hi):
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


def loo_aggregate(preds: np.ndarray, excluded: np.ndarray, agg: AggregatorSpec) -> np.ndarray:
    """(n, m) aggregates of (B, n) model predictions over m leave-one-out model sets.

    The result is point-major: row j holds point j's aggregate over each LOO
    set, and column i combines the models that ``excluded[i]`` (an (m, B)
    boolean matrix) marks: the mean of the rank window ``agg.rank_window`` of
    their sorted predictions at each point.  For the median and trimmed mean,
    all LOO sets of one size go through one comparator network at once (see
    `_selection_network`), a tile of points at a time; its outputs are the
    sorted values themselves, and the window is summed one rank at a time in
    ascending order, so the aggregates equal those of a per-set sort exactly
    and do not depend on the number of points.  Non-finite predictions are
    rejected.
    """
    agg.validate()
    _check_finite_predictions(preds)
    counts = excluded.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("cannot aggregate an empty leave-one-out model set")
    if agg.kind == "mean":
        out = preds.T @ excluded.T.astype(np.float64)
        out /= counts
        return out
    n = preds.shape[1]
    out = np.empty((n, excluded.shape[0]))
    groups = []
    for count in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == count)
        members = np.nonzero(excluded[idx])[1].reshape(idx.size, count).T  # (count, g)
        groups.append((idx, members, *agg.rank_window(count)))
    for start in range(0, n, _NETWORK_TILE):
        tile = preds[:, start : start + _NETWORK_TILE]
        for idx, members, lo, hi in groups:
            out[start : start + _NETWORK_TILE, idx] = _window_mean(tile[members], lo, hi).T
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
    def membership(self) -> np.ndarray:
        """(n_models, n_available) boolean matrix: bag b contains available[i]."""
        return self.multiplicity > 0

    @cached_property
    def excluded(self) -> np.ndarray:
        """(n_available, n_models) boolean matrix: row i is the LOO model set of available[i]."""
        return ~self.membership.T

    @cached_property
    def usable(self) -> np.ndarray:
        """Mask over ``available`` of the times whose leave-one-out set is nonempty."""
        return ~self.membership.all(axis=0)

    @cached_property
    def usable_excluded(self) -> np.ndarray:
        """(n_usable, n_models) boolean matrix: the LOO model sets of the usable times."""
        return self.excluded[self.usable]

    def loo_set(self, t: int) -> np.ndarray:
        """(n_models,) boolean mask of the models whose bag excludes time t."""
        pos = int(np.searchsorted(self.available, t))
        if pos >= self.available.size or self.available[pos] != t:
            raise ValueError(f"time index {t} is not in the available set")
        return self.excluded[pos]


def bootstrap_indices(available: Iterable[int], n_models: int, seed: int) -> BootstrapPlan:
    """Draw B bootstrap multisets over the available time indices.

    Each multiset has exactly ``len(available)`` entries drawn i.i.d. uniformly
    with replacement; deterministic given the seed.
    """
    avail = np.unique(np.asarray(list(available), dtype=np.int64))
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

    ``score_times/score_sensors/score_values`` hold one aggregated score per
    (time, sensor) row whose LOO model set is nonempty, sorted by (time,
    sensor).  Times whose LOO set is empty are dropped and counted in
    ``dropped_empty_loo``.
    """

    plan: BootstrapPlan
    model: RidgeModel | MLPModel
    aggregator: AggregatorSpec
    backend: BackendSpec
    n_sensors: int
    score_times: np.ndarray
    score_sensors: np.ndarray
    score_values: np.ndarray

    @property
    def n_models(self) -> int:
        return self.plan.n_models

    @property
    def usable_times(self) -> np.ndarray:
        return self.plan.available[self.plan.usable]

    @property
    def usable_loo_mask(self) -> np.ndarray:
        """(n_usable, n_models) boolean matrix: the LOO model set of each usable time."""
        return self.plan.usable_excluded

    @property
    def dropped_empty_loo(self) -> int:
        return int(np.count_nonzero(~self.plan.usable))


def train_ensemble(
    times: np.ndarray,
    sensors: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    spec: BackendSpec,
    n_models: int,
    aggregator: AggregatorSpec = AggregatorSpec(),
    seed: int = 0,
) -> Ensemble:
    """Fit B bootstrap models over time indices and compute the LOO score set.

    Row i of the arrays is the example (times[i], sensors[i], X[i], y[i]).
    Model b trains on all rows (every sensor) whose time index lies in its bag,
    honoring duplicates.  The training score of row (i, k) is
    |y_ik - aggregate(predictions at x_ik of the models excluding time i)|;
    rows whose LOO set is empty are dropped with a warning.  A model that
    cannot be fitted on its data (for instance an MLP that diverges) raises
    ValueError naming the bag.
    """
    times = np.asarray(times, dtype=np.int64)
    sensors = np.asarray(sensors, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lengths = {"times": len(times), "sensors": len(sensors), "X": len(X), "y": len(y)}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"feature arrays differ in length: {lengths}")
    if not len(y):
        raise ValueError("no feature rows to train on")
    spec.validate()
    aggregator.validate()
    n_sensors = int(sensors.max()) + 1
    plan = bootstrap_indices(np.unique(times), n_models, seed)

    order = np.lexsort((sensors, times))
    sorted_times = times[order]
    block_starts = np.searchsorted(sorted_times, plan.available, side="left")
    block_stops = np.searchsorted(sorted_times, plan.available, side="right")

    try:
        model = fit(spec, X, y, Bags(order, block_starts, block_stops, plan.multiplicity))
    except ValueError as exc:  # numpy's LinAlgError is a ValueError
        raise ValueError(f"bootstrap ensemble failed to fit: {exc}") from exc

    usable, excluded = plan.usable, plan.excluded
    if not usable.all():
        logger.warning(
            "dropped %d of %d time indices with empty leave-one-out model sets",
            np.count_nonzero(~usable), usable.size,
        )
    # sorted row i belongs to available time row_pos[i]; the kept rows are
    # those of usable times, ascending by (time, sensor)
    row_pos = np.repeat(np.arange(usable.size), block_stops - block_starts)
    kept = usable[row_pos]
    keep, keep_pos = order[kept], row_pos[kept]
    predictions = model.predict(X)  # (B, n_rows)
    _check_finite_predictions(predictions)
    counts = excluded.sum(axis=1)
    if aggregator.kind == "mean":
        # every row's sum over its time's LOO set in one pass over all rows
        row_time = np.empty(len(y), dtype=np.intp)
        row_time[order] = row_pos
        sums = np.einsum("bj,bj->j", predictions, excluded.T[:, row_time])
        loo = sums[keep] / counts[keep_pos]
    else:
        # one selection network per LOO set size over every kept row whose
        # time has a set of that size: wire r of row j is its r-th LOO member's prediction
        loo = np.empty(keep.size)
        keep_counts = counts[keep_pos]
        for count in np.unique(keep_counts).tolist():
            sel = keep_counts == count
            members = np.nonzero(excluded[keep_pos[sel]])[1].reshape(-1, count)
            loo[sel] = _window_mean(predictions[members.T, keep[sel]], *aggregator.rank_window(count))
    return Ensemble(
        plan=plan,
        model=model,
        aggregator=aggregator,
        backend=spec,
        n_sensors=n_sensors,
        score_times=times[keep],
        score_sensors=sensors[keep],
        score_values=np.abs(y[keep] - loo),
    )


def loo_predict(ensemble: Ensemble, t: int, x: np.ndarray) -> float:
    """Aggregate the predictions at x of exactly the models whose bag excludes t."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    excluded = ensemble.plan.loo_set(t)[None, :]
    return float(loo_aggregate(ensemble.model.predict(x), excluded, ensemble.aggregator)[0, 0])


def save_ensemble(ensemble: Ensemble, path: str | Path) -> None:
    """Serialize the ensemble to a versioned .npz artifact."""
    meta = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "backend": asdict(ensemble.backend),
        "aggregator": asdict(ensemble.aggregator),
        "n_models": ensemble.n_models,
        "n_sensors": ensemble.n_sensors,
        "seed": ensemble.plan.seed,
        "dropped_empty_loo": ensemble.dropped_empty_loo,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta, sort_keys=True)),
        "available": ensemble.plan.available,
        "in_bag": ensemble.plan.in_bag,
        "score_times": ensemble.score_times,
        "score_sensors": ensemble.score_sensors,
        "score_values": ensemble.score_values,
    }
    for b in range(ensemble.n_models):
        for name, stack in ensemble.model.params.items():
            arrays[f"model{b}_{name}"] = stack[b]
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    Path(path).write_bytes(buffer.getvalue())


def load_ensemble(path: str | Path) -> Ensemble:
    """Load a serialized ensemble, refusing mismatched format versions."""
    path = Path(path)
    if not zipfile.is_zipfile(path):
        raise ValueError("the file is not an ensemble artifact: it is not an .npz archive")
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise ValueError("the file is not an ensemble artifact: it has no meta record")
        meta = json.loads(str(data["meta"]))
        version = meta.get("format_version")
        if version != ENSEMBLE_FORMAT_VERSION:
            raise ValueError(
                f"ensemble artifact format version {version} is not supported "
                f"(expected {ENSEMBLE_FORMAT_VERSION})"
            )
        try:
            backend = BackendSpec(**meta["backend"])
            aggregator = AggregatorSpec(**meta["aggregator"])
            n_models, n_sensors, seed = (int(meta[key]) for key in ("n_models", "n_sensors", "seed"))
        except KeyError as exc:
            raise ValueError(f"the ensemble meta record lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"the ensemble meta record is malformed: {exc}") from None
        backend.validate()
        aggregator.validate()
        available, in_bag = data["available"], data["in_bag"]
        if in_bag.shape != (n_models, available.size) or not np.isin(in_bag, available).all():
            raise ValueError(
                f"ensemble array in_bag must be a {(n_models, available.size)} "
                f"matrix of available times, got shape {in_bag.shape}"
            )
        scores = {key: data[key] for key in ("score_times", "score_sensors", "score_values")}
        if len({a.shape for a in scores.values()}) != 1:
            shapes = {key: a.shape for key, a in scores.items()}
            raise ValueError(f"ensemble arrays score_* differ in shape: {shapes}")
        if ((scores["score_sensors"] < 0) | (scores["score_sensors"] >= n_sensors)).any():
            raise ValueError(f"ensemble array score_sensors falls outside [0, {n_sensors})")
        if not np.isfinite(scores["score_values"]).all():
            raise ValueError("ensemble array score_values holds non-finite values")
        if (scores["score_values"] < 0).any():
            raise ValueError("ensemble array score_values holds negative scores")

        def member(key: str) -> np.ndarray:
            if key not in data.files:
                raise ValueError(f"ensemble array {key} is missing")
            return data[key]

        # every model's parameters must have the shapes the backend's table gives
        # for the input width of model 0
        width = member("model0_x_mean").shape
        if len(width) != 1:
            raise ValueError(f"ensemble array model0_x_mean must be 1-D, got shape {width}")
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
        return Ensemble(
            plan=BootstrapPlan(n_models, available, in_bag, seed=seed),
            model=model_type(backend, params),
            aggregator=aggregator,
            backend=backend,
            n_sensors=n_sensors,
            **scores,
        )
