"""Bootstrap leave-one-out ensemble training and the initial anomaly score set.

Training takes the ``(times, sensors, X, y)`` arrays of ``panel.build_features``.
Bootstrap sampling runs over time indices only: each model trains on every
sensor's rows at its in-bag times, so a single ensemble serves all sensors.
A time's training score is aggregated exclusively from models whose bag
excludes that time, which keeps the scores out-of-sample without any data
splitting.  Ensembles are immutable after construction.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .backends import BackendSpec, fit, model_from_state

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


def loo_aggregate(preds: np.ndarray, excluded: np.ndarray, agg: AggregatorSpec) -> np.ndarray:
    """(n, m) aggregates of (B, n) model predictions over m leave-one-out model sets.

    The result is point-major: row j holds point j's aggregate over each LOO
    set, and column i combines the models that ``excluded[i]`` (an (m, B)
    boolean matrix) marks: the mean of the rank window ``agg.rank_window`` of
    their sorted predictions at each point.  The window is summed one rank at
    a time in ascending order, so the median and trimmed mean do not depend on
    the number of points.
    """
    agg.validate()
    counts = excluded.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("cannot aggregate an empty leave-one-out model set")
    if agg.kind == "mean":
        out = preds.T @ excluded.T.astype(np.float64)
        out /= counts
        return out
    out = np.empty((preds.shape[1], excluded.shape[0]))
    for i, models in enumerate(excluded):
        ranked = preds[models].T.copy()  # (n, count): each point's predictions contiguous
        ranked.sort(axis=1)
        lo, hi = agg.rank_window(int(counts[i]))
        column = out[:, i]
        column[:] = ranked[:, lo]
        for r in range(lo + 1, hi):
            column += ranked[:, r]
        column /= hi - lo
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
    def membership(self) -> np.ndarray:
        """(n_models, n_available) boolean matrix: bag b contains available[i]."""
        member = np.zeros((self.n_models, self.available.size), dtype=bool)
        member[np.arange(self.n_models)[:, None], np.searchsorted(self.available, self.in_bag)] = True
        return member

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
    """B fitted models plus the plan, aggregator, and initial training scores.

    ``score_times/score_sensors/score_values`` hold one aggregated score per
    (time, sensor) row whose LOO model set is nonempty, sorted by (time,
    sensor).  Times whose LOO set is empty are dropped and counted in
    ``dropped_empty_loo``.
    """

    plan: BootstrapPlan
    models: tuple
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

    def scores_for_sensor(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, scores) for sensor k, ascending by time."""
        sel = self.score_sensors == k
        return self.score_times[sel], self.score_values[sel]

    def predict_all_models(self, X: np.ndarray) -> np.ndarray:
        """(n_models, n_points) matrix of per-model predictions."""
        return np.stack([m.predict(X) for m in self.models])


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
    rows whose LOO set is empty are dropped with a warning.
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

    models = []
    for b in range(n_models):
        positions = np.searchsorted(plan.available, plan.in_bag[b])
        row_idx = np.concatenate(
            [order[block_starts[p] : block_stops[p]] for p in positions]
        )
        try:
            models.append(fit(spec, X[row_idx], y[row_idx]))
        except Exception as exc:
            raise RuntimeError(f"bootstrap model {b} failed to fit: {exc}") from exc

    predictions = np.stack([m.predict(X) for m in models])  # (B, n_rows)
    usable, excluded = plan.usable, plan.excluded
    if not usable.all():
        logger.warning(
            "dropped %d of %d time indices with empty leave-one-out model sets",
            np.count_nonzero(~usable), usable.size,
        )
    scores = np.empty(len(y))
    for p in np.flatnonzero(usable):
        block = order[block_starts[p] : block_stops[p]]
        loo = loo_aggregate(predictions[:, block], excluded[p : p + 1], aggregator)[:, 0]
        scores[block] = np.abs(y[block] - loo)
    keep = order[np.repeat(usable, block_stops - block_starts)]  # ascending (time, sensor)

    return Ensemble(
        plan=plan,
        models=tuple(models),
        aggregator=aggregator,
        backend=spec,
        n_sensors=n_sensors,
        score_times=times[keep],
        score_sensors=sensors[keep],
        score_values=scores[keep],
    )


def loo_predict(ensemble: Ensemble, t: int, x: np.ndarray) -> float:
    """Aggregate the predictions at x of exactly the models whose bag excludes t."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    excluded = ensemble.plan.loo_set(t)[None, :]
    return float(loo_aggregate(ensemble.predict_all_models(x), excluded, ensemble.aggregator)[0, 0])


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
    for b, model in enumerate(ensemble.models):
        for key, value in model.state_arrays().items():
            arrays[f"model{b}_{key}"] = value
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    Path(path).write_bytes(buffer.getvalue())


def load_ensemble(path: str | Path) -> Ensemble:
    """Load a serialized ensemble, refusing mismatched format versions."""
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        version = meta.get("format_version")
        if version != ENSEMBLE_FORMAT_VERSION:
            raise ValueError(
                f"ensemble artifact format version {version} is not supported "
                f"(expected {ENSEMBLE_FORMAT_VERSION})"
            )
        backend_fields = dict(meta["backend"])
        backend_fields["mlp_hidden"] = tuple(backend_fields["mlp_hidden"])
        backend = BackendSpec(**backend_fields)
        aggregator = AggregatorSpec(**meta["aggregator"])
        n_models = int(meta["n_models"])
        n_sensors = int(meta["n_sensors"])
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
        models = []
        for b in range(n_models):
            prefix = f"model{b}_"
            state = {
                key[len(prefix) :]: data[key] for key in data.files if key.startswith(prefix)
            }
            try:
                models.append(model_from_state(backend, state))
            except KeyError as exc:
                raise ValueError(f"ensemble array {prefix}{exc.args[0]} is missing") from None
        return Ensemble(
            plan=BootstrapPlan(n_models, available, in_bag, seed=int(meta["seed"])),
            models=tuple(models),
            aggregator=aggregator,
            backend=backend,
            n_sensors=n_sensors,
            **scores,
        )
