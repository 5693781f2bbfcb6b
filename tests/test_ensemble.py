import json
import tracemalloc

import numpy as np
import pytest

from ecad.backends import BackendSpec, _check_training_inputs, fit
from ecad.ensemble import (
    AggregatorSpec,
    bootstrap_indices,
    load_ensemble,
    loo_aggregate,
    save_ensemble,
    train_ensemble,
)

from _oracles import loo_predict, loo_set


def _aggregate_all(values, agg):
    """loo_aggregate at one point over a single LOO set holding every model."""
    values = np.asarray(values, dtype=np.float64)
    excluded = np.ones((1, values.size), dtype=bool)
    return float(loo_aggregate(values[:, None], excluded, agg)[0, 0])


def _trimmed_mean_oracle(values, fraction):
    cut = int(np.floor(fraction * len(values)))
    kept = sorted(values)[cut : len(values) - cut]
    return sum(kept) / len(kept)


def _features_from_matrix(values, n_lags=1):
    """Self-only lag features (times, X, y) of a T x K matrix: X[i, k] holds sensor k's lags 1..n_lags."""
    T = len(values)
    X = np.stack([values[n_lags - lag : T - lag] for lag in range(1, n_lags + 1)], axis=2)
    return np.arange(n_lags, T), X, values[n_lags:]


# the training context of every ensemble these tests save: no file backs it
_INPUTS = {"train_panel_completed.csv": "0" * 64, "sensors.csv": "1" * 64}


def _save(ens, path, values):
    """Save ``ens`` with the last ``n_lags`` rows of the T x K ``values`` it was trained on."""
    save_ensemble(ens, path, values[len(values) - ens.plan.available[0] :], _INPUTS)


def test_bootstrap_single_index_has_empty_loo():
    plan = bootstrap_indices([0], 3, seed=0)
    assert plan.in_bag.shape == (3, 1)
    assert np.all(plan.in_bag == 0)
    assert not loo_set(plan, 0).any()


def test_bootstrap_shapes_and_membership():
    plan = bootstrap_indices(range(10, 20), 4, seed=1)
    assert plan.in_bag.shape == (4, 10)
    assert np.all(np.isin(plan.in_bag, plan.available))
    for b in range(4):
        in_bag = set(plan.in_bag[b].tolist())
        for i, t in enumerate(plan.available):
            assert (plan.multiplicity[b, i] > 0) == (int(t) in in_bag)


def test_bootstrap_deterministic():
    a = bootstrap_indices(range(50), 5, seed=3)
    b = bootstrap_indices(range(50), 5, seed=3)
    assert np.array_equal(a.in_bag, b.in_bag)
    assert not np.array_equal(a.in_bag, bootstrap_indices(range(50), 5, seed=4).in_bag)


def test_bootstrap_errors():
    with pytest.raises(ValueError, match="empty"):
        bootstrap_indices([], 3, seed=0)
    with pytest.raises(ValueError):
        bootstrap_indices([1, 2], 0, seed=0)


def test_bootstrap_nonempty_loo_fraction_monte_carlo():
    # with 100 available times and 25 bags, essentially every time index keeps
    # a nonempty LOO set: expected empty rate (1 - (1 - 1/100)^100)^25 ~ 1e-5
    total = 0
    nonempty = 0
    for seed in range(1000):
        plan = bootstrap_indices(range(100), 25, seed=seed)
        counts = (plan.multiplicity == 0).sum(axis=0)
        total += 100
        nonempty += int((counts > 0).sum())
    assert nonempty / total >= 0.999


def test_empty_loo_rare_at_operating_scale():
    # B=25, 120 times, 100 seeds: pooled empty-LOO fraction below 0.1%
    empty = 0
    total = 0
    for seed in range(100):
        plan = bootstrap_indices(range(120), 25, seed=seed)
        empty += int((plan.multiplicity > 0).all(axis=0).sum())
        total += 120
    assert empty / total < 0.001


def test_single_bag_scores_only_out_of_bag_times():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 2))
    feats = _features_from_matrix(values)
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 1, seed=5)
    in_bag = set(ens.plan.in_bag[0].tolist())
    available = set(ens.plan.available.tolist())
    scored = set(ens.usable_times.tolist())
    assert scored == available - in_bag
    assert ens.scores.shape == (len(scored), 2)
    assert ens.dropped_empty_loo == len(available & in_bag)


def test_train_ensemble_rejects_unequal_length_arrays():
    times, X, y = _features_from_matrix(np.random.default_rng(8).normal(size=(10, 2)))
    spec = BackendSpec(kind="ridge")
    for args in [(times[:-1], X, y), (times, X[:-1], y), (times, X, y[:-1])]:
        with pytest.raises(ValueError, match="do not form a time x sensor grid"):
            train_ensemble(*args, spec, 3, seed=0)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t, X, y: (t, X[1:], y), "do not form a time x sensor grid"),
        (lambda t, X, y: (t, X[:, :1], y), "do not form a time x sensor grid"),
        (lambda t, X, y: (np.r_[t[0], t[:-1]], X, y), "strictly increase"),
        (lambda t, X, y: (np.r_[t[1], t[0], t[2:]], X, y), "strictly increase"),
    ],
    ids=["missing-row", "sensor-mismatch", "repeated-time", "time-going-back"],
)
def test_train_ensemble_refuses_rows_that_are_not_the_grid(edit, message):
    # X lacking the row of one time, X with a sensor fewer than y, a time
    # repeated, or the first two times swapped
    feats = edit(*_features_from_matrix(np.random.default_rng(8).normal(size=(10, 2))))
    with pytest.raises(ValueError, match=message):
        train_ensemble(*feats, BackendSpec(kind="ridge"), 3, seed=0)


def test_train_ensemble_rejects_empty_arrays():
    times, X, y = _features_from_matrix(np.random.default_rng(8).normal(size=(10, 2)))
    for args in [(times[:0], X[:0], y[:0]), (times, X[:, :0], y[:, :0])]:
        with pytest.raises(ValueError, match="no feature rows"):
            train_ensemble(*args, BackendSpec(kind="ridge"), 3, seed=0)


def test_train_ensemble_refuses_when_no_time_has_a_loo_set():
    # a single training time lies in every bag, so no model can score it
    feats = _features_from_matrix(np.random.default_rng(8).normal(size=(2, 3)))
    with pytest.raises(ValueError, match="no training time has a leave-one-out model set"):
        train_ensemble(*feats, BackendSpec(kind="ridge"), 3, seed=0)


def test_noiseless_linear_scores_are_zero():
    t = np.arange(60, dtype=float)
    values = np.column_stack([2.0 * t + 1.0, 2.0 * t + 5.0])
    # both sensors satisfy y_t = y_{t-1} + 2, so one lag feature fits exactly
    feats = _features_from_matrix(values)
    ens = train_ensemble(*feats, BackendSpec(kind="ridge", ridge_lambda=0.0), 10, seed=2)
    assert ens.scores.size > 0
    assert np.max(ens.scores) < 1e-6


def test_no_training_score_uses_in_bag_model():
    # construction audit: the LOO model set of every scored time must be
    # disjoint from the bags containing that time
    rng = np.random.default_rng(1)
    feats = _features_from_matrix(rng.normal(size=(30, 2)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 8, seed=3)
    for t in ens.usable_times:
        loo = set(np.flatnonzero(loo_set(ens.plan, int(t))).tolist())
        for b in range(ens.n_models):
            if int(t) in set(ens.plan.in_bag[b].tolist()):
                assert b not in loo


def test_loo_predict_mean_and_median():
    rng = np.random.default_rng(2)
    feats = _features_from_matrix(rng.normal(size=(25, 2)))
    for agg, combine in [
        (AggregatorSpec("mean"), np.mean),
        (AggregatorSpec("median"), np.median),
        # the first usable time has 3 LOO models, so 0.4 trims one from each end
        (AggregatorSpec("trimmed_mean", 0.4), lambda v: _trimmed_mean_oracle(v, 0.4)),
    ]:
        ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 6, aggregator=agg, seed=4)
        t = int(ens.usable_times[0])
        x = feats[1][0, 0]
        preds = ens.model.predict(x[None, :])[:, 0]
        expected = combine(list(preds[np.flatnonzero(loo_set(ens.plan, t))]))
        assert loo_predict(ens, t, x) == pytest.approx(float(expected), abs=1e-12)


def test_aggregate_examples():
    assert _aggregate_all([1.0, 3.0], AggregatorSpec("mean")) == 2.0
    assert _aggregate_all([1.0, 2.0, 100.0], AggregatorSpec("median")) == 2.0
    assert _aggregate_all([100.0, 1.0, 4.0, 2.0], AggregatorSpec("median")) == 3.0


def test_trimmed_mean_matches_hand_oracle():
    rng = np.random.default_rng(3)
    for n in [10, 23, 40]:
        values = rng.normal(size=n)
        got = _aggregate_all(values, AggregatorSpec("trimmed_mean", trim_fraction=0.1))
        cut = int(np.floor(0.1 * n))
        expected = sorted(values.tolist())[cut : n - cut]
        assert got == pytest.approx(sum(expected) / len(expected), abs=1e-12)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="empty"):
        _aggregate_all([], AggregatorSpec("mean"))
    with pytest.raises(ValueError, match="trim_fraction"):
        _aggregate_all([1.0, 2.0], AggregatorSpec("trimmed_mean", trim_fraction=0.5))


def _reference_loo_aggregate(preds, excluded, agg):
    """The LOO-set-major kernel: (m, n) aggregates, each sorted window summed rank by rank.

    The window rows are added one at a time in ascending rank order and the sum
    divided by the window width, which is what ``np.mean(axis=0)`` does for two
    or more points; for a single point numpy switches to pairwise summation.
    """
    counts = excluded.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("cannot aggregate an empty leave-one-out model set")
    if agg.kind == "mean":
        return (excluded @ preds) / counts[:, None]
    out = np.empty((excluded.shape[0], preds.shape[1]))
    for i, models in enumerate(excluded):
        lo, hi = agg.rank_window(int(counts[i]))
        window = np.sort(preds[models], axis=0)[lo:hi]
        out[i] = window[0]
        for row in window[1:]:
            out[i] += row
        out[i] /= hi - lo
    return out


@pytest.mark.parametrize(
    "agg",
    [
        AggregatorSpec("mean"),
        AggregatorSpec("median"),
        AggregatorSpec("trimmed_mean", 0.1),
        AggregatorSpec("trimmed_mean", 0.3),
    ],
    ids=["mean", "median", "trimmed_0.1", "trimmed_0.3"],
)
@pytest.mark.parametrize("n_points", [2, 37])
def test_loo_aggregate_matches_reference_kernel(agg, n_points):
    # 25 models and one LOO set of every size 1..25: even counts for the
    # median, and trimmed windows from 1 up to 21 ranks wide
    rng = np.random.default_rng(21)
    n_models = 25
    preds = rng.normal(size=(n_models, n_points))
    excluded = np.zeros((n_models, n_models), dtype=bool)
    for i in range(n_models):
        excluded[i, rng.choice(n_models, size=i + 1, replace=False)] = True
    got = loo_aggregate(preds, excluded, agg)
    expected = _reference_loo_aggregate(preds, excluded, agg).T
    assert got.shape == (n_points, n_models)
    if agg.kind == "mean":
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(got, expected)


_ROBUST_AGGREGATORS = [
    AggregatorSpec("median"),
    AggregatorSpec("trimmed_mean", 0.1),
    AggregatorSpec("trimmed_mean", 0.3),
    AggregatorSpec("trimmed_mean", 0.49),
]
_ROBUST_IDS = ["median", "trimmed_0.1", "trimmed_0.3", "trimmed_0.49"]


@pytest.mark.parametrize("agg", _ROBUST_AGGREGATORS, ids=_ROBUST_IDS)
@pytest.mark.parametrize("n_models", [1, 2, 3, 5, 33, 64])
def test_loo_aggregate_network_equals_sort_for_every_set_size(agg, n_models):
    # one LOO set of every size 1..B plus a second set of some sizes, so a
    # comparator network runs for every width up to B, at point counts across
    # the tile edge; every other point's predictions are rounded to force ties,
    # and the others keep full precision, where the order of a window sum shows
    rng = np.random.default_rng(n_models)
    sizes = list(range(1, n_models + 1)) + list(range(1, n_models + 1, 3))
    excluded = np.zeros((len(sizes), n_models), dtype=bool)
    for i, size in enumerate(sizes):
        excluded[i, rng.choice(n_models, size=size, replace=False)] = True
    for n_points in [1, 127, 128, 129, 512]:
        preds = rng.normal(size=(n_models, n_points))
        preds[:, ::2] = np.round(preds[:, ::2], 1)
        got = loo_aggregate(preds, excluded, agg)
        assert got.shape == (n_points, len(sizes))
        assert np.array_equal(got, _reference_loo_aggregate(preds, excluded, agg).T)


@pytest.mark.parametrize("agg", _ROBUST_AGGREGATORS, ids=_ROBUST_IDS)
def test_loo_aggregate_network_on_every_zero_one_input(agg):
    # 0-1 principle: a comparator network puts every input's ranks in place
    # iff it does so for all 2**c inputs of zeros and ones, so one point per
    # pattern checks each network of up to 16 wires exhaustively.  The two
    # values are 1 and 2**53, where a 1 added after 2**53 is rounded away,
    # so a window summed out of ascending order shows in the result too.
    for count in range(1, 17):
        bits = (np.arange(2**count)[None, :] >> np.arange(count)[:, None]) & 1
        preds = np.where(bits == 1, 2.0**53, 1.0)
        excluded = np.ones((1, count), dtype=bool)
        got = loo_aggregate(preds, excluded, agg)
        assert np.array_equal(got, _reference_loo_aggregate(preds, excluded, agg).T), count


@pytest.mark.parametrize(
    "agg", [AggregatorSpec("mean"), *_ROBUST_AGGREGATORS], ids=["mean", *_ROBUST_IDS]
)
def test_training_scores_equal_per_time_reference(agg):
    # 8 sensors: the scores of 200 times are aggregated in blocks of 64, 64 and 72 times
    rng = np.random.default_rng(12)
    times, X, y = _features_from_matrix(rng.normal(size=(202, 8)), n_lags=2)
    # B = 1 and 3 drop times, so group rows map to grid times with gaps
    for n_models in (1, 3, 9, 25):
        ens = train_ensemble(times, X, y, BackendSpec(kind="ridge"), n_models, aggregator=agg, seed=3)
        preds = ens.model.predict(X.reshape(-1, 2)).reshape(-1, *y.shape)  # (B, T', K)
        want = []
        for t in ens.usable_times:
            i = int(np.searchsorted(times, t))
            members = loo_set(ens.plan, int(t))
            if agg.kind == "mean":
                # the set's predictions summed in model order, then divided by its size
                loo = preds[members, i]
                for row in loo[1:]:
                    loo[0] += row
                loo = loo[0] / len(loo)
            else:
                loo = _reference_loo_aggregate(preds[:, i], members[None, :], agg)[0]
            want.append(np.abs(y[i] - loo))
        assert np.array_equal(ens.scores, want), n_models


@pytest.mark.parametrize(
    "agg", [AggregatorSpec("mean"), *_ROBUST_AGGREGATORS[:2]], ids=["mean", *_ROBUST_IDS[:2]]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loo_aggregate_rejects_non_finite_predictions(agg, bad):
    preds = np.ones((4, 3))
    preds[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        loo_aggregate(preds, np.ones((2, 4), dtype=bool), agg)


def test_mean_over_identical_models_equals_single_model():
    from ecad.backends import fit as fit_backend

    values = np.cumsum(np.ones((20, 1)), axis=0) + 0.25
    _, X, y = _features_from_matrix(values)
    model = fit_backend(BackendSpec(kind="ridge"), X.reshape(-1, 1), y.ravel())
    x = X[5]
    single = model.predict(x)[0, 0]
    preds = np.array([single] * 4)
    assert _aggregate_all(preds, AggregatorSpec("mean")) == single


def test_loo_predict_empty_set_errors():
    feats = _features_from_matrix(np.random.default_rng(4).normal(size=(6, 1)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 1, seed=1)
    in_bag_times = set(ens.plan.in_bag[0].tolist())
    t = next(iter(in_bag_times))
    with pytest.raises(ValueError, match="empty leave-one-out"):
        loo_predict(ens, int(t), feats[1][0, 0])


def test_ensemble_roundtrip_through_disk(tmp_path):
    values = np.random.default_rng(5).normal(size=(30, 3))
    feats = _features_from_matrix(values)
    ens = train_ensemble(*feats, BackendSpec(kind="ridge", ridge_lambda=0.7), 7, seed=9)
    path = tmp_path / "ensemble.npz"
    _save(ens, path, values)
    loaded, lag_rows, inputs = load_ensemble(path)
    assert np.array_equal(lag_rows, values[-1:]) and inputs == _INPUTS
    assert loaded.n_models == ens.n_models
    assert loaded.model.spec == ens.model.spec
    assert np.array_equal(loaded.plan.in_bag, ens.plan.in_bag)
    assert np.array_equal(loaded.scores, ens.scores)
    assert np.array_equal(loaded.usable_times, ens.usable_times)
    x = feats[1][0]
    assert np.array_equal(loaded.model.predict(x), ens.model.predict(x))


def test_ensemble_version_refusal(tmp_path):
    values = np.random.default_rng(6).normal(size=(12, 1))
    ens = train_ensemble(*_features_from_matrix(values), BackendSpec(kind="ridge"), 3, seed=0)
    path = tmp_path / "ensemble.npz"
    _save(ens, path, values)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["format_version"] = 99
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="format version"):
        load_ensemble(path)


def _duplicate_second_available_time(arrays):
    """available[1] becomes available[0], and every bag's draws of it follow."""
    available, in_bag = arrays["available"], arrays["in_bag"]
    arrays["in_bag"] = np.where(in_bag == available[1], available[0], in_bag)
    arrays["available"] = np.r_[available[0], available[0], available[2:]]


def _put_every_time_in_every_bag(arrays):
    """Every bag draws each available time once, so no time has a score row."""
    arrays["in_bag"] = np.tile(arrays["available"], (len(arrays["in_bag"]), 1))
    for key in ("score_times", "score_sensors", "score_values"):
        arrays[key] = arrays[key][:0]


def _deepen_the_lag_depth(arrays):
    """Every time one later, so the lag depth reads 2 while each model still takes 1 feature."""
    for key in ("available", "in_bag", "score_times"):
        arrays[key] = arrays[key] + 1
    arrays["lag_rows"] = np.zeros((2, arrays["lag_rows"].shape[1]))


@pytest.mark.parametrize(
    "corrupt, name",
    [
        (lambda a: a.update(in_bag=a["in_bag"][:, :-1]), "in_bag"),
        (lambda a: a.update(in_bag=a["in_bag"][:-1]), "in_bag"),
        (lambda a: a.update(in_bag=a["in_bag"] + 1000), "in_bag"),
        (lambda a: a.update(score_values=a["score_values"][:-1]), "score_"),
        (lambda a: a.update(score_sensors=a["score_sensors"] + 1), "score_sensors"),
        (lambda a: a.update(score_sensors=a["score_sensors"] - 1), "score_sensors"),
        (lambda a: a.pop("model2_weights"), "model2_weights"),
        (
            lambda a: a.update(model2_weights=a["model2_weights"][:-1], model2_x_mean=a["model2_x_mean"][:-1]),
            "model2_weights has shape",
        ),
        (lambda a: a.update(score_values=-a["score_values"]), "score_values holds negative"),
        (lambda a: a.update(score_values=np.full_like(a["score_values"], np.nan)), "score_values holds non-finite"),
        (lambda a: a.update(available=a["available"][::-1].copy()), "available"),
        (_duplicate_second_available_time, "available"),
        (_put_every_time_in_every_bag, "holds no training score"),
        # the training times run on from the lag depth, which is at least 1
        (lambda a: a.update(available=np.r_[a["available"][:-1], a["available"][-1] + 1]), "available must be"),
        (lambda a: a.update(available=a["available"] - 1), "available must be"),
        (lambda a: a.pop("lag_rows"), "lag_rows is missing"),
        (lambda a: a.update(lag_rows=np.zeros((2, 2))), r"lag_rows must be a finite \(1, 2\) array"),
        (lambda a: a.update(lag_rows=a["lag_rows"][:, :1]), r"lag_rows must be a finite \(1, 2\) array"),
        (lambda a: a.update(lag_rows=np.full_like(a["lag_rows"], np.inf)), "lag_rows must be a finite"),
        (lambda a: a.update(lag_rows=np.ones((1, 2), dtype=np.int64)), "lag_rows must be a finite"),
        (_deepen_the_lag_depth, "model0_x_mean must be 1-D of n_lags 2"),
    ],
)
def test_ensemble_shape_refusal(tmp_path, corrupt, name):
    values = np.random.default_rng(6).normal(size=(12, 2))
    ens = train_ensemble(*_features_from_matrix(values), BackendSpec(kind="ridge"), 3, seed=0)
    path = tmp_path / "ensemble.npz"
    _save(ens, path, values)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    corrupt(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=name):
        load_ensemble(path)


@pytest.mark.parametrize("key", ["model1_weights", "model0_x_mean", "model2_y_mean"])
def test_ensemble_refuses_non_finite_model_arrays(tmp_path, key):
    values = np.random.default_rng(6).normal(size=(12, 2))
    ens = train_ensemble(*_features_from_matrix(values), BackendSpec(kind="ridge"), 3, seed=0)
    _save(ens, tmp_path / "e.npz", values)
    with np.load(tmp_path / "e.npz") as data:
        arrays = {name: data[name] for name in data.files}
    arrays[key] = np.full_like(arrays[key], np.nan)
    np.savez(tmp_path / "e.npz", **arrays)
    with pytest.raises(ValueError, match=f"{key} holds non-finite"):
        load_ensemble(tmp_path / "e.npz")


_HEADER_MEMBERS = ["meta", "available", "in_bag", "score_times", "score_sensors", "score_values", "lag_rows"]
_MLP_42 = BackendSpec(kind="mlp", mlp_hidden=(4, 2), mlp_epochs=3, seed=0)


@pytest.mark.parametrize(
    "spec, members",
    [
        (BackendSpec(kind="ridge"), [("weights", (3,)), ("x_mean", (3,)), ("y_mean", ())]),
        (
            _MLP_42,
            [
                ("x_mean", (3,)), ("x_std", (3,)), ("y_mean", ()), ("y_std", ()),
                ("W0", (3, 4)), ("b0", (4,)), ("W1", (4, 2)), ("b1", (2,)), ("W2", (2, 1)), ("b2", (1,)),
            ],
        ),
    ],
    ids=["ridge", "mlp"],
)
def test_ensemble_artifact_member_names_and_shapes(tmp_path, spec, members):
    # the benchmark's output checks read ensemble.npz by these member names and shapes
    values = np.random.default_rng(3).normal(size=(12, 2))
    ens = train_ensemble(*_features_from_matrix(values, n_lags=3), spec, 2, seed=0)
    _save(ens, tmp_path / "e.npz", values)
    with np.load(tmp_path / "e.npz") as data:
        assert data.files == _HEADER_MEMBERS + [f"model{b}_{name}" for b in range(2) for name, _ in members]
        for b in range(2):
            for name, shape in members:
                member = data[f"model{b}_{name}"]
                assert member.shape == shape and member.dtype == np.float64, (b, name)
                assert np.array_equal(member, ens.model.params[name][b]), (b, name)


def test_ensemble_refuses_mlp_layers_of_other_widths(tmp_path):
    values = np.random.default_rng(3).normal(size=(12, 2))
    path = tmp_path / "e.npz"
    _save(train_ensemble(*_features_from_matrix(values, n_lags=3), _MLP_42, 2, seed=0), path, values)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["backend"]["mlp_hidden"] = [5, 2]
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=r"model0_W0 has shape \(3, 4\), expected \(3, 5\)"):
        load_ensemble(path)


def test_mlp_backend_trains_in_ensemble():
    rng = np.random.default_rng(7)
    feats = _features_from_matrix(rng.normal(size=(20, 2)))
    spec = BackendSpec(kind="mlp", mlp_hidden=(4,), mlp_epochs=20, mlp_learning_rate=0.05, seed=0)
    ens = train_ensemble(*feats, spec, 3, seed=1)
    assert ens.scores.size > 0
    assert np.isfinite(ens.scores).all()


@pytest.mark.parametrize("lam", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("n_models", [1, 25])
def test_bagged_ridge_models_equal_fits_on_gathered_bags(lam, n_models):
    # 40 blocks of 3 rows, features and targets far from zero, and bags that repeat blocks
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3, 4)) + 1e4
    y = X @ rng.normal(size=4) + rng.normal(size=(40, 3))
    spec = BackendSpec(kind="ridge", ridge_lambda=lam)
    plan = bootstrap_indices(np.arange(len(X)), n_models, seed=5)
    model = fit(spec, X, y, plan.multiplicity)
    assert (plan.multiplicity > 1).any(), "no bag repeats a time"
    params = model.params
    assert list(params) == ["weights", "x_mean", "y_mean"]
    for b in range(n_models):
        bag = plan.in_bag[b]
        want = fit(spec, X[bag].reshape(-1, 4), y[bag].ravel())
        for name, ref in want.params.items():
            got, ref = params[name][b], ref[0]
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), b
    rows = X.reshape(-1, 4)
    stacked = model.predict(rows)
    assert stacked.shape == (n_models, y.size)
    for b in range(n_models):
        alone = (rows - params["x_mean"][b]) @ params["weights"][b] + params["y_mean"][b]
        assert np.max(np.abs(stacked[b] - alone)) <= 1e-12 * np.max(np.abs(alone)), b


def test_bootstrap_multiplicity_counts_duplicate_draws():
    plan = bootstrap_indices([3, 5, 8, 9], 6, seed=2)
    for b in range(plan.n_models):
        want = [np.count_nonzero(plan.in_bag[b] == t) for t in plan.available]
        assert plan.multiplicity[b].tolist() == want
    # a time's LOO set is the models that never drew it; usable times have one
    out_of_bag = [[t not in plan.in_bag[b] for b in range(plan.n_models)] for t in plan.available]
    assert plan.usable.tolist() == [any(row) for row in out_of_bag]
    assert plan.usable_excluded.tolist() == [row for row in out_of_bag if any(row)]


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes allocated by fn(*args, **kwargs) above what was live before the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_ridge_training_memory_stays_near_one_prediction_matrix():
    # 40 sensors x 2000 times x 25 features, B = 25: a (B, n) prediction matrix
    # over every row would be as large as X.  Measured peaks: the input check
    # about 0.008 X.nbytes (one block of rows at a time), the fit about 0.17
    # (the per-block statistics of one chunk of times), and train_ensemble
    # about 0.22 with the mean and 0.25 with the median (the fit, then one
    # block of times' predictions and the score grid).  A boolean copy of X in
    # the check, a centred copy of X during the fit, a copy of X to flatten
    # it, or the predictions of every row at once, exceeds them.
    rng = np.random.default_rng(3)
    n_times, n_sensors, d, n_models = 2000, 40, 25, 25
    X = rng.normal(size=(n_times, n_sensors, d))
    y = X @ rng.normal(size=d) + rng.normal(size=(n_times, n_sensors))
    spec = BackendSpec(kind="ridge")
    times = np.arange(n_times)
    plan = bootstrap_indices(times, n_models, seed=1)
    check_peak = _traced_peak(_check_training_inputs, X, y, plan.multiplicity)
    assert check_peak < 0.02 * X.nbytes, check_peak / X.nbytes
    fit_peak = _traced_peak(fit, spec, X, y, plan.multiplicity)
    assert fit_peak < 0.25 * X.nbytes, fit_peak / X.nbytes
    for kind in ("mean", "median"):
        train_peak = _traced_peak(train_ensemble, times, X, y, spec, n_models, AggregatorSpec(kind), seed=1)
        assert train_peak < 0.35 * X.nbytes, (kind, train_peak / X.nbytes)


def test_save_ensemble_holds_less_than_the_artifact(tmp_path):
    # 20 sensors x 1000 times and 25 models, about 0.7 MB on disk, most of it
    # the flat score rows and the bags.  Measured peak: about 0.77 of the file
    # (the score rows' times and sensors, and one member's bytes as it is
    # written); an archive built in memory first and then copied out held the
    # file twice, about 1.68 of it
    values = np.random.default_rng(4).normal(size=(1001, 20))
    ens = train_ensemble(*_features_from_matrix(values), BackendSpec(kind="ridge"), 25, seed=3)
    path = tmp_path / "ensemble.npz"
    peak = _traced_peak(save_ensemble, ens, path, values[-1:], _INPUTS)
    size = path.stat().st_size
    assert peak < size, peak / size
    assert np.array_equal(load_ensemble(path)[0].scores, ens.scores)
