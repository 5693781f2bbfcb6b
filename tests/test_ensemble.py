import numpy as np
import pytest

from ecad.backends import BackendSpec
from ecad.ensemble import (
    AggregatorSpec,
    bootstrap_indices,
    load_ensemble,
    loo_aggregate,
    loo_predict,
    save_ensemble,
    train_ensemble,
)


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
    """Self-only lag features (times, sensors, X, y) of a T x K matrix, by time then sensor."""
    T, K = values.shape
    times = np.repeat(np.arange(n_lags, T), K)
    sensors = np.tile(np.arange(K), T - n_lags)
    X = np.stack([values[times - lag, sensors] for lag in range(1, n_lags + 1)], axis=1)
    return times, sensors, X, values[times, sensors]


def test_bootstrap_single_index_has_empty_loo():
    plan = bootstrap_indices([0], 3, seed=0)
    assert plan.in_bag.shape == (3, 1)
    assert np.all(plan.in_bag == 0)
    assert not plan.loo_set(0).any()


def test_bootstrap_shapes_and_membership():
    plan = bootstrap_indices(range(10, 20), 4, seed=1)
    assert plan.in_bag.shape == (4, 10)
    assert np.all(np.isin(plan.in_bag, plan.available))
    for b in range(4):
        in_bag = set(plan.in_bag[b].tolist())
        for i, t in enumerate(plan.available):
            assert plan.membership[b, i] == (int(t) in in_bag)


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
        counts = (~plan.membership).sum(axis=0)
        total += 100
        nonempty += int((counts > 0).sum())
    assert nonempty / total >= 0.999


def test_empty_loo_rare_at_operating_scale():
    # B=25, 120 times, 100 seeds: pooled empty-LOO fraction below 0.1%
    empty = 0
    total = 0
    for seed in range(100):
        plan = bootstrap_indices(range(120), 25, seed=seed)
        empty += int(((~plan.membership).sum(axis=0) == 0).sum())
        total += 120
    assert empty / total < 0.001


def test_single_bag_scores_only_out_of_bag_times():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 2))
    feats = _features_from_matrix(values)
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 1, seed=5)
    in_bag = set(ens.plan.in_bag[0].tolist())
    available = set(ens.plan.available.tolist())
    scored = set(ens.score_times.tolist())
    assert scored == available - in_bag
    assert ens.dropped_empty_loo == len(available & in_bag)


def test_train_ensemble_rejects_unequal_length_arrays():
    times, sensors, X, y = _features_from_matrix(np.random.default_rng(8).normal(size=(10, 2)))
    spec = BackendSpec(kind="ridge")
    for args in [
        (times[:-1], sensors, X, y),
        (times, sensors[:-1], X, y),
        (times, sensors, X[:-1], y),
        (times, sensors, X, y[:-1]),
    ]:
        with pytest.raises(ValueError, match="feature arrays differ in length"):
            train_ensemble(*args, spec, 3, seed=0)


def test_train_ensemble_rejects_empty_arrays():
    times, sensors, X, y = _features_from_matrix(np.random.default_rng(8).normal(size=(10, 2)))
    with pytest.raises(ValueError, match="no feature rows"):
        train_ensemble(times[:0], sensors[:0], X[:0], y[:0], BackendSpec(kind="ridge"), 3, seed=0)


def test_noiseless_linear_scores_are_zero():
    t = np.arange(60, dtype=float)
    values = np.column_stack([2.0 * t + 1.0, 2.0 * t + 5.0])
    # both sensors satisfy y_t = y_{t-1} + 2, so one lag feature fits exactly
    feats = _features_from_matrix(values)
    ens = train_ensemble(*feats, BackendSpec(kind="ridge", ridge_lambda=0.0), 10, seed=2)
    assert ens.score_values.size > 0
    assert np.max(ens.score_values) < 1e-6


def test_no_training_score_uses_in_bag_model():
    # construction audit: the LOO model set of every scored time must be
    # disjoint from the bags containing that time
    rng = np.random.default_rng(1)
    feats = _features_from_matrix(rng.normal(size=(30, 2)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 8, seed=3)
    for t in np.unique(ens.score_times):
        loo = set(np.flatnonzero(ens.plan.loo_set(int(t))).tolist())
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
        x = feats[2][0]
        expected = combine(
            [ens.models[b].predict(x[None, :])[0] for b in np.flatnonzero(ens.plan.loo_set(t))]
        )
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
    """The LOO-set-major kernel: (m, n) aggregates, each window averaged with np.mean(axis=0)."""
    agg.validate()
    counts = excluded.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("cannot aggregate an empty leave-one-out model set")
    if agg.kind == "mean":
        return (excluded @ preds) / counts[:, None]
    out = np.empty((excluded.shape[0], preds.shape[1]))
    for i, models in enumerate(excluded):
        lo, hi = agg.rank_window(int(counts[i]))
        out[i] = np.mean(np.sort(preds[models], axis=0)[lo:hi], axis=0)
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


def test_mean_over_identical_models_equals_single_model():
    from ecad.backends import fit as fit_backend

    values = np.cumsum(np.ones((20, 1)), axis=0) + 0.25
    _, _, X, y = _features_from_matrix(values)
    model = fit_backend(BackendSpec(kind="ridge"), X, y)
    x = X[5][None, :]
    single = model.predict(x)[0]
    preds = np.array([single] * 4)
    assert _aggregate_all(preds, AggregatorSpec("mean")) == single


def test_loo_predict_empty_set_errors():
    feats = _features_from_matrix(np.random.default_rng(4).normal(size=(6, 1)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 1, seed=1)
    in_bag_times = set(ens.plan.in_bag[0].tolist())
    t = next(iter(in_bag_times))
    with pytest.raises(ValueError, match="empty leave-one-out"):
        loo_predict(ens, int(t), feats[2][0])


def test_ensemble_roundtrip_through_disk(tmp_path):
    rng = np.random.default_rng(5)
    feats = _features_from_matrix(rng.normal(size=(30, 3)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge", ridge_lambda=0.7), 7, seed=9)
    path = tmp_path / "ensemble.npz"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert loaded.n_models == ens.n_models
    assert loaded.backend == ens.backend
    assert np.array_equal(loaded.plan.in_bag, ens.plan.in_bag)
    assert np.array_equal(loaded.score_values, ens.score_values)
    assert np.array_equal(loaded.score_times, ens.score_times)
    x = feats[2][:1]
    assert np.array_equal(loaded.predict_all_models(x), ens.predict_all_models(x))


def test_ensemble_version_refusal(tmp_path):
    rng = np.random.default_rng(6)
    feats = _features_from_matrix(rng.normal(size=(12, 1)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 3, seed=0)
    path = tmp_path / "ensemble.npz"
    save_ensemble(ens, path)
    import json

    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["format_version"] = 99
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="format version"):
        load_ensemble(path)


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
    ],
)
def test_ensemble_shape_refusal(tmp_path, corrupt, name):
    rng = np.random.default_rng(6)
    feats = _features_from_matrix(rng.normal(size=(12, 2)))
    ens = train_ensemble(*feats, BackendSpec(kind="ridge"), 3, seed=0)
    path = tmp_path / "ensemble.npz"
    save_ensemble(ens, path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    corrupt(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=name):
        load_ensemble(path)


def test_mlp_backend_trains_in_ensemble():
    rng = np.random.default_rng(7)
    feats = _features_from_matrix(rng.normal(size=(20, 2)))
    spec = BackendSpec(kind="mlp", mlp_hidden=(4,), mlp_epochs=20, mlp_learning_rate=0.05, seed=0)
    ens = train_ensemble(*feats, spec, 3, seed=1)
    assert ens.score_values.size > 0
    assert np.isfinite(ens.score_values).all()
