import copy
import tracemalloc

import numpy as np
import pytest

from ecad import detector
from ecad.backends import BackendSpec, RidgeModel
from ecad.detector import (
    _PREDICT_CHUNK,
    Detection,
    Detections,
    LocalityConfig,
    ScoreStore,
    batch_test_scores,
    detect_stream,
    local_window,
    loo_prediction_matrix,
    nearest_rank_index,
)
from ecad.ensemble import AggregatorSpec, BootstrapPlan, Ensemble, train_ensemble

from _oracles import empirical_quantile, loo_predict, p_value


def _constant_models(values, dim=2):
    """Ridge models with zero weights: model b predicts values[b] everywhere."""
    n = len(values)
    params = {"weights": np.zeros((n, dim)), "x_mean": np.zeros((n, dim)), "y_mean": np.array(values, dtype=float)}
    return RidgeModel(BackendSpec(kind="ridge"), params)


def _manual_ensemble(predictions, dim=2):
    """Ensemble whose LOO predictor at time i is exactly model i.

    Bag b holds every time except b, so the LOO set of time i is {model i}.
    """
    n = len(predictions)
    available = np.arange(n)
    in_bag = np.array(
        [[t for t in range(n) if t != b] + [(b + 1) % n] for b in range(n)]
    )
    plan = BootstrapPlan(n, available, in_bag, seed=0)
    return Ensemble(
        plan=plan,
        model=_constant_models(predictions, dim),
        aggregator=AggregatorSpec("mean"),
        scores=np.abs(np.asarray(predictions, dtype=float))[:, None],
    )


def test_quantile_singleton():
    for level in [0.0, 0.3, 1.0]:
        assert empirical_quantile(np.array([5.0]), level) == 5.0


def test_quantile_extremes_of_nearest_rank():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_quantile(values, 1.0) == 4.0
    assert empirical_quantile(values, 0.0) == 1.0
    assert empirical_quantile(values, 0.75) == 3.0
    assert empirical_quantile(values, 0.5) == 2.0


def test_quantile_float_noise_guard():
    # 0.95 * 1000 must resolve to rank 950, not 951
    values = np.arange(1, 1001, dtype=float)
    assert empirical_quantile(values, 0.95) == 950.0


def test_quantile_uniform_monte_carlo():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sample = rng.uniform(size=1000)
        assert abs(empirical_quantile(sample, 0.95) - 0.95) < 0.03


def test_quantile_errors():
    with pytest.raises(ValueError):
        empirical_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        empirical_quantile(np.array([1.0]), 1.5)


def test_p_value_zero_score_is_one():
    window = np.abs(np.random.default_rng(0).normal(size=50))
    assert p_value(window, 0.0) == 1.0


def test_p_value_above_max_is_zero():
    window = np.abs(np.random.default_rng(1).normal(size=50))
    assert p_value(window, float(window.max()) + 1.0) == 0.0


def test_p_value_ties_count():
    assert p_value(np.array([1.0, 2.0, 2.0, 3.0]), 2.0) == 0.75


def test_p_value_matches_brute_force_exactly():
    rng = np.random.default_rng(2)
    window = rng.exponential(size=500)
    for _ in range(50):
        probe = rng.exponential()
        expected = sum(1 for w in window if w >= probe) / 500
        assert p_value(window, probe) == expected


def test_p_value_empty_window_errors():
    with pytest.raises(ValueError, match="empty"):
        p_value(np.array([]), 1.0)


def test_flag_boundary():
    # a point is flagged exactly when p <= alpha
    alpha = 0.05
    assert 0.05 <= alpha
    assert not 0.0501 <= alpha
    # through the p-value path: 75/1500 == 0.05 exactly, 501/10000 == 0.0501
    assert p_value(np.arange(1500.0), 1425.0) == 75 / 1500 <= alpha
    assert not p_value(np.arange(10000.0), 9499.0) == 501 / 10000 <= alpha


def test_p_value_monotone_step_function():
    rng = np.random.default_rng(3)
    window = rng.normal(size=200)
    probes = np.sort(rng.normal(size=100))
    values = [p_value(window, float(s)) for s in probes]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_p_value_scale_invariance():
    rng = np.random.default_rng(4)
    window = np.abs(rng.normal(size=100))
    for _ in range(20):
        probe = float(np.abs(rng.normal()))
        for c in [0.5, 3.0, 1e6]:
            assert p_value(window * c, probe * c) == p_value(window, probe)


def test_test_score_all_equal_predictions():
    ens = _manual_ensemble([2.0, 2.0, 2.0, 2.0])
    assert batch_test_scores(ens, np.zeros((1, 2)), np.array([2.0]), alpha=0.25).tolist() == [0.0]


def test_test_score_hand_quantile():
    # 0.75 nearest-rank quantile of {1,2,3,4} is 3, so the score is |10 - 3|
    ens = _manual_ensemble([1.0, 2.0, 3.0, 4.0])
    assert batch_test_scores(ens, np.zeros((1, 2)), np.array([10.0]), alpha=0.25).tolist() == [7.0]


@pytest.mark.parametrize("kind", ["mean", "median", "trimmed_mean"])
def test_loo_kernel_matches_loo_predict(kind):
    # training scores and the detection matrix both equal the scalar LOO predictor
    rng = np.random.default_rng(8)
    values = rng.normal(size=(30, 2))
    times = np.arange(2, 30)
    features = np.stack([values[times - 2], values[times - 1]], axis=2)  # (t, k) holds values[t-2:t, k]
    targets = values[2:]
    ens = train_ensemble(times, features, targets, BackendSpec(kind="ridge"), 6, AggregatorSpec(kind), seed=0)
    sizes = set(ens.plan.usable_excluded.sum(axis=1).tolist())
    assert {1, 2, 3, 4} <= sizes

    usable = np.isin(times, ens.usable_times)
    assert ens.scores.shape == (ens.usable_times.size, 2)
    for i, t in enumerate(times[usable]):
        for k in range(2):
            want = abs(targets[usable][i, k] - loo_predict(ens, int(t), features[usable][i, k]))
            assert ens.scores[i, k] == pytest.approx(want, abs=1e-12)

    X = rng.normal(size=(5, 2))
    matrix = loo_prediction_matrix(ens, X)
    assert matrix.shape == (5, ens.usable_times.size)
    for i, t in enumerate(ens.usable_times):
        for j in range(5):
            assert matrix[j, i] == pytest.approx(loo_predict(ens, int(t), X[j]), abs=1e-12)


def test_test_score_rejects_bad_alpha():
    ens = _manual_ensemble([1.0, 2.0])
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        batch_test_scores(ens, np.zeros((1, 2)), np.array([1.0]), alpha=0.0)
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            batch_test_scores(ens, np.zeros((3, 2)), np.zeros(3), alpha)


@pytest.fixture(scope="module", params=["mean", "median", "trimmed_mean"])
def scoring_ensemble(request):
    # about 700 usable times; with 25 models, scoring blocks not aligned to
    # prediction chunks change some scores
    rng = np.random.default_rng(11)
    values = rng.normal(size=(700, 10))
    times = np.arange(2, 700)
    X = np.stack([values[t - 2 : t].ravel() for t in times])
    return train_ensemble(
        times, X[:, None], values[2:, :1], BackendSpec(kind="ridge"), 25, AggregatorSpec(request.param), seed=0
    )


def test_batch_test_scores_equal_dense_quantile(scoring_ensemble):
    ens, alpha = scoring_ensemble, 0.05
    block = _PREDICT_CHUNK
    idx = nearest_rank_index(1.0 - alpha, ens.plan.usable_excluded.shape[0])
    rng = np.random.default_rng(12)
    for n_points in (1, block - 1, block, block + 1, 3 * block + 7):
        X, y = rng.normal(size=(n_points, 20)), rng.normal(size=n_points)
        # one LOO matrix per 512-point block, as the scorer builds them: a matrix
        # over the whole batch would move the last bits (see the fixture)
        matrix = np.concatenate([loo_prediction_matrix(ens, X[s : s + block]) for s in range(0, n_points, block)])
        dense = np.partition(matrix, idx, axis=1)[:, idx]
        assert np.array_equal(batch_test_scores(ens, X, y, alpha), np.abs(y - dense))


def test_batch_test_scores_edge_batches():
    ens = _manual_ensemble([1.0, 2.0, 3.0, 4.0])
    assert batch_test_scores(ens, np.empty((0, 2)), np.empty(0), 0.25).shape == (0,)

    # every time is in every bag: no leave-one-out predictor exists
    plan = BootstrapPlan(2, np.arange(2), np.array([[0, 1], [1, 0]]), seed=0)
    ens = Ensemble(
        plan=plan,
        model=_constant_models([1.0, 2.0]),
        aggregator=AggregatorSpec("mean"),
        scores=np.empty((0, 1)),
    )
    for n_points in (0, 3):
        with pytest.raises(ValueError, match="no leave-one-out predictor available"):
            batch_test_scores(ens, np.zeros((n_points, 2)), np.zeros(n_points), 0.05)


def test_batch_test_scores_memory_is_bounded():
    # the dense (n_usable x n_points) float64 matrix would take 80 MB
    ens = _manual_ensemble(np.linspace(-1.0, 1.0, 200))
    n_points = 50_000
    X = np.random.default_rng(13).normal(size=(n_points, 2))
    y = np.zeros(n_points)
    tracemalloc.start()
    try:
        batch_test_scores(ens, X, y, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n_points * 8 / 4


def _store(entries):
    """A store whose row k holds the (time, score) pairs entries[k], k = 0..K-1, at shared times."""
    times = [t for t, _ in entries[0]]
    assert all([t for t, _ in pairs] == times for pairs in entries.values())
    return ScoreStore(np.array(times), np.array([[s for _, s in entries[k]] for k in range(len(entries))]).T)


def test_local_window_saturates_to_whole_store():
    store = _store(
        {
            0: [(0, 1.0), (1, 2.0), (2, 3.0)],
            1: [(0, 4.0), (1, 5.0), (2, 6.0)],
        }
    )
    window = local_window(store, t=3, k=0, n_lags=10, neighbors=[0, 1])
    assert sorted(window.tolist()) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_local_window_single_sensor_reduces_to_plain_window():
    store = _store({0: [(0, 1.0), (1, 2.0), (2, 3.0)]})
    window = local_window(store, t=3, k=0, n_lags=1, neighbors=[0])
    assert sorted(window.tolist()) == [1.0, 2.0, 3.0]


def test_local_window_matches_set_comprehension_oracle():
    entries = {
        0: [(4, 0.1), (5, 0.2), (6, 0.3), (7, 0.4)],
        1: [(4, 1.1), (5, 1.2), (6, 1.3), (7, 1.4)],
        2: [(4, 2.1), (5, 2.2), (6, 2.3), (7, 2.4)],
    }
    store = _store(entries)
    t, k, m = 8, 0, 2
    neighbors = [0, 2]
    expected = {
        (tt, kk): s
        for kk, pairs in entries.items()
        for tt, s in pairs
        if (t - m <= tt <= t - 1) or kk in neighbors
    }
    window = local_window(store, t, k, m, neighbors)
    assert sorted(window.tolist()) == sorted(expected.values())


def test_score_store_push_evicts_oldest():
    seed = np.array([[1.0], [2.0], [3.0]])
    store = ScoreStore(np.arange(3), seed)
    store.push_rows(np.array([0]), 10, np.array([9.0]))
    # the store writes into its own copy, never into the training grid
    assert seed.ravel().tolist() == [1.0, 2.0, 3.0]
    assert sorted(zip(store.time_grid[0].tolist(), store.score_grid[0].tolist())) == [
        (1, 2.0), (2, 3.0), (10, 9.0)
    ]
    store.push_rows(np.array([0]), 11, np.array([8.0]))
    assert sorted(zip(store.time_grid[0].tolist(), store.score_grid[0].tolist())) == [
        (2, 3.0), (10, 9.0), (11, 8.0)
    ]


def test_score_store_row_k_is_sensor_k_time_ascending():
    # the store is the transpose of the (W, K) training grid, row i at times[i]
    store = ScoreStore(np.array([5, 6, 7]), np.array([[1.0, 3.0], [5.0, 2.0], [4.0, 0.0]]))
    assert store.time_grid.tolist() == [[5, 6, 7], [5, 6, 7]]
    assert store.score_grid.tolist() == [[1.0, 5.0, 4.0], [3.0, 2.0, 0.0]]
    assert store.score_grid.flags.c_contiguous and store.head.tolist() == [0, 0]


def test_score_store_rejects_cold_input():
    with pytest.raises(ValueError, match="cold"):
        ScoreStore(np.array([], dtype=np.int64), np.empty((0, 1)))


def _train_small_ensemble(seed=0, T=80, K=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(T, K)).cumsum(axis=0) * 0.05 + rng.normal(size=(T, K))
    # one feature per (t, k): the sensor's value at t-1
    ens = train_ensemble(np.arange(1, T), values[:-1, :, None], values[1:], BackendSpec(kind="ridge"), 10, seed=seed)
    return ens, values


def test_detect_stream_flags_huge_spike_with_p_zero():
    ens, values = _train_small_ensemble()
    T, K = values.shape
    stream_x = values[T - 1][None, :, None]
    spike_y = values[:, 0].mean() + 10.0 * values[:, 0].std() + values[:, 0].max()
    dets = detect_stream(ens, [T], stream_x, [[spike_y, values[T - 1, 1]]], alpha=0.05)
    assert dets.flagged[0]
    assert dets.p_value[0] == 0.0


def test_detect_stream_single_sensor_matches_plain_algorithm():
    ens, values = _train_small_ensemble(seed=3, K=1)
    T = values.shape[0]
    rng = np.random.default_rng(9)
    stream_y = rng.normal(size=10) + values[:, 0].mean()
    stream_x = rng.normal(size=(10, 1, 1))
    stream_t = np.arange(T, T + 10)
    dets = detect_stream(ens, stream_t, stream_x, stream_y[:, None], alpha=0.1)

    # standalone single-series reference: list window, count, flag, slide
    window = ens.scores[:, 0].tolist()
    for d in dets:
        expected_p = sum(1 for w in window if w >= d.test_score) / len(window)
        assert d.p_value == expected_p
        assert d.flagged == (expected_p <= 0.1)
        assert d.comparison_count == len(window)
        window.pop(0)
        window.append(d.test_score)


def test_detect_stream_eviction_audit():
    ens, values = _train_small_ensemble(seed=4)
    T = values.shape[0]
    n_steps = 5
    stream = detect_stream(
        ens, np.arange(T, T + n_steps), np.zeros((n_steps, 2, 1)), np.zeros((n_steps, 2)), alpha=0.05
    )
    # after n steps at sensor 1, exactly the n oldest initial scores are gone
    replica = ScoreStore(ens.usable_times, ens.scores)
    for d in stream:
        replica.push_rows(np.array([d.k]), d.t, np.array([d.test_score]))
    remaining = sorted(zip(replica.time_grid[1].tolist(), replica.score_grid[1].tolist()))
    times, scores = ens.usable_times, ens.scores[:, 1]
    expected = sorted(
        list(zip(times[n_steps:].tolist(), scores[n_steps:].tolist()))
        + [(d.t, d.test_score) for d in stream if d.k == 1]
    )
    assert remaining == expected


def test_detect_stream_rejects_out_of_order_and_unknown_sensor():
    # the stream is a time x sensor grid over strictly increasing times, with
    # the ensemble's sensors as its columns
    ens, values = _train_small_ensemble(seed=5)
    T = values.shape[0]
    with pytest.raises(ValueError, match="strictly increase"):
        detect_stream(ens, [T + 1, T, T + 2], np.zeros((3, 2, 1)), np.zeros((3, 2)), alpha=0.05)
    # a sensor 2 the ensemble never saw, or a missing sensor 1
    for K in (3, 1):
        with pytest.raises(ValueError, match=f"the stream has {K} sensors, but the ensemble was trained on 2"):
            detect_stream(ens, [T], np.zeros((1, K, 1)), np.zeros((1, K)), alpha=0.05)


@pytest.mark.parametrize(
    "times, x_shape, y_shape",
    [
        ([0, 1], (2, 2, 1), (2, 3)),  # y with K+1 columns against X
        ([0, 1], (2, 3, 1), (2, 2)),  # X with K+1 sensors against y
        ([0, 1], (3, 2, 1), (3, 2)),  # times one short
        ([0, 1, 2], (3, 2, 1), (2, 2)),  # y one time short
        ([0, 1], (2, 2), (2, 2)),  # X without a feature axis
        ([[0, 1]], (2, 2, 1), (2, 2)),  # 2-D times
    ],
    ids=["y-extra-sensor", "x-extra-sensor", "times-short", "y-short", "x-flat", "times-2d"],
)
def test_detect_stream_refuses_arrays_that_are_not_the_grid(times, x_shape, y_shape):
    ens, values = _train_small_ensemble(seed=5)
    times = np.asarray(times) + values.shape[0]
    with pytest.raises(ValueError, match="do not form a time x sensor grid"):
        detect_stream(ens, times, np.zeros(x_shape), np.zeros(y_shape), alpha=0.05)


def test_detect_stream_exclude_flagged_keeps_window_clean():
    ens, values = _train_small_ensemble(seed=6, K=1)
    T = values.shape[0]
    spike = values[:, 0].max() + 10 * values[:, 0].std() + 10
    stream_y = np.array([[spike], [spike]])
    stream_x = np.zeros((2, 1, 1))
    kept = detect_stream(
        ens, [T, T + 1], stream_x, stream_y, alpha=0.05, exclude_flagged_from_window=True
    )
    slid = detect_stream(
        ens, [T, T + 1], stream_x, stream_y, alpha=0.05, exclude_flagged_from_window=False
    )
    assert kept.flagged[0] and slid.flagged[0]
    # with exclusion the second identical spike still beats the whole window;
    # with sliding it ties against the first spike's score
    assert kept.p_value[1] == 0.0
    assert slid.p_value[1] > 0.0


def test_detect_stream_locality_variants():
    ens, values = _train_small_ensemble(seed=7, K=2)
    T = values.shape[0]
    neighbors = np.array([[0, 1], [1, 0]])
    stream_t = [T]
    stream_x = np.zeros((1, 2, 1))
    stream_y = np.zeros((1, 2))
    plain = detect_stream(ens, stream_t, stream_x, stream_y, alpha=0.05)
    printed = detect_stream(
        ens, stream_t, stream_x, stream_y, alpha=0.05,
        locality=LocalityConfig(enabled=True, n_lags=2, neighbor_size=2, variant="as_printed"),
    )
    local = detect_stream(
        ens, stream_t, stream_x, stream_y, alpha=0.05,
        locality=LocalityConfig(enabled=True, n_lags=2, neighbor_size=2),
        neighbors=neighbors,
    )
    window_len = len(ens.scores)
    assert plain.comparison_count[0] == window_len
    # as_printed compares against every retained score of both sensors
    assert printed.comparison_count[0] == 2 * window_len
    # neighbor variant with all sensors as neighbors also saturates
    assert local.comparison_count[0] == 2 * window_len
    # the point of sensor 1 at the same time: still full saturation
    assert printed.comparison_count[1] == 2 * window_len


def test_detect_stream_requires_neighbors_for_local_variant():
    ens, _ = _train_small_ensemble(seed=8)
    with pytest.raises(ValueError, match="neighbor array"):
        detect_stream(
            ens, [99], np.zeros((1, 2, 1)), np.zeros((1, 2)), alpha=0.05,
            locality=LocalityConfig(enabled=True),
        )


@pytest.mark.parametrize(
    "neighbors, message",
    [
        (np.array([[0, 1]]), r"integer \(2, m\) array"),  # a row short
        (np.array([0, 1]), r"integer \(2, m\) array"),
        (np.zeros((2, 0), dtype=np.int64), r"integer \(2, m\) array"),
        (np.array([[0.0], [1.0]]), r"integer \(2, m\) array"),
        (np.array([[0, 2], [1, 0]]), r"distinct sensor ids in \[0, 2\)"),
        (np.array([[0, -1], [1, 0]]), r"distinct sensor ids in \[0, 2\)"),
        (np.array([[0, 0], [1, 0]]), r"distinct sensor ids in \[0, 2\)"),
    ],
)
def test_detect_stream_rejects_malformed_neighbor_array(neighbors, message):
    ens, values = _train_small_ensemble(seed=8)
    with pytest.raises(ValueError, match=message):
        detect_stream(
            ens, [values.shape[0]], np.zeros((1, 2, 1)), np.zeros((1, 2)), alpha=0.05,
            locality=LocalityConfig(enabled=True), neighbors=neighbors,
        )


def test_detection_record_invariants():
    ens, values = _train_small_ensemble(seed=10)
    T = values.shape[0]
    rng = np.random.default_rng(11)
    dets = detect_stream(
        ens, np.arange(T, T + 10), rng.normal(size=(10, 2, 1)), rng.normal(size=(10, 2)), alpha=0.05
    )
    for d in dets:
        assert isinstance(d, Detection)
        assert d.flagged == (d.p_value <= 0.05)
        rank = d.p_value * d.comparison_count
        assert abs(rank - round(rank)) < 1e-9
        assert d.test_score >= 0.0


def test_detections_columns_match_rows():
    ens, values = _train_small_ensemble(seed=12)
    T = values.shape[0]
    rng = np.random.default_rng(12)
    dets = detect_stream(ens, [T, T + 1], rng.normal(size=(2, 2, 1)), rng.normal(size=(2, 2)), alpha=0.05)
    assert isinstance(dets, Detections) and len(dets) == 4
    rows = list(dets)
    assert [r.t for r in rows] == dets.t.tolist() == [T, T, T + 1, T + 1]
    assert [r.k for r in rows] == dets.k.tolist() == [0, 1, 0, 1]
    assert [r.test_score for r in rows] == dets.test_score.tolist()
    assert [r.p_value for r in rows] == dets.p_value.tolist()
    assert [r.flagged for r in rows] == dets.flagged.tolist()
    assert [r.comparison_count for r in rows] == dets.comparison_count.tolist()


def test_detect_stream_rejects_time_going_back_across_sensors():
    ens, values = _train_small_ensemble(seed=5)
    T = values.shape[0]
    with pytest.raises(ValueError, match="strictly increase"):
        detect_stream(ens, [T + 1, T], np.zeros((2, 2, 1)), np.zeros((2, 2)), alpha=0.05)


def test_detect_stream_rejects_duplicate_item():
    ens, values = _train_small_ensemble(seed=5)
    T = values.shape[0]
    # a repeated time, next to the first one or after a later one
    for times in ([T, T], [T, T + 1, T + 1], [T, T + 1, T]):
        with pytest.raises(ValueError, match="strictly increase"):
            detect_stream(ens, times, np.zeros((len(times), 2, 1)), np.zeros((len(times), 2)), alpha=0.05)


def test_detect_stream_rejects_time_inside_retained_window():
    ens, values = _train_small_ensemble(seed=5)
    last = int(ens.usable_times[-1])
    with pytest.raises(ValueError, match="out-of-order.*already holds"):
        detect_stream(ens, [last], np.zeros((1, 2, 1)), np.zeros((1, 2)), alpha=0.05)


def _locality_stream(seed, n_times):
    """12-sensor ensemble and a grid test stream of n_times timestamps, 1-2 steps apart, with spikes."""
    ens, values = _train_small_ensemble(seed=seed, K=12)
    T = values.shape[0]
    rng = np.random.default_rng(seed)
    steps = rng.integers(1, 3, size=n_times)
    stream_t = T + np.cumsum(steps) - steps[0]
    stream_x = rng.normal(size=(n_times, 12, 1))
    stream_y = rng.normal(size=(n_times, 12)) + np.where(rng.random((n_times, 12)) < 0.15, 12.0, 0.0)
    return ens, stream_t, stream_x, stream_y


# row k holds sensor k itself, then k + 3 and k + 6 (mod 12)
_NEIGHBORS = (np.arange(12)[:, None] + 3 * np.arange(3)) % 12


@pytest.mark.parametrize("variant", ["neighbor_sensors", "as_printed"])
def test_detect_stream_locality_ignores_scores_of_the_same_timestamp(variant):
    # every point of timestamp t ranks against the store as it stood at the end
    # of t-1, so moving the other sensors' points at t changes none of its results
    ens, stream_t, stream_x, stream_y = _locality_stream(21, 12)
    locality = LocalityConfig(enabled=True, n_lags=3, variant=variant)
    moved = np.zeros(stream_y.shape, dtype=bool)
    moved[-1, 1::2] = True  # the odd sensors at the last time
    runs = [
        detect_stream(ens, stream_t, stream_x, y, alpha=0.1, locality=locality, neighbors=_NEIGHBORS)
        for y in (stream_y, stream_y + np.where(moved, 50.0, 0.0))
    ]
    moved = moved.ravel()
    for name in ("test_score", "p_value", "flagged", "comparison_count"):
        first, second = (getattr(dets, name) for dets in runs)
        assert np.array_equal(first[~moved], second[~moved]), name
    assert runs[1].flagged[moved].all() and not runs[0].flagged[moved].all()
    assert runs[0].flagged.any()


def _replay(ens, stream_t, scores, alpha, locality, neighbors, exclude_flagged):
    """(rank count, comparison-set size) per (t, k), ranked point by point against a
    copy of the store taken at the end of the previous timestamp."""
    store = ScoreStore(ens.usable_times, ens.scores)
    out = []
    for t, row in zip(stream_t.tolist(), scores.reshape(len(stream_t), -1).tolist()):
        snapshot = copy.deepcopy(store)
        for k, s in enumerate(row):
            if not locality.enabled:
                window = snapshot.score_grid[k]
            elif locality.variant == "as_printed":
                window = snapshot.score_grid.ravel()
            else:
                window = local_window(snapshot, t, k, locality.n_lags, neighbors[k])
            count = int(np.count_nonzero(window >= s))
            out.append((count, window.size))
            if not (exclude_flagged and count / window.size <= alpha):
                store.push_rows(np.array([k]), t, np.array([s]))
    return out


@pytest.mark.parametrize("exclude_flagged", [False, True], ids=["slide", "exclude"])
@pytest.mark.parametrize(
    "locality",
    [
        LocalityConfig(),
        LocalityConfig(enabled=True, n_lags=3),
        LocalityConfig(enabled=True, n_lags=500),  # more lags than the window holds
        LocalityConfig(enabled=True, variant="as_printed"),
    ],
    ids=["plain", "neighbors", "neighbors-saturated", "as_printed"],
)
def test_detect_stream_matches_point_by_point_oracle(locality, exclude_flagged):
    ens, stream_t, stream_x, stream_y = _locality_stream(31, 15)
    alpha = 0.1
    dets = detect_stream(
        ens, stream_t, stream_x, stream_y, alpha=alpha, locality=locality,
        neighbors=_NEIGHBORS, exclude_flagged_from_window=exclude_flagged,
    )
    # the saturated case reaches back past every retained score
    assert locality.n_lags < 500 or locality.n_lags > len(ens.scores)
    expected = _replay(ens, stream_t, dets.test_score, alpha, locality, _NEIGHBORS, exclude_flagged)
    assert dets.comparison_count.tolist() == [size for _, size in expected]
    assert dets.p_value.tolist() == [count / size for count, size in expected]
    assert dets.flagged.any() and not dets.flagged.all()


def _division_loo_aggregate(preds, excluded, agg):
    """The mean LOO kernel in its sum-then-divide form: the product by the 0/1 sets, divided by |S_i|."""
    assert agg.kind == "mean"
    out = preds.T @ excluded.T.astype(np.float64)
    out /= excluded.sum(axis=1)
    return out


@pytest.mark.parametrize("exclude_flagged", [False, True], ids=["slide", "exclude"])
@pytest.mark.parametrize(
    "locality", [LocalityConfig(), LocalityConfig(enabled=True, n_lags=3)], ids=["plain", "neighbors"]
)
def test_detect_stream_mean_matches_division_kernel_oracle(monkeypatch, locality, exclude_flagged):
    # the mean's weights hold 1/|S_i|: on this stream that moves the last bits
    # of some test scores (45 of 720) and no rank count against the window
    ens, stream_t, stream_x, stream_y = _locality_stream(41, 60)
    assert ens.aggregator.kind == "mean"

    def run():
        return detect_stream(
            ens, stream_t, stream_x, stream_y, alpha=0.1, locality=locality,
            neighbors=_NEIGHBORS, exclude_flagged_from_window=exclude_flagged,
        )

    dets = run()
    monkeypatch.setattr(detector, "loo_aggregate", _division_loo_aggregate)
    oracle = run()
    assert np.array_equal(dets.p_value, oracle.p_value)
    assert np.array_equal(dets.flagged, oracle.flagged)
    assert np.allclose(dets.test_score, oracle.test_score, rtol=0.0, atol=1e-12)
    assert dets.flagged.any() and not dets.flagged.all()
