import dataclasses

import numpy as np
import pytest

from ecad.backends import BackendSpec, fit
from ecad.panel import build_features, neighbor_sets
from ecad.scenario import (
    ErrorSpec,
    InjectionSpec,
    ScenarioConfig,
    TruthSpec,
    _ar_coefficients,
    generate,
    inject_missing,
    label_ground_truth,
)


def test_generate_is_reproducible():
    cfg = ScenarioConfig(n_sensors=6, n_train=80, n_test=40, seed=11)
    values_a, coords_a, truth_a = generate(cfg)
    values_b, coords_b, truth_b = generate(cfg)
    assert values_a.shape == (120, 6) and coords_a.shape == (6, 2)
    assert np.array_equal(values_a, values_b)
    assert np.array_equal(truth_a.labels, truth_b.labels)
    assert np.array_equal(truth_a.injected, truth_b.injected)
    assert np.array_equal(coords_a, coords_b)


def test_noiseless_linear_panel_is_the_recursion_fixed_point():
    cfg = ScenarioConfig(n_sensors=4, n_train=50, n_test=0, noise_sigma=0.0, seed=0)
    values, coords, _ = generate(cfg)
    # zero noise starts at the base level and the recursion stays there
    assert np.allclose(values, values[0, 0])
    nb = neighbor_sets(coords, 3)
    _, X, y = build_features(values, nb, 2)
    X, y = X.reshape(-1, X.shape[2]), y.ravel()
    model = fit(BackendSpec(kind="ridge", ridge_lambda=0.0), X, y)
    assert np.max(np.abs(model.predict(X) - y)) < 1e-8


def test_linear_model_coefficients_recoverable_by_regression():
    # structural check of the generative recursion: a near-unregularized fit on
    # the true (neighbor, lag) layout recovers the generator's coefficients
    cfg = ScenarioConfig(n_sensors=10, n_train=4000, n_test=0, noise_sigma=1.0, seed=2)
    values, coords, _ = generate(cfg)
    nb = neighbor_sets(coords, 3)
    _, X, y = build_features(values, nb, 2)
    model = fit(BackendSpec(kind="ridge", ridge_lambda=1e-8), X.reshape(-1, X.shape[2]), y.ravel())
    assert np.max(np.abs(model.params["weights"][0] - _ar_coefficients(3, 2).ravel())) < 0.02


def test_seasonal_model_has_daily_cycle():
    cfg = ScenarioConfig(
        n_sensors=5, n_train=480, n_test=0, model="seasonal_nonlinear",
        noise_sigma=0.5, seed=3,
    )
    values = generate(cfg)[0][:, 0]
    # fold on the 24h period: the cycle should explain a visible share of variance
    folded = values[: 480 // 24 * 24].reshape(-1, 24).mean(axis=0)
    assert folded.max() - folded.min() > 2 * values.std() * 0.3


def test_average_pairwise_distance_matches_uniform_square():
    # expected distance between two uniform points on the unit square is 0.5214
    means = []
    for seed in range(200):
        _, coords, _ = generate(ScenarioConfig(n_sensors=20, n_train=10, n_test=0, seed=seed))
        diffs = coords[:, None, :] - coords[None, :, :]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        iu = np.triu_indices(20, k=1)
        means.append(dists[iu].mean())
    assert abs(float(np.mean(means)) - 0.5214) < 0.02


def test_ar1_errors_are_autocorrelated():
    truth = TruthSpec(neighborhood_size=1)
    # one sensor cannot be masked so that every row keeps a cell, and this test masks none
    iid_cfg = ScenarioConfig(n_sensors=1, n_train=4000, n_test=0, missing_fraction=0.0, truth=truth, seed=4)
    ar_cfg = dataclasses.replace(iid_cfg, error=ErrorSpec("ar1", 0.8))
    # compare residual autocorrelation of the two error processes
    def lag1_corr(cfg):
        values = generate(cfg)[0][:, 0]
        v = values - values.mean()
        return float(np.corrcoef(v[1:], v[:-1])[0, 1])

    assert lag1_corr(ar_cfg) > lag1_corr(iid_cfg) + 0.1


def test_labels_constant_panel_all_anomalous():
    sensors = np.array([(0.1 * i, 0.0) for i in range(3)])
    values = np.full((10, 3), 7.0)
    labels = label_ground_truth(values, sensors, alpha=0.01, lag_depth=3, neighborhood_size=2)
    assert labels[3:].all()
    assert not labels[:3].any()


def test_labels_match_brute_force_oracle():
    rng = np.random.default_rng(12)
    values = rng.normal(size=(50, 5))
    sensors = rng.uniform(size=(5, 2))
    alpha, d, n_size = 0.01, 3, 4
    labels = label_ground_truth(values, sensors, alpha, d, n_size)

    nb = neighbor_sets(sensors, n_size)
    import math

    for t in range(d, 50):
        for k in range(5):
            pool = sorted(
                float(values[tt, kk]) for tt in range(t - d, t) for kk in nb[k]
            )
            hi = pool[max(0, math.ceil(round((1 - alpha) * len(pool), 9)) - 1)]
            lo = pool[max(0, math.ceil(round(alpha * len(pool), 9)) - 1)]
            expected = values[t, k] >= hi or values[t, k] <= lo
            assert labels[t, k] == expected, (t, k)


def test_label_fraction_weakly_increases_with_alpha():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(200, 6))
    sensors = rng.uniform(size=(6, 2))
    fractions = [
        label_ground_truth(values, sensors, a, 3, 4)[3:].mean()
        for a in [0.01, 0.05, 0.1, 0.2]
    ]
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_labeler_rejects_too_short_panels():
    sensors = np.zeros((1, 2))
    with pytest.raises(ValueError, match="labelable"):
        label_ground_truth(np.ones((3, 1)), sensors, 0.01, 3, 1)


def test_injected_spikes_are_labeled_on_linear_scenario():
    # rate 0.02, magnitude 6 sigma: the rule catches nearly all injected
    # positions (achieved 0.943 on this seed; pinned at the stated 0.8 floor)
    cfg = ScenarioConfig(
        n_sensors=10, n_train=400, n_test=200, model="linear_neighbor_lag",
        noise_sigma=1.0, injection=InjectionSpec(rate=0.02, magnitude_sigma=6.0),
        truth=TruthSpec(alpha=0.01, lag_depth=3, neighborhood_size=4), seed=11,
    )
    _, _, truth = generate(cfg)
    injected = truth.injected.copy()
    injected[: truth.first_labeled_t] = False
    assert injected.sum() > 50
    recall = truth.labels[injected].mean()
    assert recall >= 0.8
    assert recall >= 0.9  # regression pin for the achieved value


def test_injection_region_test_keeps_training_clean():
    cfg = ScenarioConfig(
        n_sensors=5, n_train=100, n_test=100,
        injection=InjectionSpec(rate=0.3, magnitude_sigma=8.0, region="test"), seed=5,
    )
    _, _, truth = generate(cfg)
    assert not truth.injected[:100].any()
    assert truth.injected[100:].any()


def test_inject_missing_zero_fraction_is_identity():
    panel = np.ones((20, 3))
    out = inject_missing(panel, 0.0, seed=0)
    assert np.array_equal(out, panel) and out is not panel


def test_inject_missing_exact_counts():
    panel = np.arange(4000.0).reshape(1000, 4)
    out = inject_missing(panel, 0.4, seed=1)
    observed = ~np.isnan(out)
    assert np.all(observed.sum(axis=0) == 600)
    # the cells it keeps hold their values, and the input is left as it was
    assert np.array_equal(out[observed], panel[observed])
    assert not np.isnan(panel).any()


def test_inject_missing_columns_draw_independently():
    differing = 0
    for seed in range(100):
        out = inject_missing(np.ones((30, 2)), 0.4, seed=seed)
        if not np.array_equal(np.isnan(out[:, 0]), np.isnan(out[:, 1])):
            differing += 1
    assert differing >= 99


def test_inject_missing_errors():
    panel = np.ones((4, 2))
    with pytest.raises(ValueError, match="fraction"):
        inject_missing(panel, 1.0, seed=0)
    with pytest.raises(ValueError, match="fewer than 2"):
        inject_missing(panel, 0.8, seed=0)
    # 3 columns keeping 4 of 10 rows each hold 12 observed cells: enough;
    # 2 columns hold 8, which cannot give each of 10 rows a cell
    inject_missing(np.ones((10, 3)), 0.6, seed=0)
    with pytest.raises(ValueError, match="every row"):
        inject_missing(np.ones((10, 2)), 0.6, seed=0)


def test_inject_missing_never_masks_a_whole_row():
    repaired = 0
    for seed in range(300):
        rows, sensors = 12, 2 + seed % 3
        observed = ~np.isnan(inject_missing(np.ones((rows, sensors)), 0.5, seed=seed))
        assert observed.any(axis=1).all()
        assert np.all(observed.sum(axis=0) == rows - 6)
        # the independent draws alone leave some row fully masked on these panels
        rng = np.random.default_rng(seed)
        drawn = np.ones((rows, sensors), dtype=bool)
        for k in range(sensors):
            drawn[rng.choice(rows, size=6, replace=False), k] = False
        repaired += int((~drawn.any(axis=1)).any())
    assert repaired > 50


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(model="chaos")
    with pytest.raises(ValueError):
        ScenarioConfig(injection=InjectionSpec(rate=0.6))
    with pytest.raises(ValueError):
        ScenarioConfig(error=ErrorSpec("ar1", 1.0))
    with pytest.raises(ValueError):
        ScenarioConfig(n_sensors=3, truth=TruthSpec(neighborhood_size=4))
