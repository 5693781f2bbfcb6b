import numpy as np
import pytest

from ecad.imputation import ImputerConfig, impute
from ecad.panel import TimeSeriesPanel
from ecad.scenario import ScenarioConfig, generate, inject_missing


def _complete_panel(values):
    return TimeSeriesPanel(values, np.ones_like(values, dtype=bool))


def test_complete_panel_is_a_fixed_point():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(30, 4))
    completed, report = impute(_complete_panel(values.copy()))
    assert report.iterations == 0
    assert report.final_max_delta == 0.0
    assert np.array_equal(completed.values, values)
    assert completed.mask.all()


def test_rank_one_panel_beats_column_mean_baseline():
    for seed in [2, 3, 4]:
        rng = np.random.default_rng(100 + seed)
        a = rng.uniform(1.0, 3.0, size=200)
        b = rng.uniform(0.5, 2.0, size=8)
        values = np.outer(a, b)
        masked = inject_missing(_complete_panel(values.copy()), 0.4, seed=seed)
        held = ~masked.mask
        completed, _ = impute(masked)
        rmse = np.sqrt(np.mean((completed.values[held] - values[held]) ** 2))
        col_means = np.array([values[masked.mask[:, k], k].mean() for k in range(8)])
        baseline = np.sqrt(np.mean((np.broadcast_to(col_means, values.shape)[held] - values[held]) ** 2))
        assert rmse < baseline


def test_observed_entries_bitwise_preserved():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(60, 5)) * 17.3
    masked = inject_missing(_complete_panel(values.copy()), 0.3, seed=3)
    completed, _ = impute(masked)
    assert np.array_equal(completed.values[masked.mask], values[masked.mask])
    assert completed.mask.all()


def test_imputation_is_deterministic():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(50, 4))
    masked = inject_missing(_complete_panel(values), 0.35, seed=5)
    first, first_report = impute(masked)
    second, second_report = impute(masked)
    assert np.array_equal(first.values, second.values)
    assert first_report.delta_trace == second_report.delta_trace


def test_delta_trace_non_increasing_after_first_sweep_on_pinned_seed():
    # linear-model synthetic panel, seed chosen so the round-robin sweeps settle
    # monotonically after the first pass
    panel, _ = generate(ScenarioConfig(n_sensors=8, n_train=300, n_test=0,
                                       model="linear_neighbor_lag", seed=2))
    masked = inject_missing(panel, 0.4, seed=2)
    _, report = impute(masked, ImputerConfig(max_iters=10, tol=1e-4))
    trace = report.delta_trace
    assert len(trace) >= 3
    assert all(a >= b for a, b in zip(trace[1:], trace[2:]))
    assert report.final_max_delta == trace[-1]


def test_stops_when_below_tolerance():
    rng = np.random.default_rng(3)
    a = rng.uniform(1.0, 2.0, size=100)
    b = rng.uniform(1.0, 2.0, size=6)
    masked = inject_missing(_complete_panel(np.outer(a, b)), 0.2, seed=1)
    _, report = impute(masked, ImputerConfig(max_iters=50, tol=1e-6))
    assert report.iterations < 50
    assert report.final_max_delta < 1e-6


def test_column_with_too_few_observations_errors():
    values = np.ones((10, 3))
    mask = np.ones((10, 3), dtype=bool)
    mask[1:, 0] = False
    with pytest.raises(ValueError, match="observed entries"):
        impute(TimeSeriesPanel(values, mask))


def test_fully_missing_row_errors():
    values = np.ones((10, 3))
    mask = np.ones((10, 3), dtype=bool)
    mask[4, :] = False
    with pytest.raises(ValueError, match="fully missing"):
        impute(TimeSeriesPanel(values, mask))


def test_imputer_config_validation():
    with pytest.raises(ValueError):
        ImputerConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        ImputerConfig(tol=0.0).validate()


def test_masked_placeholders_never_enter_the_computation():
    # whatever garbage sits behind mask=False must not influence the result
    rng = np.random.default_rng(5)
    values = rng.normal(size=(50, 5))
    masked = inject_missing(_complete_panel(values), 0.3, seed=7)
    poisoned = masked.copy()
    poisoned.values[~poisoned.mask] = 1e9
    clean_result, _ = impute(masked)
    poisoned_result, _ = impute(poisoned)
    assert np.array_equal(clean_result.values, poisoned_result.values)


def test_report_counts_missing_cells_per_column():
    rng = np.random.default_rng(4)
    masked = inject_missing(_complete_panel(rng.normal(size=(40, 6))), 0.25, seed=3)
    _, report = impute(masked)
    assert report.missing_per_column == [int(round(0.25 * 40))] * 6
