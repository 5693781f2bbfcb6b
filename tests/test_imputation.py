import numpy as np
import pytest

from ecad.imputation import _MAX_SWEEPS, _TOL, impute
from ecad.scenario import ScenarioConfig, generate, inject_missing


def test_complete_panel_is_a_fixed_point():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(30, 4))
    completed, report = impute(values)
    assert report.iterations == 0
    assert report.final_max_delta == 0.0
    assert np.array_equal(completed, values) and completed is not values


def test_observed_entries_bitwise_preserved():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(60, 5)) * 17.3
    masked = inject_missing(values, 0.3, seed=3)
    observed = ~np.isnan(masked)
    completed, _ = impute(masked)
    assert np.array_equal(completed[observed], values[observed])
    assert not np.isnan(completed).any()
    # the input keeps its missing cells
    assert np.array_equal(np.isnan(masked), ~observed)


def test_imputation_is_deterministic():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(50, 4))
    masked = inject_missing(values, 0.35, seed=5)
    first, first_report = impute(masked)
    second, second_report = impute(masked)
    assert np.array_equal(first, second)
    assert first_report.delta_trace == second_report.delta_trace


def test_delta_trace_non_increasing_after_first_sweep_on_pinned_seed():
    # linear-model synthetic panel, seed chosen so the round-robin sweeps settle
    # monotonically after the first pass
    values, _, _ = generate(ScenarioConfig(n_sensors=8, n_train=300, n_test=0,
                                           model="linear_neighbor_lag", seed=2))
    masked = inject_missing(values, 0.4, seed=2)
    _, report = impute(masked)
    trace = report.delta_trace
    assert len(trace) >= 3
    assert all(a >= b for a, b in zip(trace[1:], trace[2:]))
    assert report.final_max_delta == trace[-1]


def test_stops_when_below_tolerance():
    rng = np.random.default_rng(3)
    a = rng.uniform(1.0, 2.0, size=100)
    b = rng.uniform(1.0, 2.0, size=6)
    masked = inject_missing(np.outer(a, b), 0.2, seed=1)
    _, report = impute(masked)
    assert report.iterations < _MAX_SWEEPS
    assert report.final_max_delta < _TOL


def test_column_with_too_few_observations_errors():
    values = np.ones((10, 3))
    values[1:, 0] = np.nan
    with pytest.raises(ValueError, match="observed entries"):
        impute(values)


def test_fully_missing_row_errors():
    values = np.ones((10, 3))
    values[4, :] = np.nan
    with pytest.raises(ValueError, match="fully missing"):
        impute(values)


def test_masked_placeholders_never_enter_the_computation():
    # a missing cell is NaN, which would spread to every fit that read it
    rng = np.random.default_rng(5)
    masked = inject_missing(rng.normal(size=(50, 5)), 0.3, seed=7)
    completed, report = impute(masked)
    assert np.isfinite(completed).all()
    assert all(np.isfinite(report.delta_trace))


def test_report_counts_missing_cells_per_column():
    rng = np.random.default_rng(4)
    masked = inject_missing(rng.normal(size=(40, 6)), 0.25, seed=3)
    _, report = impute(masked)
    assert report.missing_per_column == [int(round(0.25 * 40))] * 6
