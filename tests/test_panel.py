import tracemalloc

import numpy as np
import pytest

from ecad.panel import (
    TimeSeriesPanel,
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    read_csv,
    save_panel,
    save_sensors,
    write_csv,
)
from ecad.scenario import inject_missing


def test_load_panel_counts_missing_cells(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_1\n1.0,2.0\n3.0,NA\n5.0,6.0\n")
    panel = load_panel(path)
    assert panel.values.shape == (3, 2)
    assert panel.mask.sum() == 5
    assert not panel.mask[1, 1]
    assert panel.values[2, 1] == 6.0


def test_load_panel_header_only_is_empty(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_1\n")
    with pytest.raises(ValueError, match="no data rows after the header"):
        load_panel(path)


def test_load_panel_no_header_row(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no header row"):
        load_panel(path)


def test_load_panel_ragged_row(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="header has 2 columns but 1 were found"):
        load_panel(path)


def test_load_panel_non_numeric_cell(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_1\n1.0,oops\n")
    with pytest.raises(ValueError, match="could not convert string 'oops'"):
        load_panel(path)


def test_load_panel_duplicate_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="duplicate column names"):
        load_panel(path)


def test_load_panel_custom_missing_token(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0\n1.0\nmissing\n")
    panel = load_panel(path, missing_token="missing")
    assert panel.mask.sum() == 1
    # a token that parses as a number still reads as missing, and so does one padded with spaces
    path.write_text("sensor_0,sensor_1\n1.0,-999\n-999,2.5\n-9990,-999.0\n")
    panel = load_panel(path, missing_token="-999")
    assert panel.mask.tolist() == [[True, False], [False, True], [True, True]]
    assert panel.values[2].tolist() == [-9990.0, -999.0]
    path.write_text("sensor_0,sensor_1\n1.0, NA\n\tNA ,2.5\n")
    assert load_panel(path).mask.tolist() == [[True, False], [False, True]]
    # an empty token marks empty cells, and a blank line is still no row
    path.write_text("sensor_0,sensor_1\n1.0,\n\n,2.5\n")
    assert load_panel(path, missing_token="").mask.tolist() == [[True, False], [False, True]]


def test_panel_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 4)) * 1e3
    mask = rng.random((20, 4)) > 0.3
    mask[0] = True
    panel = TimeSeriesPanel(values, mask)
    path = tmp_path / "panel.csv"
    save_panel(panel, path)
    loaded = load_panel(path)
    assert np.array_equal(loaded.mask, mask)
    assert np.array_equal(loaded.values[mask], values[mask])


def test_forty_percent_missingness_gives_point_six_t_observed(tmp_path):
    # paper-scale masking: each column keeps 0.6 T observed cells (+-1 rounding)
    T, K = 1000, 20
    rng = np.random.default_rng(1)
    panel = TimeSeriesPanel(rng.normal(size=(T, K)), np.ones((T, K), dtype=bool))
    masked = inject_missing(panel, 0.4, seed=7)
    path = tmp_path / "panel.csv"
    save_panel(masked, path)
    loaded = load_panel(path)
    observed = loaded.observed_counts()
    assert np.all(np.abs(observed - 0.6 * T) <= 1)


def test_read_csv_skips_blank_lines_and_checks_every_row(tmp_path):
    path = tmp_path / "detections.csv"
    rows = [f"{t},{t % 4},9.5,{t / 8!r},{int(t % 3 == 0)}" for t in range(10)]
    path.write_text("t,k,test_score,p_value,flagged\n" + "\n".join(rows[:4] + [""] + rows[4:]) + "\n")
    t, k, p, flagged = read_csv(path, {"t": np.int64, "k": np.int64, "p_value": float, "flagged": bool})
    assert t.tolist() == list(range(10))
    assert k.tolist() == [i % 4 for i in range(10)]
    assert p.tolist() == [i / 8 for i in range(10)]
    assert flagged.tolist() == [i % 3 == 0 for i in range(10)]

    # a short last row is still found, though it holds every column asked for
    path.write_text("t,k,test_score,p_value,flagged\n" + "\n".join(rows + ["10,2"]) + "\n")
    with pytest.raises(ValueError, match="header has 5 columns but 2 were found on line 12$"):
        read_csv(path, {"t": np.int64, "k": np.int64})

    # both kinds of error name the line of the file, the header and blank lines counted
    bad_cell = rows[:4] + ["", "", rows[4].replace("9.5", "abc")] + rows[5:]
    path.write_text("t,k,test_score,p_value,flagged\n" + "\n".join(bad_cell) + "\n")
    with pytest.raises(ValueError, match="could not convert string 'abc' to float64 on line 8, column 3"):
        read_csv(path)
    short = rows[:4] + [""] + rows[4:6] + ["6,2"] + rows[7:]
    path.write_text("t,k,test_score,p_value,flagged\n" + "\n".join(short) + "\n")
    with pytest.raises(ValueError, match="header has 5 columns but 2 were found on line 9$"):
        read_csv(path, {"t": np.int64, "k": np.int64})
    path.write_text("sensor_0,sensor_1\n1.0,NA\n\nNA,x\n")
    with pytest.raises(ValueError, match="could not convert string 'x' to float64 on line 4, column 2"):
        load_panel(path)


def test_read_csv_holds_no_list_of_all_cells(tmp_path):
    # the evaluate stage reads truth.csv and detections.csv after detect has
    # freed its arrays; a list of every cell would raise the process's peak
    n = 40_000
    path = tmp_path / "truth.csv"
    path.write_text("t,k,label,injected\n" + "".join(f"{1000 + i},{i % 20},{i % 2},0\n" for i in range(n)))
    tracemalloc.start()
    try:
        t, k, label = read_csv(path, {"t": np.int64, "k": np.int64, "label": bool})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.size == n and label.sum() == n // 2
    # the rows take 17 bytes each, about twice while numpy's reader grows its
    # array; a list of all rows and their cells took about 200
    assert peak < 80 * n


def test_write_csv_writes_repr_and_reads_back_bit_for_bit(tmp_path):
    path = tmp_path / "numbers.csv"
    floats = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
    ints = [2**63 - 1, -(2**63), 0, 7]
    flags = np.array([True, False, True, False])
    write_csv(path, {"x": np.array(floats), "n": ints, "flag": flags})
    lines = [f"{x!r},{n!r},{int(f)}" for x, n, f in zip(floats, ints, flags)]
    assert path.read_text() == "x,n,flag\n" + "".join(line + "\n" for line in lines)
    x, n, flag = read_csv(path, {"x": float, "n": np.int64, "flag": bool})
    assert x.tobytes() == np.array(floats).tobytes()
    assert n.tolist() == ints
    assert flag.tolist() == flags.tolist()


def test_sensor_csv_roundtrip(tmp_path):
    sensors = np.array([(0.1, 0.2), (0.9, 0.4), (0.5, 0.5)])
    path = tmp_path / "sensors.csv"
    save_sensors(sensors, path)
    assert path.read_text() == "sensor_id,lat,lon\n0,0.1,0.2\n1,0.9,0.4\n2,0.5,0.5\n"
    assert load_sensors(path).tobytes() == sensors.tobytes()
    # row k is sensor k, whatever the order of the file's rows
    path.write_text("sensor_id,lat,lon\n2,0.5,0.5\n0,0.1,0.2\n1,0.9,0.4\n")
    assert load_sensors(path).tobytes() == sensors.tobytes()


def test_panel_sensors_are_one_coordinate_pair_per_column():
    values, mask = np.zeros((5, 3)), np.ones((5, 3), dtype=bool)
    assert TimeSeriesPanel(values, mask, [[0.1, 0.2]] * 3).sensors.shape == (3, 2)
    for coords in (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(6)):
        with pytest.raises(ValueError, match="sensor coordinates of shape"):
            TimeSeriesPanel(values, mask, coords)


def test_load_sensors_rejects_unscaled_coords(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text("sensor_id,lat,lon\n0,0.5,1.5\n")
    with pytest.raises(ValueError, match="scaled"):
        load_sensors(path)


def test_load_sensors_rejects_gappy_ids(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text("sensor_id,lat,lon\n0,0.5,0.5\n2,0.2,0.2\n")
    with pytest.raises(ValueError, match="contiguous"):
        load_sensors(path)


def test_neighbor_sets_collinear():
    sensors = np.array([(0.0, 0.0), (0.1, 0.0), (0.9, 0.0)])
    nb = neighbor_sets(sensors, 2)
    assert nb.tolist() == [[0, 1], [1, 0], [2, 1]]


def test_neighbor_sets_full_size_is_permutation():
    rng = np.random.default_rng(3)
    sensors = rng.uniform(size=(7, 2))
    nb = neighbor_sets(sensors, 7)
    for k in range(7):
        assert sorted(nb[k]) == list(range(7))


def test_neighbor_sets_self_always_first():
    rng = np.random.default_rng(4)
    sensors = rng.uniform(size=(15, 2))
    nb = neighbor_sets(sensors, 4)
    for k in range(15):
        assert nb[k][0] == k


def test_neighbor_sets_matches_brute_force_distance_sort():
    rng = np.random.default_rng(5)
    coords = rng.uniform(size=(20, 2))
    nb = neighbor_sets(coords, 5)
    for k in range(20):
        dists = [
            (float(np.hypot(*(coords[j] - coords[k]))), j) for j in range(20)
        ]
        dists.sort()
        assert list(nb[k]) == [j for _, j in dists[:5]]


def test_neighbor_sets_size_errors():
    sensors = np.array([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        neighbor_sets(sensors, 0)
    with pytest.raises(ValueError):
        neighbor_sets(sensors, 3)


def test_build_features_single_sensor_lags():
    panel = TimeSeriesPanel(
        np.array([[1.0], [2.0], [3.0], [4.0]]), np.ones((4, 1), dtype=bool)
    )
    times, sensors, X, y = build_features(panel, np.array([[0]]), 2)
    assert times.tolist() == [2, 3]
    assert sensors.tolist() == [0, 0]
    assert y.tolist() == [3.0, 4.0]
    assert X.tolist() == [[2.0, 1.0], [3.0, 2.0]]


def test_build_features_rejects_neighbor_array_of_other_sensor_count():
    panel = TimeSeriesPanel(np.zeros((6, 3)), np.ones((6, 3), dtype=bool))
    for neighbors in (np.array([[0], [1]]), np.array([0, 1, 2])):
        with pytest.raises(ValueError, match="neighbor array of shape"):
            build_features(panel, neighbors, 2)


def test_build_features_dimension_is_lags_times_neighbors():
    rng = np.random.default_rng(6)
    sensors = rng.uniform(size=(6, 2))
    panel = TimeSeriesPanel(rng.normal(size=(12, 6)), np.ones((12, 6), dtype=bool), sensors)
    times, sensor_ids, X, y = build_features(panel, neighbor_sets(sensors, 5), 5)
    assert X.shape == ((12 - 5) * 6, 25)
    assert times.shape == sensor_ids.shape == y.shape == ((12 - 5) * 6,)


def test_build_features_matches_direct_index_lookup():
    rng = np.random.default_rng(7)
    sensors = rng.uniform(size=(3, 2))
    values = rng.normal(size=(10, 3))
    panel = TimeSeriesPanel(values, np.ones((10, 3), dtype=bool), sensors)
    neighbors = neighbor_sets(sensors, 2)
    times, sensor_ids, X, y = build_features(panel, neighbors, 3)
    assert [(t, k) for t, k in zip(times.tolist(), sensor_ids.tolist())] == [
        (t, k) for t in range(3, 10) for k in range(3)
    ]
    for t, k, x, v in zip(times, sensor_ids, X, y):
        assert v == values[t, k]
        for j, nb in enumerate(neighbors[k]):
            for lag in range(1, 4):
                assert x[j * 3 + (lag - 1)] == values[t - lag, nb]


def test_build_features_is_pure():
    rng = np.random.default_rng(8)
    sensors = rng.uniform(size=(4, 2))
    panel = TimeSeriesPanel(rng.normal(size=(9, 4)), np.ones((9, 4), dtype=bool), sensors)
    neighbors = neighbor_sets(sensors, 3)
    first = build_features(panel, neighbors, 2)
    second = build_features(panel, neighbors, 2)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_build_features_never_leaks_future_values():
    # max referenced lag index is t-1, min is t-n_lags: perturbing any value at
    # time >= t must leave the features of row (t, k) unchanged
    rng = np.random.default_rng(9)
    sensors = rng.uniform(size=(3, 2))
    values = rng.normal(size=(8, 3))
    panel = TimeSeriesPanel(values, np.ones((8, 3), dtype=bool), sensors)
    neighbors = neighbor_sets(sensors, 3)
    n_lags = 3
    times, _, X, _ = build_features(panel, neighbors, n_lags)
    target_t = 5
    target = times == target_t
    assert target.sum() == 3
    bumped = values.copy()
    bumped[target_t:] += 100.0
    _, _, bumped_X, _ = build_features(
        TimeSeriesPanel(bumped, np.ones((8, 3), dtype=bool), sensors), neighbors, n_lags
    )
    assert np.array_equal(X[target], bumped_X[target])
    # and perturbing time t - n_lags - 1 must also leave row t unchanged
    older = values.copy()
    older[target_t - n_lags - 1] += 100.0
    _, _, older_X, _ = build_features(
        TimeSeriesPanel(older, np.ones((8, 3), dtype=bool), sensors), neighbors, n_lags
    )
    assert np.array_equal(X[target], older_X[target])


def test_build_features_rejects_incomplete_panel():
    mask = np.ones((5, 2), dtype=bool)
    mask[2, 1] = False
    panel = TimeSeriesPanel(np.zeros((5, 2)), mask)
    with pytest.raises(ValueError, match="missing"):
        build_features(panel, {0: (0,), 1: (1,)}, 2)


def test_build_features_rejects_excessive_lag():
    panel = TimeSeriesPanel(np.zeros((4, 1)), np.ones((4, 1), dtype=bool))
    with pytest.raises(ValueError, match="lag depth"):
        build_features(panel, {0: (0,)}, 4)
