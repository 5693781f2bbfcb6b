import math
import tracemalloc

import numpy as np
import pytest

from ecad.imputation import impute
from ecad.panel import (
    _WRITE_BLOCK_CELLS,
    PREDICT_CHUNK,
    as_panel,
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    read_csv,
    save_panel,
    save_sensors,
    time_blocks,
    write_csv,
)
from ecad.scenario import inject_missing


def test_load_panel_counts_missing_cells(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sensor_0,sensor_1\n1.0,2.0\n3.0,NA\n5.0,6.0\n")
    panel = load_panel(path)
    assert panel.shape == (3, 2) and panel.dtype == np.float64
    assert np.count_nonzero(~np.isnan(panel)) == 5
    assert np.isnan(panel[1, 1])
    assert panel[2, 1] == 6.0


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
    assert np.isnan(panel).tolist() == [[False], [True]]
    # a token that parses as a number still reads as missing, and so does one padded with spaces
    path.write_text("sensor_0,sensor_1\n1.0,-999\n-999,2.5\n-9990,-999.0\n")
    panel = load_panel(path, missing_token="-999")
    assert np.isnan(panel).tolist() == [[False, True], [True, False], [False, False]]
    assert panel[2].tolist() == [-9990.0, -999.0]
    path.write_text("sensor_0,sensor_1\n1.0, NA\n\tNA ,2.5\n")
    assert np.isnan(load_panel(path)).tolist() == [[False, True], [True, False]]
    # an empty token marks empty cells, and a blank line is still no row
    path.write_text("sensor_0,sensor_1\n1.0,\n\n,2.5\n")
    assert np.isnan(load_panel(path, missing_token="")).tolist() == [[False, True], [True, False]]


def test_panel_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 4)) * 1e3
    values[rng.random((20, 4)) <= 0.3] = np.nan
    path = tmp_path / "panel.csv"
    save_panel(values, path)
    assert path.read_text().count("NA") == np.count_nonzero(np.isnan(values))
    assert load_panel(path).tobytes() == values.tobytes()


def test_forty_percent_missingness_gives_point_six_t_observed(tmp_path):
    # paper-scale masking: each column keeps 0.6 T observed cells (+-1 rounding)
    T, K = 1000, 20
    rng = np.random.default_rng(1)
    masked = inject_missing(rng.normal(size=(T, K)), 0.4, seed=7)
    path = tmp_path / "panel.csv"
    save_panel(masked, path)
    observed = np.count_nonzero(~np.isnan(load_panel(path)), axis=0)
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


def _per_cell_csv(columns):
    """The text write_csv defines: ``str`` of every cell, a flag as 0 or 1."""
    arrays = [np.asarray(c) for c in columns.values()]
    cells = [(a.astype(np.uint8) if a.dtype == bool else a).tolist() for a in arrays]
    return ",".join(columns) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in zip(*cells))


def _writer_cases():
    rng = np.random.default_rng(3)
    block = _WRITE_BLOCK_CELLS // 4  # the rows of a block of the four-column cases below
    panel = rng.normal(size=(50, 3)).astype(object)
    panel[rng.random(panel.shape) < 0.4] = "NA"
    few = rng.integers(0, 2001, size=block + 1) / 2000
    cases = {
        "int64-extremes-and-flags": {
            "n": np.array([2**63 - 1, -(2**63), 0, 7, -1] * 40),
            "flag": np.array([True, False, True, True, False] * 40),
        },
        # equal as floats, different text: a table keyed on float values writes -0.0 as 0.0
        "signed-zeros": {"x": np.array([0.0, -0.0, 0.5, -0.0, 0.0, 1 / 3] * 50)},
        "repr-forms": {"x": np.array([5e-324, 1e16, 1e-05, -1e16, 0.1 + 0.2] * 40)},
        "all-distinct": {"x": rng.normal(size=_WRITE_BLOCK_CELLS + 1), "n": np.arange(_WRITE_BLOCK_CELLS + 1)},
        # an object column holding the missing token, as save_panel passes it
        "missing-token": {f"sensor_{k}": panel[:, k] for k in range(3)},
        "no-rows": {"t": np.array([], dtype=np.int64), "x": np.array([]), "flag": np.array([], dtype=bool)},
        # written in three blocks: -0.0 first shows up in the second, whose table holds 0.0
        "signed-zero-later": {"x": np.array([0.0] * 150 + [-0.0, 2.5] * 75)},
        # written in three blocks: each block's first time is the last of the block before
        "values-recur-across-blocks": {"t": np.repeat(np.arange(3000), 2)},
        # written in three blocks: the second holds more distinct values than a table
        "block-outgrows-the-table": {
            "t": np.concatenate([np.repeat(np.arange(2100), 2), 10**6 + np.arange(4200), np.repeat(np.arange(2100), 2)])
        },
    }
    for n in (block - 1, block, block + 1):
        cases[f"{n}-rows"] = {
            "t": np.arange(n) // 7, "p_value": few[:n], "score": rng.random(n), "flag": few[:n] <= 0.05,
        }
    return cases


@pytest.mark.parametrize("case", list(_writer_cases()))
def test_write_csv_equals_per_cell_str(tmp_path, case):
    columns = _writer_cases()[case]
    path = tmp_path / "out.csv"
    write_csv(path, columns)
    assert path.read_text() == _per_cell_csv(columns)
    # the same rows written as three blocks of one file
    n = len(next(iter(columns.values())))
    parts = (slice(0, n // 3), slice(n // 3, n - 1), slice(n - 1, n))
    write_csv(path, ({name: np.asarray(c)[rows] for name, c in columns.items()} for rows in parts))
    assert path.read_text() == _per_cell_csv(columns)


def test_write_csv_refuses_unequal_or_no_columns(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"one length, got lengths \{'a': 5, 'b': 3\}"):
        write_csv(path, {"a": np.arange(5), "b": np.arange(3)})
    with pytest.raises(ValueError, match=r"one or more columns.*got lengths \{\}"):
        write_csv(path, {})
    with pytest.raises(ValueError, match=r"a block of columns \['b'\] in a file of columns \['a'\]"):
        write_csv(path, iter([{"a": np.arange(2)}, {"b": np.arange(2)}]))


def test_write_csv_memory_is_bounded(tmp_path):
    # a detections-shaped file: times, sensor ids, distinct scores, p-values
    # count / W and flags; holding the whole file's text at once takes at least its size
    n = 200_000
    rng = np.random.default_rng(5)
    p = rng.integers(0, 2001, size=n) / 2000
    columns = {
        "t": np.repeat(np.arange(n // 40), 40),
        "k": np.tile(np.arange(40), n // 40),
        "test_score": rng.random(n),
        "p_value": p,
        "flagged": p <= 0.05,
    }
    path = tmp_path / "detections.csv"
    tracemalloc.start()
    try:
        write_csv(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_sensor_csv_roundtrip(tmp_path):
    sensors = np.array([(0.1, 0.2), (0.9, 0.4), (0.5, 0.5)])
    path = tmp_path / "sensors.csv"
    save_sensors(sensors, path)
    assert path.read_text() == "sensor_id,lat,lon\n0,0.1,0.2\n1,0.9,0.4\n2,0.5,0.5\n"
    assert load_sensors(path).tobytes() == sensors.tobytes()
    # row k is sensor k, whatever the order of the file's rows
    path.write_text("sensor_id,lat,lon\n2,0.5,0.5\n0,0.1,0.2\n1,0.9,0.4\n")
    assert load_sensors(path).tobytes() == sensors.tobytes()


def test_as_panel_is_a_float_array_of_two_dimensions():
    panel = as_panel([[1, 2], [3, 4]])
    assert panel.dtype == np.float64 and panel.shape == (2, 2)
    for values in (np.zeros(6), np.zeros((2, 3, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="panel values must be 2-D"):
            as_panel(values)
    # the refusal of every function that takes a panel
    with pytest.raises(ValueError, match="panel values must be 2-D"):
        build_features(np.zeros(6), np.zeros((6, 1), dtype=int), 1)
    with pytest.raises(ValueError, match="panel values must be 2-D"):
        inject_missing(np.zeros(6), 0.2, seed=0)
    with pytest.raises(ValueError, match="panel values must be 2-D"):
        impute(np.ones(10))


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


def test_neighbor_sets_self_first_among_colocated_sensors():
    # two lanes at one station share coordinates; each must still list itself first
    coords = np.array([(0.5, 0.5), (0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    assert neighbor_sets(coords, 1).tolist() == [[0], [1], [2], [3]]
    assert neighbor_sets(coords, 2).tolist() == [[0, 2], [1, 0], [2, 0], [3, 0]]


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
    times, X, y = build_features(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([[0]]), 2)
    assert times.tolist() == [2, 3]
    assert y.tolist() == [[3.0], [4.0]]
    assert X.tolist() == [[[2.0, 1.0]], [[3.0, 2.0]]]


def test_build_features_rejects_neighbor_array_of_other_sensor_count():
    panel = np.zeros((6, 3))
    for neighbors in (np.array([[0], [1]]), np.array([0, 1, 2]), np.array([[0.0], [1.0], [2.0]])):
        with pytest.raises(ValueError, match=r"neighbor array must be an integer \(3, m\) array"):
            build_features(panel, neighbors, 2)
    # a negative id would read column K - 1 and an id >= K raise a bare IndexError
    for neighbors in ([[0], [-1], [2]], [[0], [1], [3]], [[0, 1], [1, 1], [2, 0]]):
        with pytest.raises(ValueError, match=r"distinct sensor ids in \[0, 3\)"):
            build_features(panel, np.array(neighbors), 2)


def test_build_features_dimension_is_lags_times_neighbors():
    rng = np.random.default_rng(6)
    sensors = rng.uniform(size=(6, 2))
    panel = rng.normal(size=(12, 6))
    times, X, y = build_features(panel, neighbor_sets(sensors, 5), 5)
    assert X.shape == (12 - 5, 6, 25)
    assert y.shape == (12 - 5, 6) and times.shape == (12 - 5,)


def test_build_features_matches_direct_index_lookup():
    rng = np.random.default_rng(7)
    sensors = rng.uniform(size=(3, 2))
    values = rng.normal(size=(10, 3))
    neighbors = neighbor_sets(sensors, 2)
    times, X, y = build_features(values, neighbors, 3)
    assert times.tolist() == list(range(3, 10))
    for i, t in enumerate(times):
        for k in range(3):
            assert y[i, k] == values[t, k]
            for j, nb in enumerate(neighbors[k]):
                for lag in range(1, 4):
                    assert X[i, k, j * 3 + (lag - 1)] == values[t - lag, nb]


def test_build_features_is_pure():
    rng = np.random.default_rng(8)
    sensors = rng.uniform(size=(4, 2))
    panel = rng.normal(size=(9, 4))
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
    neighbors = neighbor_sets(sensors, 3)
    n_lags = 3
    times, X, _ = build_features(values, neighbors, n_lags)
    target_t = 5
    target = times == target_t
    assert target.sum() == 1
    bumped = values.copy()
    bumped[target_t:] += 100.0
    _, bumped_X, _ = build_features(bumped, neighbors, n_lags)
    assert np.array_equal(X[target], bumped_X[target])
    # and perturbing time t - n_lags - 1 must also leave row t unchanged
    older = values.copy()
    older[target_t - n_lags - 1] += 100.0
    _, older_X, _ = build_features(older, neighbors, n_lags)
    assert np.array_equal(X[target], older_X[target])


def test_build_features_rejects_incomplete_panel():
    panel = np.zeros((5, 2))
    panel[2, 1] = np.nan
    with pytest.raises(ValueError, match="missing"):
        build_features(panel, np.array([[0], [1]]), 2)


def test_build_features_rejects_excessive_lag():
    with pytest.raises(ValueError, match="lag depth"):
        build_features(np.zeros((4, 1)), np.array([[0]]), 4)


@pytest.mark.parametrize("n_sensors", [1, 7, 40, 512, 513])
def test_time_blocks_tile_the_times_in_whole_prediction_chunks(n_sensors):
    step = PREDICT_CHUNK // math.gcd(PREDICT_CHUNK, n_sensors)  # times per block: 512, 512, 64, 1, 512
    for n_times in sorted({1, step - 1, step, step + 1, 2 * step, (5 * step) // 2, (5 * step) // 2 + 1} - {0}):
        blocks = time_blocks(n_times, n_sensors)
        # the blocks tile [0, n_times) in order
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_times and all(b.step is None for b in blocks)
        # every block but the last is a whole number of chunks of points
        assert all((b.stop - b.start) * n_sensors % PREDICT_CHUNK == 0 for b in blocks[:-1])
        # the last block is shorter than two blocks, and no block is shorter than one unless the grid is
        sizes = [b.stop - b.start for b in blocks]
        assert sizes[-1] < 2 * step and min(sizes) >= min(step, n_times), (n_times, sizes)
