import numpy as np
import pytest

from ecad.evaluation import evaluate_sensors, rguess_expected_f1


def _from_counts(counts):
    """(sensors, labels, flags) whose sensor k has the confusion counts counts[k] = (tp, fp, tn, fn)."""
    cells = [(True, True), (False, True), (False, False), (True, False)]
    rows = [(k, *cell) for k, c in enumerate(counts) for cell, n in zip(cells, c) for _ in range(n)]
    sensors, labels, flags = (np.array(col) for col in zip(*rows))
    return sensors, labels, flags


def test_confusion_identical_sequences_have_no_errors():
    labels = np.array([True, False, True, True, False])
    report = evaluate_sensors(np.zeros(5, dtype=np.int64), labels, labels)
    assert (report.precision[0], report.recall[0], report.f1[0]) == (1.0, 1.0, 1.0)
    assert report.q[0] == 3 / 5 and report.n_points[0] == 5
    assert not report.degenerate[0]


def test_confusion_all_flags_true():
    labels = np.array([True, False, False, True])
    report = evaluate_sensors(np.zeros(4, dtype=np.int64), labels, np.ones(4, dtype=bool))
    assert report.precision[0] == 0.5 and report.recall[0] == 1.0


def test_confusion_matches_brute_force_loop():
    rng = np.random.default_rng(0)
    sensors = rng.integers(0, 5, size=200) * 3
    labels = rng.random(200) < 0.3
    flags = rng.random(200) < 0.4
    report = evaluate_sensors(sensors, labels, flags)
    assert report.sensor.tolist() == sorted(set(sensors.tolist()))
    for i, k in enumerate(report.sensor.tolist()):
        tp = fp = tn = fn = 0
        for s, l, f in zip(sensors, labels, flags):
            if s != k:
                continue
            if l and f:
                tp += 1
            elif not l and f:
                fp += 1
            elif not l and not f:
                tn += 1
            else:
                fn += 1
        assert report.n_points[i] == tp + fp + tn + fn
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        assert report.q[i] == (tp + fn) / (tp + fp + tn + fn)
        assert (report.precision[i], report.recall[i]) == (precision, recall)
        assert report.f1[i] == 2.0 * precision * recall / (precision + recall)
        assert report.f1[i] == pytest.approx(2 * tp / (2 * tp + fp + fn))
    assert report.n_points.sum() == 200


def test_confusion_length_mismatch_errors():
    with pytest.raises(ValueError, match="equal lengths"):
        evaluate_sensors(np.zeros(3, dtype=np.int64), np.ones(3, dtype=bool), np.ones(4, dtype=bool))


def test_metrics_degenerate_zero_over_zero():
    # no anomalies and no flags: every metric is 0/0, reported as 0
    report = evaluate_sensors(*_from_counts([(0, 0, 10, 0)]))
    assert report.precision[0] == 0.0 and report.recall[0] == 0.0 and report.f1[0] == 0.0
    assert report.degenerate[0]
    # anomalies but no flags, flags but no anomalies, and flags that all miss
    report = evaluate_sensors(*_from_counts([(0, 0, 5, 3), (0, 4, 6, 0), (0, 2, 5, 3)]))
    assert report.f1.tolist() == [0.0, 0.0, 0.0]
    assert report.degenerate.tolist() == [True, True, True]


def test_metrics_perfect_detector():
    report = evaluate_sensors(*_from_counts([(5, 0, 10, 0)]))
    assert (report.precision[0], report.recall[0], report.f1[0]) == (1.0, 1.0, 1.0)
    assert not report.degenerate[0]


def test_metrics_recall_one_precision_q_gives_rguess_formula():
    # flag everything: recall 1, precision q, f1 = 2q/(q+1)
    q = 0.32
    n = 1000
    tp = int(q * n)
    report = evaluate_sensors(*_from_counts([(tp, n - tp, 0, 0)]))
    assert report.recall[0] == 1.0
    assert report.precision[0] == pytest.approx(q)
    assert report.f1[0] == pytest.approx(rguess_expected_f1(q))
    assert report.rguess_f1[0] == pytest.approx(report.f1[0])


def test_f1_bounded_by_twice_the_smaller_side():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 50, size=(100, 4))
    counts[:, 0] = np.maximum(counts[:, 0], 1)  # every sensor has a point
    report = evaluate_sensors(*_from_counts(counts.tolist()))
    tp, fp, tn, fn = counts.T
    assert report.n_points.tolist() == counts.sum(axis=1).tolist()
    assert np.all(report.f1 <= 2 * np.minimum(report.precision, report.recall) + 1e-12)
    assert np.allclose(report.f1, 2 * tp / (2 * tp + fp + fn))
    assert np.allclose(report.q, (tp + fn) / counts.sum(axis=1))
    assert np.allclose(report.rguess_f1, 2 * report.q / (report.q + 1))


def test_rguess_endpoints():
    assert rguess_expected_f1(0.0) == 0.0
    assert rguess_expected_f1(1.0) == 1.0


def test_rguess_reference_values():
    assert rguess_expected_f1(0.32) == pytest.approx(0.48, abs=0.01)
    assert rguess_expected_f1(0.38) == pytest.approx(0.55, abs=0.01)
    assert rguess_expected_f1(0.31) == pytest.approx(0.48, abs=0.01)
    assert rguess_expected_f1(0.24) == pytest.approx(0.39, abs=0.01)
    # an array of fractions gives each its own baseline
    assert rguess_expected_f1(np.array([0.0, 0.32, 1.0])).tolist() == [0.0, 2 * 0.32 / 1.32, 1.0]


def test_rguess_rejects_out_of_range():
    with pytest.raises(ValueError):
        rguess_expected_f1(-0.1)
    with pytest.raises(ValueError):
        rguess_expected_f1(1.1)
    with pytest.raises(ValueError):
        rguess_expected_f1(np.array([0.5, np.nan]))


def test_evaluate_sensors_reports_fraction_and_metrics():
    sensors = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    labels = np.array([True, True, False, False, True, False, False, False])
    flags = np.array([True, False, False, False, True, True, False, False])
    report = evaluate_sensors(sensors, labels, flags)
    assert report.sensor.tolist() == [0, 1]
    assert report.q[0] == 0.5
    assert report.precision[0] == 1.0 and report.recall[0] == 0.5
    assert report.q[1] == 0.25
    assert report.rguess_f1[1] == pytest.approx(2 * 0.25 / 1.25)
    assert report.n_points[0] == 4
