import numpy as np
import pytest

from flowgate.metrics import (KDD99_COST_MATRIX, confusion, evaluate, report)


def test_confusion_counts():
    truth = [0, 0, 1, 2, 2, 4]
    preds = [0, 1, 1, 2, 0, 4]
    cm = confusion(truth, preds)
    assert cm.sum() == 6
    assert cm[0, 0] == 1 and cm[0, 1] == 1
    assert cm[2, 0] == 1 and cm[2, 2] == 1
    assert cm[4, 4] == 1


def test_confusion_single_dos_as_normal():
    cm = confusion([2], [0])
    assert cm[2, 0] == 1
    assert cm.sum() == 1


def test_confusion_misaligned():
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([], [])


@pytest.mark.parametrize("truth, preds", [([0, 1], [-1, 1]), ([0], [5]),
                                          ([-1], [0]), ([5, 0], [0, 0])])
def test_confusion_rejects_codes_outside_the_classes(truth, preds):
    # a -1 would wrap to class 4 and a 5 index past the matrix
    with pytest.raises(ValueError, match="class codes"):
        confusion(truth, preds)


def test_perfect_classifier():
    truth = np.repeat(np.arange(5), 10)
    rep = evaluate(truth, truth)
    assert rep.accuracy == 1.0
    assert rep.weighted_precision == 1.0
    assert rep.weighted_recall == 1.0
    assert rep.weighted_f_score == 1.0
    assert rep.false_alarm_rate == 0.0
    assert rep.cost == 0.0


def test_all_normal_predictor_on_stated_test_distribution():
    # test-split counts (12183, 1880, 21705, 228, 1468); predicting Normal
    # everywhere scores 12183/37464 = 32.52%
    counts = [12183, 1880, 21705, 228, 1468]
    truth = np.repeat(np.arange(5), counts)
    preds = np.zeros(truth.size, dtype=np.int64)
    rep = evaluate(truth, preds)
    assert rep.accuracy == pytest.approx(12183 / 37464)
    assert rep.accuracy == pytest.approx(0.3252, abs=5e-5)
    assert rep.false_alarm_rate == 0.0  # no Normal flagged as attack


def test_cost_complement_identity():
    # all-ones off-diagonal cost with 90% accuracy -> cost 0.1
    truth = np.repeat(np.arange(5), 20)
    preds = truth.copy()
    wrong = np.arange(10)
    preds[wrong] = (truth[wrong] + 1) % 5
    ones = 1.0 - np.eye(5)
    rep = evaluate(truth, preds, ones)
    assert rep.accuracy == pytest.approx(0.9)
    assert rep.cost == pytest.approx(0.1)


def test_false_alarm_only_over_true_normal():
    truth = np.array([0, 0, 0, 0, 2, 2])
    preds = np.array([0, 2, 4, 0, 0, 2])  # half of Normal flagged
    rep = evaluate(truth, preds)
    assert rep.false_alarm_rate == pytest.approx(0.5)


def test_weighted_recall_equals_accuracy():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 5, 500)
    preds = np.where(rng.random(500) < 0.25, rng.integers(0, 5, 500), truth)
    rep = evaluate(truth, preds)
    assert rep.weighted_recall == pytest.approx(rep.accuracy, abs=1e-12)


def test_zero_denominators_yield_zero():
    truth = np.array([0, 0, 1])
    preds = np.array([1, 1, 0])
    rep = evaluate(truth, preds)
    assert rep.precision[2] == 0.0
    assert rep.recall[2] == 0.0
    assert rep.f_score[0] == 0.0


def test_report_is_pure():
    cm = confusion([0, 1, 2, 3, 4], [0, 1, 2, 3, 3])
    a = report(cm)
    b = report(cm)
    assert a.to_doc() == b.to_doc()


def test_default_cost_matrix_shape_and_diag():
    assert KDD99_COST_MATRIX.shape == (5, 5)
    assert np.all(np.diag(KDD99_COST_MATRIX) == 0)
    with pytest.raises(ValueError):
        report(confusion([0], [0]), np.ones((4, 4)))
