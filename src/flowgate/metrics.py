"""Evaluation metrics for five-class flow classification.

Headline precision/recall/F are class-frequency weighted averages. The
false alarm rate is the fraction of truly Normal flows predicted as any
attack. Cost is the mean per-sample penalty under a 5x5 cost matrix; the
published KDD-99 competition matrix is the bundled default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES, FlowClass

# rows = true class, columns = predicted class,
# order Normal, Probe, DoS, U2R, R2L
KDD99_COST_MATRIX = np.array([
    [0, 1, 2, 2, 2],
    [1, 0, 2, 2, 2],
    [2, 1, 0, 2, 2],
    [3, 2, 2, 0, 2],
    [4, 2, 2, 2, 0],
], dtype=np.float64)


@dataclass
class MetricsReport:
    confusion: np.ndarray
    precision: np.ndarray       # per class
    recall: np.ndarray          # per class
    f_score: np.ndarray         # per class
    weighted_precision: float
    weighted_recall: float
    weighted_f_score: float
    accuracy: float
    false_alarm_rate: float
    cost: float

    def to_doc(self) -> dict:
        return {
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "per_class": {
                FlowClass(j).name: {
                    "precision": float(self.precision[j]),
                    "recall": float(self.recall[j]),
                    "f_score": float(self.f_score[j]),
                }
                for j in range(N_CLASSES)
            },
            "precision": float(self.weighted_precision),
            "recall": float(self.weighted_recall),
            "f_score": float(self.weighted_f_score),
            "accuracy": float(self.accuracy),
            "false_alarm_rate": float(self.false_alarm_rate),
            "cost": float(self.cost),
        }


def confusion(truth, predictions) -> np.ndarray:
    """5x5 count matrix, counts[true][predicted]."""
    truth = np.asarray(truth, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if truth.shape != predictions.shape:
        raise ValueError("truth and predictions are misaligned")
    if truth.size == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    if not np.isin(np.r_[truth, predictions], range(N_CLASSES)).all():
        raise ValueError(f"class codes must be 0 to {N_CLASSES - 1}")
    return np.bincount(truth * N_CLASSES + predictions,
                       minlength=N_CLASSES ** 2).reshape(N_CLASSES, N_CLASSES)


def report(cm, cost_matrix=None) -> MetricsReport:
    """All metrics from a confusion matrix; pure function of its inputs."""
    cm = np.asarray(cm, dtype=np.int64)
    if cost_matrix is None:
        cost_matrix = KDD99_COST_MATRIX
    cost_matrix = np.asarray(cost_matrix, dtype=np.float64)
    if cost_matrix.shape != (N_CLASSES, N_CLASSES):
        raise ValueError("cost matrix must be 5x5")
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, col, out=np.zeros(N_CLASSES), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros(N_CLASSES), where=row > 0)
    pr = precision + recall
    f_score = np.divide(2 * precision * recall, pr,
                        out=np.zeros(N_CLASSES), where=pr > 0)
    freq = row / total
    normal = int(FlowClass.NORMAL)
    n_normal = row[normal]
    fa = float((n_normal - cm[normal, normal]) / n_normal) if n_normal > 0 \
        else 0.0
    return MetricsReport(
        confusion=cm,
        precision=precision,
        recall=recall,
        f_score=f_score,
        weighted_precision=float(np.dot(freq, precision)),
        weighted_recall=float(np.dot(freq, recall)),
        weighted_f_score=float(np.dot(freq, f_score)),
        accuracy=float(tp.sum() / total),
        false_alarm_rate=fa,
        cost=float((cm * cost_matrix).sum() / total),
    )


def evaluate(truth, predictions, cost_matrix=None) -> MetricsReport:
    return report(confusion(truth, predictions), cost_matrix)
