"""Classification metrics.

Only what the paper reports is implemented: accuracy for the evasion
classifiers (Section 5.2.1), true/false positive and negative rates for the
FP-Inconsistent evaluation (Sections 7.3–7.4), plus precision/recall and a
confusion matrix because every downstream analysis wants them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion matrix with the positive class meaning "bot"."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    @property
    def total(self) -> int:
        return self.true_positive + self.false_positive + self.true_negative + self.false_negative

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.true_positive + self.true_negative) / self.total

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def false_positive_rate(self) -> float:
        denominator = self.false_positive + self.true_negative
        return self.false_positive / denominator if denominator else 0.0

    @property
    def true_negative_rate(self) -> float:
        denominator = self.false_positive + self.true_negative
        return self.true_negative / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        precision = self.precision
        recall = self.recall
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Compute the binary confusion matrix of *y_pred* against *y_true*."""

    true = np.asarray(y_true, dtype=int)
    pred = np.asarray(y_pred, dtype=int)
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    return ConfusionMatrix(
        true_positive=int(np.sum((true == 1) & (pred == 1))),
        false_positive=int(np.sum((true == 0) & (pred == 1))),
        true_negative=int(np.sum((true == 0) & (pred == 0))),
        false_negative=int(np.sum((true == 1) & (pred == 0))),
    )


def accuracy_score(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Fraction of predictions matching the truth."""

    true = np.asarray(y_true)
    pred = np.asarray(y_pred)
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if true.size == 0:
        return 0.0
    return float(np.mean(true == pred))


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple:
    """Random split into train/test portions (paper uses 90/10 and 80/20)."""

    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels must have the same number of rows")
    count = features.shape[0]
    permutation = rng.permutation(count)
    test_count = max(1, int(round(count * test_fraction)))
    test_index = permutation[:test_count]
    train_index = permutation[test_count:]
    return (
        features[train_index],
        features[test_index],
        labels[train_index],
        labels[test_index],
    )
