"""Classification metrics for the evasion classifiers (Section 5.2.1):
accuracy and the train/test split.  The FP-Inconsistent evaluation
(Sections 7.3–7.4) computes its rates in :mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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
