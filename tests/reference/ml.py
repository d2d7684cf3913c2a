"""Reference ML code: the per-candidate split search, a confusion matrix and
the object-at-a-time feature encoder.

:class:`repro.ml.tree.DecisionTree` finds each node's split from per-forest
rank codes: one ``np.bincount`` per node over the drawn candidates and one
vectorised gain pass.  The classes here grow trees the way the learner did
before that: for every drawn feature, ``np.unique`` (plus ``np.quantile``
above ``max_bins``) for the thresholds, then a stable ``argsort``, two
``cumsum`` and a ``searchsorted`` for the child statistics.  They draw
candidates with the same ``rng.choice`` calls in the same pre-order, so
every node array they produce must equal the product's bit for bit
(``tests/test_ml.py``, ``tests/test_properties.py``).

:class:`ConfusionMatrix` is the test suite's binary confusion matrix; the
product's detector evaluation computes its rates in
:mod:`repro.core.evaluation`.  :class:`FingerprintObjectEncoder` is the
fingerprint-object twin of the product's columnar feature encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.fingerprint import Fingerprint
from repro.ml.encoding import _BOOLEAN_ATTRIBUTES, _NUMERIC_ATTRIBUTES, FingerprintEncoder
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTree, RankCodes, as_feature_matrix

_EPS = 1e-12

#: The node arrays a fitted tree holds, all compared bitwise.
NODE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_", "n_samples_", "gain_")


def _bin_edges(column: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate thresholds for *column*: midpoints of quantile bin edges."""

    unique = np.unique(column)
    if unique.size <= 1:
        return np.empty(0)
    if unique.size <= max_bins:
        return (unique[:-1] + unique[1:]) / 2.0
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = np.unique(np.quantile(column, quantiles))
    return edges


class ReferenceTree(DecisionTree):
    """A :class:`DecisionTree` grown by the per-candidate search."""

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ReferenceTree":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        weights = np.ones(features.shape[0], dtype=float)
        self.n_features_ = features.shape[1]
        nodes: List[list] = []
        self._grow(features, targets, weights, np.arange(features.shape[0]), 0, nodes)
        feature, threshold, left, right, value, n_samples, gain = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.value_ = np.array(value, dtype=float)
        self.n_samples_ = np.array(n_samples, dtype=np.int64)
        self.gain_ = np.array(gain, dtype=float)
        return self

    @staticmethod
    def _leaf_value(targets: np.ndarray, weights: np.ndarray) -> float:
        total = weights.sum()
        if total <= 0:
            return 0.0
        return float(np.dot(targets, weights) / total)

    @staticmethod
    def _impurity(targets: np.ndarray, weights: np.ndarray) -> float:
        total = weights.sum()
        if total <= 0:
            return 0.0
        mean = np.dot(targets, weights) / total
        return float(2.0 * mean * (1.0 - mean))

    def _grow(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        index: np.ndarray,
        depth: int,
        nodes: List[list],
    ) -> int:
        node_id = len(nodes)
        node_targets = targets[index]
        node_weights = weights[index]
        node = [-1, 0.0, -1, -1, self._leaf_value(node_targets, node_weights), index.size, 0.0]
        nodes.append(node)

        if depth >= self.max_depth or index.size < self.min_samples_split:
            return node_id
        impurity = self._impurity(node_targets, node_weights)
        if impurity <= _EPS:
            return node_id

        best = self._best_split(features, targets, weights, index, impurity)
        if best is None:
            return node_id
        feature, threshold, gain = best
        column = features[index, feature]
        left_mask = column <= threshold
        left_index = index[left_mask]
        right_index = index[~left_mask]
        if left_index.size < self.min_samples_leaf or right_index.size < self.min_samples_leaf:
            return node_id

        node[0], node[1], node[6] = feature, threshold, gain
        node[2] = self._grow(features, targets, weights, left_index, depth + 1, nodes)
        node[3] = self._grow(features, targets, weights, right_index, depth + 1, nodes)
        return node_id

    def _best_split(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        index: np.ndarray,
        parent_impurity: float,
    ) -> Optional[Tuple[int, float, float]]:
        n_features = features.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            candidates = self._rng.choice(n_features, size=self.max_features, replace=False)
        else:
            candidates = np.arange(n_features)

        node_targets = targets[index]
        node_weights = weights[index]
        total_weight = node_weights.sum()
        best_gain = _EPS
        best: Optional[Tuple[int, float, float]] = None

        for feature in candidates:
            column = features[index, feature]
            thresholds = _bin_edges(column, self.max_bins)
            if thresholds.size == 0:
                continue
            order = np.argsort(column, kind="stable")
            sorted_column = column[order]
            sorted_targets = node_targets[order]
            sorted_weights = node_weights[order]
            cum_weight = np.cumsum(sorted_weights)
            cum_weighted_target = np.cumsum(sorted_targets * sorted_weights)
            positions = np.searchsorted(sorted_column, thresholds, side="right")
            valid = (positions >= self.min_samples_leaf) & (
                positions <= index.size - self.min_samples_leaf
            )
            if not np.any(valid):
                continue
            positions = positions[valid]
            thresholds = thresholds[valid]
            left_weight = cum_weight[positions - 1]
            right_weight = total_weight - left_weight
            left_sum = cum_weighted_target[positions - 1]
            right_sum = cum_weighted_target[-1] - left_sum
            with np.errstate(divide="ignore", invalid="ignore"):
                left_mean = np.where(left_weight > 0, left_sum / left_weight, 0.0)
                right_mean = np.where(right_weight > 0, right_sum / right_weight, 0.0)
                left_impurity = 2.0 * left_mean * (1.0 - left_mean)
                right_impurity = 2.0 * right_mean * (1.0 - right_mean)
            weighted_child = (
                left_weight * left_impurity + right_weight * right_impurity
            ) / total_weight
            gains = parent_impurity - weighted_child
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                best = (int(feature), float(thresholds[best_local]), best_gain)
        return best


def fit_forest(
    forest: RandomForestClassifier, features: np.ndarray, labels: np.ndarray
) -> List[ReferenceTree]:
    """The trees *forest*'s parameters grow on (*features*, *labels*), each
    fitted by :class:`ReferenceTree` on its bootstrap copy of the rows."""

    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    max_features = forest._resolve_max_features(features.shape[1])
    rng = np.random.default_rng(forest.random_state)
    n_rows = features.shape[0]
    trees = []
    for _ in range(forest.n_estimators):
        bootstrap = rng.integers(0, n_rows, size=n_rows)
        tree = ReferenceTree(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=max_features,
            max_bins=forest.max_bins,
            random_state=np.random.default_rng(rng.integers(0, 2 ** 32)),
        )
        trees.append(tree.fit(features[bootstrap], labels[bootstrap]))
    return trees


def fit_tree(tree: DecisionTree, features: np.ndarray, targets: np.ndarray) -> DecisionTree:
    """Fit *tree* on every row of *features* (the forest fits bootstraps)."""

    ranks = RankCodes(features)
    return tree.fit_ranked(ranks, targets, np.arange(ranks.n_rows))


def tree_predict(tree: DecisionTree, features: np.ndarray) -> np.ndarray:
    """Class labels of a fitted tree."""

    return (tree.predict_value(features) >= 0.5).astype(int)


def decision_path(tree: DecisionTree, row: np.ndarray) -> List[Tuple[int, float, bool]]:
    """The ``(feature, threshold, went_left)`` steps one row takes, read
    node by node from the fitted arrays (the scalar twin of the product's
    all-rows-at-once ``predict_value``)."""

    row = as_feature_matrix(np.ravel(row), tree.n_features_)[0]
    path: List[Tuple[int, float, bool]] = []
    node = 0
    while tree.feature_[node] >= 0:
        feature, threshold = int(tree.feature_[node]), float(tree.threshold_[node])
        went_left = bool(row[feature] <= threshold)
        path.append((feature, threshold, went_left))
        node = int(tree.left_[node] if went_left else tree.right_[node])
    return path


def assert_same_nodes(tree: DecisionTree, expected: DecisionTree) -> None:
    """Every node array of *tree* equals *expected*'s, dtype and bytes."""

    for name in NODE_ARRAYS:
        got, want = getattr(tree, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


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


class FingerprintObjectEncoder(FingerprintEncoder):
    """:class:`~repro.ml.encoding.FingerprintEncoder` over fingerprint objects.

    The product encodes record columns (each distinct raw value grouped
    once); this twin walks fingerprint objects row by row, learning each
    categorical code book in first-seen order.  For the same rows both
    give the same matrix and code books.
    """

    def fit(self, fingerprints: Sequence[Fingerprint]) -> "FingerprintObjectEncoder":
        """Learn the categorical code books, first-seen order."""

        if not fingerprints:
            raise ValueError("cannot fit the encoder on an empty corpus")
        self._category_codes = {}
        for attribute in self.attributes:
            if attribute in _NUMERIC_ATTRIBUTES or attribute in _BOOLEAN_ATTRIBUTES:
                continue
            seen: Dict[object, int] = {}
            for fingerprint in fingerprints:
                value = fingerprint.value_for_grouping(attribute)
                if value is not None and value not in seen:
                    seen[value] = len(seen)
            self._category_codes[attribute] = seen
        self._fitted = True
        return self

    def transform(self, fingerprints: Sequence[Fingerprint]) -> np.ndarray:
        """Encode *fingerprints* with the current code books (any
        :class:`FingerprintEncoder` may be passed as ``self``)."""

        matrix = np.empty((len(fingerprints), len(self.attributes)), dtype=float)
        for row, fingerprint in enumerate(fingerprints):
            for column, attribute in enumerate(self.attributes):
                matrix[row, column] = self._encode_value(
                    attribute, fingerprint.value_for_grouping(attribute)
                )
        return matrix

    def fit_transform(self, fingerprints: Sequence[Fingerprint]) -> np.ndarray:
        return self.fit(fingerprints).transform(fingerprints)
