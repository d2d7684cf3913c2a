"""Histogram-based CART decision trees.

The paper trains XGBoost random-forest classifiers to separate detected
from evasive requests (Section 5.2.1).  Neither XGBoost nor scikit-learn is
available offline, so this module implements a compact, vectorised CART
learner on numpy.  Splits are found on binned features (the same trick
XGBoost's ``hist`` method uses), which keeps training on hundreds of
thousands of rows fast while preserving the quantities the paper consumes:
accuracy and per-feature split gains.

A fitted tree is a set of parallel node arrays, so prediction moves every
row down one level per vector step instead of walking rows one by one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

_EPS = 1e-12


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


def as_feature_matrix(features: np.ndarray, n_features: int) -> np.ndarray:
    """*features* as an ``(n, n_features)`` float matrix; a 1-D input is one row.

    Raises ``ValueError`` when the width is not the *n_features* the model
    was fitted on.
    """

    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    if features.ndim != 2 or features.shape[1] != n_features:
        raise ValueError(
            f"expected {n_features} feature columns, got input of shape {features.shape}"
        )
    return features


class DecisionTree:
    """Gini CART tree for binary classification.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    min_samples_split:
        Minimum number of rows required to attempt a split.
    min_samples_leaf:
        Minimum number of rows in each child for a split to be accepted.
    max_features:
        Number of features examined per split (``None`` → all).  Random
        forests pass ``sqrt(n_features)``.
    max_bins:
        Maximum number of candidate thresholds per feature.

    The fitted tree is held in parallel arrays indexed by node id (root 0,
    pre-order): ``feature_`` (``-1`` marks a leaf), ``threshold_``,
    ``left_``, ``right_``, ``value_`` (class-1 share of the node's weight),
    ``n_samples_`` and ``gain_``.
    """

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        max_bins: int = 32,
        random_state: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.max_bins = max_bins
        self._rng = random_state if random_state is not None else np.random.default_rng(0)
        self.n_features_: int = 0
        self.feature_ = np.empty(0, dtype=np.int64)
        self.threshold_ = np.empty(0, dtype=float)
        self.left_ = np.empty(0, dtype=np.int64)
        self.right_ = np.empty(0, dtype=np.int64)
        self.value_ = np.empty(0, dtype=float)
        self.n_samples_ = np.empty(0, dtype=np.int64)
        self.gain_ = np.empty(0, dtype=float)

    # -- fitting ------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> "DecisionTree":
        """Fit the tree on *features* (n × d) and binary *targets* (n,)."""

        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same number of rows")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero rows")
        if sample_weight is None:
            sample_weight = np.ones(features.shape[0], dtype=float)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
        self.n_features_ = features.shape[1]
        # One [feature, threshold, left, right, value, n_samples, gain] row
        # per node while growing; transposed into the node arrays after.
        nodes: List[list] = []
        self._grow(features, targets, sample_weight, np.arange(features.shape[0]), 0, nodes)
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
            # Vectorised evaluation: for every threshold compute the weighted
            # impurity of both children using cumulative sums over sorted rows.
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

    # -- prediction --------------------------------------------------------

    def _check_fitted(self) -> None:
        if not self.value_.size:
            raise RuntimeError("tree has not been fitted")

    def predict_value(self, features: np.ndarray) -> np.ndarray:
        """Leaf value (class-1 probability) per row.

        All rows descend together: each step moves every row that still
        sits on an internal node to its child, so a fit of depth ``d``
        costs ``d`` vector steps however many rows there are.
        """

        self._check_fitted()
        features = as_feature_matrix(features, self.n_features_)
        node = np.zeros(features.shape[0], dtype=np.int64)
        active = np.nonzero(self.feature_[node] >= 0)[0]
        while active.size:
            at = node[active]
            went_left = features[active, self.feature_[at]] <= self.threshold_[at]
            at = np.where(went_left, self.left_[at], self.right_[at])
            node[active] = at
            active = active[self.feature_[at] >= 0]
        return self.value_[node]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-1 probability per row."""

        return self.predict_value(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""

        return (self.predict_value(features) >= 0.5).astype(int)

    # -- introspection --------------------------------------------------------

    @property
    def node_count(self) -> int:
        return int(self.value_.size)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        self._check_fitted()
        depth = 0
        level = np.zeros(1, dtype=np.int64)
        while True:
            level = level[self.feature_[level] >= 0]
            if not level.size:
                return depth
            depth += 1
            level = np.concatenate([self.left_[level], self.right_[level]])

    def feature_importances(self) -> np.ndarray:
        """Total split gain per feature, normalised to sum to one."""

        self._check_fitted()
        internal = self.feature_ >= 0
        # bincount adds in node order, the same float sums as a node loop.
        importances = np.bincount(
            self.feature_[internal],
            weights=self.gain_[internal] * self.n_samples_[internal],
            minlength=self.n_features_,
        )
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    def decision_path(self, row: np.ndarray) -> List[Tuple[int, float, bool]]:
        """Return the (feature, threshold, went_left) path for one row."""

        self._check_fitted()
        row = as_feature_matrix(np.ravel(row), self.n_features_)[0]
        path: List[Tuple[int, float, bool]] = []
        node = 0
        while self.feature_[node] >= 0:
            feature, threshold = int(self.feature_[node]), float(self.threshold_[node])
            went_left = bool(row[feature] <= threshold)
            path.append((feature, threshold, went_left))
            node = int(self.left_[node] if went_left else self.right_[node])
        return path
