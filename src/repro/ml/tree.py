"""Histogram-based CART decision trees.

The paper trains XGBoost random-forest classifiers to separate detected
from evasive requests (Section 5.2.1).  Neither XGBoost nor scikit-learn is
available offline, so this module implements a compact, vectorised CART
learner on numpy.  Splits are found on binned features (the same trick
XGBoost's ``hist`` method uses), which keeps training on hundreds of
thousands of rows fast while preserving the quantities the paper consumes:
accuracy and per-feature split gains.

Split search runs on rank codes.  :class:`RankCodes` is built once per
forest: each feature column's sorted distinct values and every row's rank
in them, offset per column so one int32 array holds all columns (a
standalone :meth:`DecisionTree.fit` builds its own).  At a node, one
``np.bincount`` of the node rows' codes over the drawn candidate features
gives each present value's row and positive counts; every candidate's
thresholds (midpoints of adjacent present values, or quantiles of the
node's values above ``max_bins`` present values), child counts and gains
then come out of one vectorised pass.  Targets are 0/1, so every count is
an exact integer and each gain is the float a per-feature sort and
``cumsum`` would give.

A fitted tree is a set of parallel node arrays, so prediction moves every
row down one level per vector step instead of walking rows one by one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

_EPS = 1e-12
#: Largest feature magnitude accepted: the midpoint sum of two features
#: stays finite.
_MAX_FEATURE = np.finfo(float).max / 2


def _gini(mean):
    """Gini impurity of a node whose class-1 share is *mean*."""

    return 2.0 * mean * (1.0 - mean)


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


class RankCodes:
    """Per-column sorted distinct values and per-row rank codes of a
    feature matrix, built once and shared by every tree fitted on it.

    ``values`` concatenates the columns' sorted distinct values; column
    ``j`` owns ``values[offsets[j]:offsets[j + 1]]`` and ``codes[j, i]`` is
    the index into ``values`` of row ``i``'s value.  Raises ``ValueError``
    for an empty or non-2-D matrix and for a non-finite feature.
    """

    def __init__(self, features: np.ndarray):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero rows")
        if not np.all(np.abs(features) <= _MAX_FEATURE):
            raise ValueError(f"features must be finite and within ±{_MAX_FEATURE:.3g}")
        columns = [np.unique(column, return_inverse=True) for column in features.T]
        sizes = [distinct.size for distinct, _inverse in columns]
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self.values = np.concatenate([distinct for distinct, _inverse in columns] or [np.empty(0)])
        # int32 codes are half a float copy; fitting stores 2 * code + target.
        dtype = np.int32 if 2 * self.offsets[-1] < np.iinfo(np.int32).max else np.int64
        self.codes = np.empty(features.shape[::-1], dtype=dtype)
        for j, (_distinct, inverse) in enumerate(columns):
            self.codes[j] = inverse + self.offsets[j]
        # (column, slot) → index into ``values``, slots past a column's
        # distinct values pointing at an always-empty bin after the last.
        slots = np.arange(max(sizes, default=0))
        self.grid = np.where(
            slots < np.array(sizes)[:, None], self.offsets[:-1, None] + slots, self.offsets[-1]
        )
        self.grid_values = np.concatenate((self.values, [0.0]))[self.grid]
        self.features = features
        self.n_rows, self.n_features = features.shape
        # -0.0 == 0.0 share one code; np.quantile over such a column can
        # return either zero, so those columns take quantiles of the rows.
        zeros = [np.signbit(column[column == 0.0]) for column in features.T]
        self.mixed_zeros = np.array([sign.any() and not sign.all() for sign in zeros], dtype=bool)


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
    ``left_``, ``right_``, ``value_`` (class-1 share of the node's rows),
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
        self._quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        self.n_features_: int = 0
        self.feature_ = np.empty(0, dtype=np.int64)
        self.threshold_ = np.empty(0, dtype=float)
        self.left_ = np.empty(0, dtype=np.int64)
        self.right_ = np.empty(0, dtype=np.int64)
        self.value_ = np.empty(0, dtype=float)
        self.n_samples_ = np.empty(0, dtype=np.int64)
        self.gain_ = np.empty(0, dtype=float)

    # -- fitting ------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTree":
        """Fit the tree on finite *features* (n × d) and 0/1 *targets* (n,)."""

        ranks = RankCodes(features)
        return self.fit_ranked(ranks, targets, np.arange(ranks.n_rows))

    def fit_ranked(self, ranks: RankCodes, targets: np.ndarray, rows: np.ndarray) -> "DecisionTree":
        """Fit on the rows *rows* (repeats allowed, e.g. a bootstrap) of the
        matrix behind *ranks*, with one 0/1 target per matrix row.

        Raises ``ValueError`` for another target count or a target outside
        {0, 1}: split statistics count positives exactly.
        """

        targets = np.asarray(targets, dtype=float)
        if targets.shape != (ranks.n_rows,):
            raise ValueError("features and targets must have the same number of rows")
        if not np.all((targets == 0.0) | (targets == 1.0)):
            raise ValueError("targets must be 0 or 1")
        self.n_features_ = ranks.n_features
        # 2 * code + target: one bincount of a node's labelled codes counts
        # its rows and positives per value.
        labelled = ranks.codes * 2 + targets.astype(np.int8)
        positives = int(np.count_nonzero(targets[rows]))
        # One [feature, threshold, left, right, value, n_samples, gain] row
        # per node while growing; transposed into the node arrays after.
        nodes: List[list] = []
        self._grow(ranks, labelled, rows, positives, 0, nodes)
        feature, threshold, left, right, value, n_samples, gain = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.value_ = np.array(value, dtype=float)
        self.n_samples_ = np.array(n_samples, dtype=np.int64)
        self.gain_ = np.array(gain, dtype=float)
        return self

    def _grow(
        self,
        ranks: RankCodes,
        labelled: np.ndarray,
        rows: np.ndarray,
        positives: int,
        depth: int,
        nodes: List[list],
    ) -> int:
        node_id = len(nodes)
        value = positives / rows.size
        node = [-1, 0.0, -1, -1, value, rows.size, 0.0]
        nodes.append(node)

        if depth >= self.max_depth or rows.size < self.min_samples_split:
            return node_id
        impurity = _gini(value)
        if impurity <= _EPS:
            return node_id

        best = self._best_split(ranks, labelled, rows, positives, impurity)
        if best is None:
            return node_id
        feature, threshold, gain, went_left, left_positives = best
        node[0], node[1], node[6] = feature, threshold, gain
        node[2] = self._grow(ranks, labelled, rows[went_left], left_positives, depth + 1, nodes)
        node[3] = self._grow(
            ranks, labelled, rows[~went_left], positives - left_positives, depth + 1, nodes
        )
        return node_id

    def _best_split(
        self,
        ranks: RankCodes,
        labelled: np.ndarray,
        rows: np.ndarray,
        positives: int,
        parent_impurity: float,
    ) -> Optional[Tuple[int, float, float, np.ndarray, int]]:
        """The best (feature, threshold, gain, left-row mask, left positives)
        over the drawn candidates, or ``None`` when no split gains.

        The winner is the first maximum gain in draw order, then in
        threshold order within its feature.
        """

        n_features = ranks.n_features
        if self.max_features is not None and self.max_features < n_features:
            candidates = self._rng.choice(n_features, size=self.max_features, replace=False)
        else:
            candidates = np.arange(n_features)
        node_codes = labelled.take(candidates, axis=0).take(rows, axis=1)
        counts = np.bincount(node_codes.ravel(), minlength=2 * ranks.offsets[-1] + 2)
        # (candidate in draw order, value slot, negative/positive) counts.
        by_value = counts.reshape(-1, 2).take(ranks.grid.take(candidates, axis=0), axis=0)
        bin_rows = by_value[:, :, 0] + by_value[:, :, 1]
        present = bin_rows.ravel().nonzero()[0]
        width = ranks.grid.shape[1]
        segment = present // width
        values = ranks.grid_values.take(candidates, axis=0).ravel()[present]
        at_or_below = by_value.cumsum(axis=1).reshape(-1, 2)[present].astype(float)
        left_rows = at_or_below[:, 0] + at_or_below[:, 1]
        left_positives = at_or_below[:, 1]

        # Midpoints of adjacent present values; a midpoint that rounds up
        # onto the upper value sends that value left too.  ``at`` is the
        # last present value each threshold sends left.
        pair = segment[1:] == segment[:-1]
        by_quantile = np.bincount(segment, minlength=candidates.size) > self.max_bins
        quantile_ranks = by_quantile.nonzero()[0]
        if quantile_ranks.size:
            pair &= ~by_quantile[segment[1:]]
        lower = pair.nonzero()[0]
        upper = values[lower + 1]
        thresholds = (values[lower] + upper) / 2.0
        at = lower + (thresholds >= upper)
        split_segment = segment[lower]
        if quantile_ranks.size:
            parts = [(thresholds, at, split_segment)]
            for rank in quantile_ranks:
                lo, hi = np.searchsorted(segment, [rank, rank + 1])
                feature = candidates[rank]
                if ranks.mixed_zeros[feature]:
                    sample = ranks.features[rows, feature]
                else:
                    sample = np.repeat(values[lo:hi], bin_rows.ravel()[present[lo:hi]])
                edges = np.unique(np.quantile(sample, self._quantiles))
                edge_at = np.searchsorted(values[lo:hi], edges, side="right") + lo - 1
                keep = edge_at >= lo  # an edge below every value sends no row left
                parts.append((edges[keep], edge_at[keep], np.full(np.count_nonzero(keep), rank)))
            thresholds, at, split_segment = (np.concatenate(part) for part in zip(*parts))
            order = np.argsort(split_segment, kind="stable")
            thresholds, at, split_segment = thresholds[order], at[order], split_segment[order]

        n_rows = rows.size
        split_rows = left_rows[at]
        valid = (
            (split_rows >= self.min_samples_leaf) & (split_rows <= n_rows - self.min_samples_leaf)
        ).nonzero()[0]
        if not valid.size:
            return None
        left_weight, left_sum = split_rows[valid], left_positives[at[valid]]
        right_weight, right_sum = n_rows - left_weight, positives - left_sum
        gains = parent_impurity - (
            left_weight * _gini(left_sum / left_weight)
            + right_weight * _gini(right_sum / right_weight)
        ) / n_rows
        top = int(np.argmax(gains))
        if not gains[top] > _EPS:
            return None
        best = valid[top]
        rank = split_segment[best]
        feature = int(candidates[rank])
        # Rows whose rank code is at or below the winner's last left value.
        cut = ranks.offsets[feature] + present[at[best]] % width + 1
        went_left = node_codes[rank] < 2 * cut
        return feature, float(thresholds[best]), float(gains[top]), went_left, int(left_sum[top])

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
