"""Random-forest ensemble.

The paper trains "random forest classifiers using XGBoost"; this module
bags :class:`repro.ml.tree.DecisionTree` learners into that ensemble for
the Section 5.2 analysis.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.ml.tree import DecisionTree, RankCodes, as_feature_matrix


class RandomForestClassifier:
    """Bagged ensemble of gini CART trees with feature subsampling."""

    def __init__(
        self,
        *,
        n_estimators: int = 30,
        max_depth: int = 10,
        min_samples_leaf: int = 2,
        max_features: str = "sqrt",
        max_bins: int = 32,
        random_state: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.random_state = random_state
        self.trees_: List[DecisionTree] = []
        self.n_features_: int = 0

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all" or self.max_features is None:
            return None
        if isinstance(self.max_features, int):
            return max(1, min(n_features, self.max_features))
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def fit(
        self, features: np.ndarray, labels: np.ndarray, *, ranks: Optional[RankCodes] = None
    ) -> "RandomForestClassifier":
        """Fit the forest on binary labels (0 = detected, 1 = evaded).

        Every tree searches splits on one :class:`RankCodes` of *features*;
        a caller fitting several forests on one matrix builds it once and
        passes it as *ranks* (*features* is then not read).
        """

        ranks = ranks if ranks is not None else RankCodes(features)
        self.n_features_ = ranks.n_features
        max_features = self._resolve_max_features(self.n_features_)
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        n_rows = ranks.n_rows
        for _ in range(self.n_estimators):
            bootstrap = rng.integers(0, n_rows, size=n_rows)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                max_bins=self.max_bins,
                random_state=np.random.default_rng(rng.integers(0, 2 ** 32)),
            )
            tree.fit_ranked(ranks, labels, bootstrap)
            self.trees_.append(tree)
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("forest has not been fitted")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Mean class-1 probability across trees."""

        self._check_fitted()
        features = as_feature_matrix(features, self.n_features_)
        probabilities = np.zeros(features.shape[0], dtype=float)
        for tree in self.trees_:
            probabilities += tree.predict_proba(features)
        return probabilities / len(self.trees_)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted binary labels."""

        return (self.predict_proba(features) >= 0.5).astype(int)

    def feature_importances(self) -> np.ndarray:
        """Mean normalised split-gain importance across trees."""

        self._check_fitted()
        importances = np.zeros(self.n_features_, dtype=float)
        for tree in self.trees_:
            importances += tree.feature_importances()
        importances /= len(self.trees_)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances
