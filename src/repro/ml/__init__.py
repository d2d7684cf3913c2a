"""From-scratch tree learners, encoders, metrics and explainability."""

from repro.ml.encoding import (
    DEFAULT_FEATURE_ATTRIBUTES,
    DISPLAY_NAMES,
    FingerprintEncoder,
    display_name,
)
from repro.ml.explain import (
    FeatureImportance,
    gain_importance,
    permutation_importance,
    rank_importances,
    top_features,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import ConfusionMatrix, accuracy_score, confusion_matrix, train_test_split
from repro.ml.tree import DecisionTree

__all__ = [
    "ConfusionMatrix",
    "DEFAULT_FEATURE_ATTRIBUTES",
    "DISPLAY_NAMES",
    "DecisionTree",
    "FeatureImportance",
    "FingerprintEncoder",
    "RandomForestClassifier",
    "accuracy_score",
    "confusion_matrix",
    "display_name",
    "gain_importance",
    "permutation_importance",
    "rank_importances",
    "top_features",
    "train_test_split",
]
