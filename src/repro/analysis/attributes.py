"""Attribute-importance analysis (Section 5.2, Table 2, Appendix C).

Trains one classifier per anti-bot service to distinguish requests the
service detected from requests that evaded it, reports the accuracies the
paper quotes, and ranks the fingerprint attributes that drive evasion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fingerprint.attributes import Attribute
from repro.honeysite.storage import RecordColumns, RequestStore
from repro.ml.encoding import FingerprintEncoder
from repro.ml.explain import FeatureImportance, gain_importance, permutation_importance, top_features
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score, train_test_split
from repro.ml.tree import RankCodes


@dataclass
class EvasionClassifierResult:
    """Outcome of training one evasion classifier (one column of Table 2)."""

    detector: str
    train_accuracy: float
    test_accuracy: float
    importances: List[FeatureImportance]
    feature_names: List[str]
    #: rows the forest was scored on for ``test_accuracy``
    test_rows: int
    #: held-out permutation importances; ``None`` unless requested
    permutation: Optional[List[FeatureImportance]] = None

    def top_attributes(self, count: int = 5) -> List[str]:
        """The Table 2 column: most important attributes for evading the service."""

        return top_features(self.importances, count)


def train_evasion_classifiers(
    store: RequestStore,
    detectors: Sequence[str],
    *,
    max_samples: int = 60_000,
    seed: int = 0,
    **options,
) -> Dict[str, EvasionClassifierResult]:
    """Detected-vs-evaded random forests (Section 5.2.1), one per detector,
    trained on one sample, encoding and split.

    A store larger than *max_samples* is subsampled uniformly at random
    without replacement (one ``rng.choice`` draw seeded by *seed*), not
    stratified by label.  The draw and the split depend on the row count
    and *seed*, never on the labels, so each result equals a call for its
    detector alone.  The sampled rows stay columns (labels come from the
    evasion columns); no record or fingerprint object is built.

    *options* go to the fit: ``test_fraction`` (default 0.1), ``encoder``
    and ``permutation``, which also computes held-out permutation
    importances (``n_features × 3`` extra predict passes).  Table 2 ranks
    by gain importance alone, so that is off unless a caller asks for it.
    """

    if len(store) < 20:
        raise ValueError("need at least 20 requests to train a classifier")
    rng = np.random.default_rng(seed)
    columns = store.columns
    if columns.n_rows > max_samples:
        chosen = rng.choice(columns.n_rows, size=max_samples, replace=False).astype(np.int64)
    else:
        chosen = np.arange(columns.n_rows, dtype=np.int64)
    labels = np.column_stack([columns.evaded_rows(name)[chosen] for name in detectors])
    return _fit_evasion_classifiers(
        detectors, columns.take(chosen), labels.astype(float), rng, seed=seed, **options
    )


def _fit_evasion_classifiers(
    detectors: Sequence[str],
    rows: RecordColumns,
    labels: np.ndarray,
    rng,
    *,
    seed: int,
    encoder: Optional[FingerprintEncoder] = None,
    test_fraction: float = 0.1,
    permutation: bool = False,
) -> Dict[str, EvasionClassifierResult]:
    """Encode the sampled *rows* with *encoder* (default
    :class:`~repro.ml.encoding.FingerprintEncoder`), split, fit one forest
    per detector (label column of *labels*), rank the features.

    *rng* continues the generator that drew the sample, so the train/test
    split depends only on the sample, not on how its rows are represented.
    The forests share one :class:`~repro.ml.tree.RankCodes` of the training
    matrix.
    """

    encoder = encoder if encoder is not None else FingerprintEncoder()
    features = encoder.fit_transform(rows)
    train_x, test_x, train_y, test_y = train_test_split(
        features, labels, test_fraction=test_fraction, rng=rng
    )
    ranks = RankCodes(train_x)
    feature_names = encoder.feature_names
    results = {}
    for detector, train_labels, test_labels in zip(detectors, train_y.T, test_y.T):
        classifier = RandomForestClassifier(n_estimators=15, max_depth=10, random_state=seed)
        classifier.fit(train_x, train_labels, ranks=ranks)
        results[detector] = EvasionClassifierResult(
            detector=detector,
            train_accuracy=accuracy_score(train_labels, classifier.predict(train_x)),
            test_accuracy=accuracy_score(test_labels, classifier.predict(test_x)),
            importances=gain_importance(classifier, feature_names),
            feature_names=feature_names,
            test_rows=int(test_labels.size),
            permutation=(
                permutation_importance(
                    classifier, test_x, test_labels, feature_names, rng=np.random.default_rng(seed)
                )
                if permutation
                else None
            ),
        )
    return results


def table2(
    store: RequestStore, *, max_samples: int = 40_000, seed: int = 0
) -> Dict[str, EvasionClassifierResult]:
    """Table 2: one evasion classifier per service, DataDome then BotD.

    Each result's :meth:`~EvasionClassifierResult.top_attributes` is the
    service's column; its ``test_accuracy`` is the accuracy §5.2 quotes.
    Both forests train on one sample, encoding and split (see
    :func:`train_evasion_classifiers`).
    """

    return train_evasion_classifiers(
        store, ("DataDome", "BotD"), max_samples=max_samples, seed=seed
    )


@dataclass(frozen=True)
class CombinationRuleResult:
    """Appendix C: the DataDome-evading attribute combination."""

    matching_requests: int
    matching_datadome_evasion: float
    overall_datadome_evasion: float


def appendix_c_combination(store: RequestStore) -> CombinationRuleResult:
    """Evaluate the Appendix C combination rule on the corpus.

    The paper's decision-tree analysis found that requests with a screen
    frame below 20, no Chrome PDF Viewer plugin, more than 256 MB of
    memory, fewer than 14 cores and a monospace width above 131.5 were able
    to evade DataDome.  Each conjunct is one per-distinct-value predicate
    gathered to a row mask.
    """

    columns = store.columns
    matches = np.ones(columns.n_rows, dtype=bool)
    for attribute, predicate in (
        (Attribute.SCREEN_FRAME, lambda value: value is not None and value < 20),
        (Attribute.PLUGINS, lambda value: "Chrome PDF Viewer" not in (value or ())),
        (Attribute.DEVICE_MEMORY, lambda value: value is not None and value > 0.25),
        (Attribute.HARDWARE_CONCURRENCY, lambda value: value is not None and value < 14),
        (Attribute.MONOSPACE_WIDTH, lambda value: value is not None and value > 131.5),
    ):
        rows, values = columns.attribute_rows(attribute)
        flags = np.fromiter(
            (bool(predicate(value)) for value in values),
            dtype=bool,
            count=len(values),
        )
        valid = rows >= 0
        row_flags = np.zeros(columns.n_rows, dtype=bool)
        row_flags[valid] = flags[rows[valid]]
        if predicate(None):
            row_flags[~valid] = True
        matches &= row_flags
    matching = int(np.count_nonzero(matches))
    matching_evaded = int(np.count_nonzero(matches & columns.evaded_rows("DataDome")))
    return CombinationRuleResult(
        matching_requests=matching,
        matching_datadome_evasion=(matching_evaded / matching) if matching else 0.0,
        overall_datadome_evasion=store.evasion_rate("DataDome"),
    )
