"""Unit tests for the ML substrate (trees, ensembles, encoding, metrics)."""

import numpy as np
import pytest
from reference import ml as reference_ml
from reference.ml import ConfusionMatrix, confusion_matrix

from repro.analysis.attributes import table2
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.ml.encoding import FingerprintEncoder, display_name
from repro.ml.explain import gain_importance, permutation_importance, rank_importances, top_features
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score, train_test_split
from repro.ml.tree import DecisionTree


def _separable_dataset(n=400, seed=0):
    """Two clusters separable on feature 0; feature 1 is noise."""

    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.normal(-2.0, 0.5, n // 2), rng.normal(2.0, 0.5, n // 2)])
    x1 = rng.normal(0.0, 1.0, n)
    features = np.column_stack([x0, x1])
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    permutation = rng.permutation(n)
    return features[permutation], labels[permutation]


# -- metrics -------------------------------------------------------------------


def test_confusion_matrix_counts():
    matrix = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert matrix.true_positive == 2
    assert matrix.false_negative == 1
    assert matrix.false_positive == 1
    assert matrix.true_negative == 1
    assert matrix.total == 5


def test_confusion_matrix_rates():
    matrix = ConfusionMatrix(true_positive=8, false_positive=2, true_negative=18, false_negative=2)
    assert matrix.accuracy == pytest.approx(26 / 30)
    assert matrix.precision == pytest.approx(0.8)
    assert matrix.recall == pytest.approx(0.8)
    assert matrix.true_negative_rate == pytest.approx(0.9)
    assert matrix.false_positive_rate == pytest.approx(0.1)
    assert 0.0 < matrix.f1 <= 1.0


def test_confusion_matrix_empty():
    matrix = ConfusionMatrix(0, 0, 0, 0)
    assert matrix.accuracy == 0.0
    assert matrix.precision == 0.0
    assert matrix.f1 == 0.0


def test_accuracy_score():
    assert accuracy_score([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy_score([1, 0], [1])


def test_train_test_split_shapes(rng):
    features = np.arange(100).reshape(50, 2)
    labels = np.arange(50)
    train_x, test_x, train_y, test_y = train_test_split(features, labels, test_fraction=0.2, rng=rng)
    assert train_x.shape[0] == 40 and test_x.shape[0] == 10
    assert set(np.concatenate([train_y, test_y])) == set(labels)
    with pytest.raises(ValueError):
        train_test_split(features, labels, test_fraction=1.5, rng=rng)


# -- decision tree -----------------------------------------------------------------


def test_tree_learns_separable_data():
    features, labels = _separable_dataset()
    tree = DecisionTree(max_depth=3).fit(features, labels)
    assert accuracy_score(labels, tree.predict(features)) > 0.95
    assert tree.depth >= 1
    assert tree.node_count >= 3


def test_tree_feature_importance_identifies_signal():
    features, labels = _separable_dataset()
    tree = DecisionTree(max_depth=3).fit(features, labels)
    importances = tree.feature_importances()
    assert importances[0] > importances[1]
    assert importances.sum() == pytest.approx(1.0)


def test_tree_predict_proba_bounds():
    features, labels = _separable_dataset()
    tree = DecisionTree(max_depth=4).fit(features, labels)
    proba = tree.predict_proba(features)
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)


def test_tree_pure_node_stops_splitting():
    features = np.zeros((30, 2))
    labels = np.zeros(30)
    tree = DecisionTree(max_depth=5).fit(features, labels)
    assert tree.node_count == 1
    assert np.all(tree.predict(features) == 0)


def test_tree_validation_errors():
    with pytest.raises(ValueError):
        DecisionTree(max_depth=0)
    tree = DecisionTree()
    with pytest.raises(ValueError):
        tree.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(RuntimeError):
        tree.predict(np.zeros((1, 2)))


@pytest.mark.parametrize(
    "targets", [[0.0, 2.0, 1.0, 0.0], [0.0, 0.5, 1.0, 1.0], [0.0, np.nan, 1.0, 1.0]]
)
def test_tree_rejects_targets_outside_zero_one(targets):
    features = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="targets must be 0 or 1"):
        DecisionTree().fit(features, np.array(targets))
    with pytest.raises(ValueError, match="targets must be 0 or 1"):
        RandomForestClassifier(n_estimators=2).fit(features, np.array(targets))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_tree_rejects_non_finite_features(bad):
    # 1e308 is finite, but two of them sum past the float range, so a
    # split midpoint between them would not be.
    features = np.arange(8.0).reshape(4, 2)
    features[2, 1] = bad
    targets = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="features must be finite"):
        DecisionTree().fit(features, targets)
    with pytest.raises(ValueError, match="features must be finite"):
        RandomForestClassifier(n_estimators=2).fit(features, targets)


def test_tree_decision_path():
    features, labels = _separable_dataset()
    tree = DecisionTree(max_depth=3).fit(features, labels)
    path = tree.decision_path(features[0])
    assert path and all(len(step) == 3 for step in path)


# -- flat-array trees against a per-row reference walk ----------------------------


def _reference_leaf(tree, row):
    """Walk one row down the node arrays, one node at a time."""

    node = 0
    while tree.feature_[node] >= 0:
        if row[tree.feature_[node]] <= tree.threshold_[node]:
            node = tree.left_[node]
        else:
            node = tree.right_[node]
    return node


def _reference_proba(tree, features):
    rows = np.asarray(features, dtype=float).reshape(-1, tree.n_features_)
    return np.array([tree.value_[_reference_leaf(tree, row)] for row in rows], dtype=float)


def _reference_forest_proba(forest, features):
    total = np.zeros(np.asarray(features).reshape(-1, forest.n_features_).shape[0])
    for tree in forest.trees_:
        total += _reference_proba(tree, features)
    return total / len(forest.trees_)


def _reference_importances(tree):
    importances = np.zeros(tree.n_features_, dtype=float)
    for node in range(tree.node_count):
        if tree.feature_[node] >= 0:
            importances[tree.feature_[node]] += float(tree.gain_[node]) * int(tree.n_samples_[node])
    total = importances.sum()
    return importances / total if total > 0 else importances


def _reference_depth(tree, node=0):
    if tree.feature_[node] < 0:
        return 0
    left, right = tree.left_[node], tree.right_[node]
    return 1 + max(_reference_depth(tree, left), _reference_depth(tree, right))


def _tie_rows(tree, base_row):
    """One row per internal node whose split feature sits exactly on the threshold."""

    rows = []
    for node in np.nonzero(tree.feature_ >= 0)[0]:
        row = np.array(base_row, dtype=float)
        row[tree.feature_[node]] = tree.threshold_[node]
        rows.append(row)
    return np.array(rows).reshape(-1, tree.n_features_)


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_features = int(rng.integers(40, 400)), int(rng.integers(1, 7))
    if seed % 2:
        # Few distinct values per column: many equal values around each split.
        features = rng.integers(0, 5, size=(n_rows, n_features)).astype(float)
    else:
        features = rng.normal(size=(n_rows, n_features))
    labels = (rng.random(n_rows) < 0.35).astype(float)
    return features, labels, rng


@pytest.mark.parametrize("seed", range(8))
def test_flat_tree_matches_reference_walk(seed):
    features, labels, rng = _random_problem(seed)
    tree = DecisionTree(max_depth=int(rng.integers(1, 10)), random_state=rng).fit(features, labels)
    query = np.vstack(
        [features, rng.normal(size=(25, features.shape[1])), _tie_rows(tree, features[0])]
    )
    proba = tree.predict_proba(query)
    assert proba.tobytes() == _reference_proba(tree, query).tobytes()
    assert np.array_equal(tree.predict(query), (proba >= 0.5).astype(int))
    assert tree.feature_importances().tobytes() == _reference_importances(tree).tobytes()
    assert tree.depth == _reference_depth(tree) <= tree.max_depth
    for row in query[:: max(1, len(query) // 10)]:
        path = tree.decision_path(row)
        assert len(path) <= tree.depth
        node = 0
        for feature, threshold, went_left in path:
            assert (feature, threshold) == (tree.feature_[node], tree.threshold_[node])
            node = tree.left_[node] if went_left else tree.right_[node]
        assert node == _reference_leaf(tree, row)


def test_flat_tree_threshold_ties_go_left():
    features = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTree(max_depth=1).fit(features, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.node_count == 3 and tree.threshold_[0] == 1.5
    tie = np.array([[1.5]])
    assert tree.predict(tie)[0] == 0
    assert tree.decision_path(tie[0]) == [(0, 1.5, True)]
    assert tree.predict_proba(tie).tobytes() == _reference_proba(tree, tie).tobytes()


def test_flat_tree_single_leaf():
    features = np.random.default_rng(3).normal(size=(20, 3))
    tree = DecisionTree(max_depth=4).fit(features, np.ones(20))
    assert tree.node_count == 1 and tree.depth == 0
    assert np.array_equal(tree.predict_proba(features), np.ones(20))
    assert np.array_equal(tree.feature_importances(), np.zeros(3))
    assert tree.decision_path(features[0]) == []


def test_flat_tree_one_dimensional_and_empty_inputs():
    features, labels = _separable_dataset(200)
    tree = DecisionTree(max_depth=4).fit(features, labels)
    single = tree.predict_proba(features[7])
    assert single.shape == (1,)
    assert single.tobytes() == _reference_proba(tree, features[7:8]).tobytes()
    empty = tree.predict_proba(np.zeros((0, 2)))
    assert empty.shape == (0,) and empty.dtype == float
    assert tree.predict(np.zeros((0, 2))).shape == (0,)


@pytest.mark.parametrize("width", [1, 3])
def test_wrong_input_width_is_rejected(width):
    features, labels = _separable_dataset(200)
    tree = DecisionTree(max_depth=3).fit(features, labels)
    forest = RandomForestClassifier(n_estimators=3, max_depth=3).fit(features, labels)
    wrong = np.zeros((4, width))
    for call in (
        tree.predict,
        tree.predict_proba,
        tree.predict_value,
        forest.predict,
        forest.predict_proba,
    ):
        with pytest.raises(ValueError, match="feature columns"):
            call(wrong)
    with pytest.raises(ValueError, match="feature columns"):
        tree.decision_path(wrong[0])


@pytest.mark.parametrize("seed", range(4))
def test_forest_proba_matches_reference_walk(seed):
    features, labels, rng = _random_problem(seed)
    forest = RandomForestClassifier(n_estimators=6, max_depth=8, random_state=seed)
    forest.fit(features, labels)
    query = np.vstack([features, rng.normal(size=(25, features.shape[1]))])
    proba = forest.predict_proba(query)
    assert proba.tobytes() == _reference_forest_proba(forest, query).tobytes()
    assert np.array_equal(forest.predict(query), (proba >= 0.5).astype(int))
    assert forest.predict_proba(query[0]).tobytes() == proba[:1].tobytes()


def test_table2_forests_match_the_per_candidate_reference(small_corpora, monkeypatch):
    # Both Table 2 forests, fitted on one shared RankCodes of the seed-11
    # training matrix, grow every tree the per-candidate search grows.
    fitted = []
    fit = RandomForestClassifier.fit

    def record(forest, features, labels, **options):
        fitted.append((forest, np.array(features), np.array(labels)))
        return fit(forest, features, labels, **options)

    monkeypatch.setattr(RandomForestClassifier, "fit", record)
    table2(small_corpora(11).bot_store)
    assert len(fitted) == 2
    for forest, features, labels in fitted:
        expected = reference_ml.fit_forest(forest, features, labels)
        assert len(forest.trees_) == len(expected) == forest.n_estimators
        for tree, reference_tree in zip(forest.trees_, expected):
            reference_ml.assert_same_nodes(tree, reference_tree)


# -- ensembles --------------------------------------------------------------------


def test_random_forest_accuracy_and_importance():
    features, labels = _separable_dataset(600)
    forest = RandomForestClassifier(n_estimators=8, max_depth=4, random_state=1).fit(features, labels)
    assert accuracy_score(labels, forest.predict(features)) > 0.95
    importances = forest.feature_importances()
    assert importances[0] > importances[1]


def test_random_forest_proba_bounds():
    features, labels = _separable_dataset(200)
    forest = RandomForestClassifier(n_estimators=5, max_depth=3).fit(features, labels)
    proba = forest.predict_proba(features)
    assert np.all((proba >= 0.0) & (proba <= 1.0))


def test_random_forest_unfitted_raises():
    with pytest.raises(RuntimeError):
        RandomForestClassifier().predict(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        RandomForestClassifier(n_estimators=0)


# -- explainability ----------------------------------------------------------------------


def test_rank_importances_sorted():
    ranked = rank_importances(["a", "b", "c"], [0.1, 0.7, 0.2])
    assert [item.feature for item in ranked] == ["b", "c", "a"]
    assert top_features(ranked, 2) == ["b", "c"]
    with pytest.raises(ValueError):
        rank_importances(["a"], [0.1, 0.2])


def test_permutation_importance_finds_signal_feature():
    features, labels = _separable_dataset(400)
    forest = RandomForestClassifier(n_estimators=6, max_depth=4).fit(features, labels)
    ranked = permutation_importance(
        forest, features, labels, ["signal", "noise"], rng=np.random.default_rng(0)
    )
    assert ranked[0].feature == "signal"


def test_gain_importance_names_match():
    features, labels = _separable_dataset(200)
    forest = RandomForestClassifier(n_estimators=4, max_depth=3).fit(features, labels)
    ranked = gain_importance(forest, ["signal", "noise"])
    assert {item.feature for item in ranked} == {"signal", "noise"}


# -- encoding -------------------------------------------------------------------------------


def _fingerprints():
    return [
        Fingerprint(
            {
                Attribute.UA_DEVICE: "iPhone",
                Attribute.VENDOR: "Apple Computer, Inc.",
                Attribute.HARDWARE_CONCURRENCY: 4,
                Attribute.FORCED_COLORS: False,
                Attribute.SCREEN_RESOLUTION: (390, 844),
                Attribute.PLUGINS: (),
            }
        ),
        Fingerprint(
            {
                Attribute.UA_DEVICE: "Windows PC",
                Attribute.VENDOR: "Google Inc.",
                Attribute.HARDWARE_CONCURRENCY: 16,
                Attribute.FORCED_COLORS: True,
                Attribute.SCREEN_RESOLUTION: (1920, 1080),
                Attribute.PLUGINS: ("Chrome PDF Viewer",),
            }
        ),
    ]


def test_encoder_shape_and_names():
    encoder = FingerprintEncoder()
    matrix = encoder.fit_transform(_fingerprints())
    assert matrix.shape == (2, len(encoder.attributes))
    assert "Hardware Concurrency" in encoder.feature_names


def test_encoder_numeric_and_boolean_passthrough():
    encoder = FingerprintEncoder(attributes=(Attribute.HARDWARE_CONCURRENCY, Attribute.FORCED_COLORS))
    matrix = encoder.fit_transform(_fingerprints())
    assert matrix[0, 0] == 4 and matrix[1, 0] == 16
    assert matrix[0, 1] == 0.0 and matrix[1, 1] == 1.0


def test_encoder_categorical_codes_stable():
    encoder = FingerprintEncoder(attributes=(Attribute.UA_DEVICE,))
    matrix = encoder.fit_transform(_fingerprints())
    assert matrix[0, 0] != matrix[1, 0]
    codes = encoder.categories_of(Attribute.UA_DEVICE)
    assert set(codes) == {"iPhone", "Windows PC"}


def test_encoder_unseen_category_is_minus_one():
    encoder = FingerprintEncoder(attributes=(Attribute.UA_DEVICE,))
    encoder.fit(_fingerprints())
    unseen = Fingerprint({Attribute.UA_DEVICE: "Mac"})
    assert encoder.transform([unseen])[0, 0] == -1.0


def test_encoder_requires_fit():
    encoder = FingerprintEncoder()
    with pytest.raises(RuntimeError):
        encoder.transform(_fingerprints())
    with pytest.raises(ValueError):
        encoder.fit([])


def test_display_name_known_and_fallback():
    assert display_name(Attribute.VENDOR_FLAVORS) == "Vendor Flavors"
    assert display_name(Attribute.CANVAS) == "Canvas"
