"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import detection as reference
from reference.detection import ObjectTemporalDetector
from reference.fingerprint import differing_attributes, fingerprint_dict, stable_hash, without
from reference.ml import ReferenceTree, assert_same_nodes, confusion_matrix, fit_tree
from reference.store import RequestStore
from test_columnar import _extract, _random_store

from repro.core.columnar import ColumnarTable
from repro.core.rules import FilterList, InconsistencyRule
from repro.core.spatial import SpatialInconsistencyMiner, SpatialMinerConfig
from repro.core.temporal import TemporalStreamState
from repro.fingerprint.attributes import Attribute, format_resolution, parse_resolution
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.ml.metrics import accuracy_score
from repro.ml.tree import DecisionTree
from repro.network.headers import accept_language_for
from repro.reporting.tables import format_percent, format_table
from repro.stream.checkpoint import StreamCheckpointer

# -- strategies --------------------------------------------------------------------

_resolutions = st.tuples(st.integers(1, 8000), st.integers(1, 8000))

_attribute_values = st.fixed_dictionaries(
    {},
    optional={
        Attribute.UA_DEVICE: st.sampled_from(["iPhone", "iPad", "Mac", "Windows PC", "SM-A515F"]),
        Attribute.PLATFORM: st.sampled_from(["Win32", "MacIntel", "iPhone", "Linux x86_64", "Linux armv8l"]),
        Attribute.HARDWARE_CONCURRENCY: st.integers(1, 64),
        Attribute.DEVICE_MEMORY: st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
        Attribute.SCREEN_RESOLUTION: _resolutions,
        Attribute.TOUCH_SUPPORT: st.sampled_from(["None", "touchEvent/touchStart"]),
        Attribute.MAX_TOUCH_POINTS: st.integers(0, 10),
        Attribute.WEBDRIVER: st.booleans(),
        Attribute.PLUGINS: st.lists(
            st.sampled_from(["PDF Viewer", "Chrome PDF Viewer", "WebKit built-in PDF"]),
            max_size=3,
            unique=True,
        ).map(tuple),
        Attribute.TIMEZONE: st.sampled_from(["America/Los_Angeles", "Europe/Paris", "Asia/Shanghai", "UTC"]),
    },
)

_fingerprints = _attribute_values.map(Fingerprint)


def fingerprint_distance(left, right) -> int:
    return len(differing_attributes(left, right))


# -- Fingerprint invariants -----------------------------------------------------------


@given(_fingerprints)
def test_fingerprint_round_trip(fingerprint):
    rebuilt = Fingerprint(fingerprint_dict(fingerprint))
    assert rebuilt == fingerprint
    assert stable_hash(rebuilt) == stable_hash(fingerprint)


@given(_fingerprints)
def test_fingerprint_distance_to_self_is_zero(fingerprint):
    assert fingerprint_distance(fingerprint, fingerprint) == 0


@given(_fingerprints, _fingerprints)
def test_fingerprint_distance_is_symmetric(left, right):
    assert fingerprint_distance(left, right) == fingerprint_distance(right, left)


@given(_fingerprints, st.integers(1, 64))
def test_fingerprint_replace_changes_one_attribute(fingerprint, cores):
    altered = fingerprint.replace(hardware_concurrency=cores)
    assert altered[Attribute.HARDWARE_CONCURRENCY] == cores
    assert fingerprint_distance(fingerprint, altered) <= 1


@given(_resolutions)
def test_resolution_format_parse_round_trip(resolution):
    assert parse_resolution(format_resolution(resolution)) == resolution


# -- filter-list invariants --------------------------------------------------------------


_rules = st.builds(
    InconsistencyRule,
    category=st.sampled_from(list(AttributeCategory)),
    attribute_a=st.sampled_from([Attribute.UA_DEVICE, Attribute.PLATFORM, Attribute.UA_BROWSER]),
    value_a=st.sampled_from(["iPhone", "Win32", "Mobile Safari", "Mac"]),
    attribute_b=st.sampled_from([Attribute.SCREEN_RESOLUTION, Attribute.VENDOR, Attribute.MAX_TOUCH_POINTS]),
    value_b=st.sampled_from(["1920x1080", "Google Inc.", 0, 10]),
    support=st.integers(0, 1000),
)


@given(st.lists(_rules, max_size=30))
def test_filter_list_deduplicates_by_key(rules):
    filter_list = FilterList(rules)
    assert len(filter_list) == len({rule.key for rule in rules})


@given(st.lists(_rules, max_size=20), _fingerprints)
def test_filter_list_matches_agrees_with_any_rule(rules, fingerprint):
    filter_list = FilterList(rules)
    expected = any(reference.rule_matches(rule, fingerprint) for rule in rules)
    assert (filter_list.first_match(fingerprint) is not None) == expected


@given(_rules)
def test_rule_serialisation_round_trip(rule):
    assert InconsistencyRule.from_dict(rule.to_dict()) == rule


@given(st.lists(_rules, max_size=20))
def test_filter_list_json_round_trip(rules):
    filter_list = FilterList(rules)
    loaded = FilterList.from_json(filter_list.to_json())
    assert {rule.key for rule in loaded} == {rule.key for rule in filter_list}


# -- Algorithm 1: the grid miner against the object reference ------------------------

_miner_configs = st.builds(
    SpatialMinerConfig,
    min_support=st.integers(1, 4),
    min_value_support=st.integers(1, 8),
    # 0 disables the inflation pre-filter; > 0 consults the knowledge base.
    inflation_factor=st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    max_values_per_pair=st.integers(1, 4),
)


def _assert_mines_like_reference(config, table, fingerprints):
    mined = SpatialInconsistencyMiner(config=config).mine_table(table)
    expected = reference.mine(SpatialInconsistencyMiner(config=config), fingerprints)
    assert mined.to_json() == expected.to_json()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(10, 160), config=_miner_configs)
def test_grid_miner_matches_reference(seed, size, config):
    store = _random_store(seed, size=size)
    _assert_mines_like_reference(
        config, _extract(store), [record.request.fingerprint for record in store]
    )


@pytest.mark.parametrize("rows", [0, 1])
def test_grid_miner_on_empty_and_one_row_tables(rows):
    store = RequestStore(list(_random_store(3, size=10))[:rows])
    config = SpatialMinerConfig(min_support=1, min_value_support=1, inflation_factor=0)
    _assert_mines_like_reference(
        config, _extract(store), [record.request.fingerprint for record in store]
    )


def test_grid_miner_on_attributes_without_values():
    """Every row missing an attribute — with an empty vocabulary, or with a
    vocabulary but all codes ``-1`` — mines like a store without it."""

    store = _random_store(5, size=120)
    config = SpatialMinerConfig(min_support=1, min_value_support=1, inflation_factor=0)
    stripped = [
        without(record.request.fingerprint, Attribute.UA_DEVICE) for record in store
    ]
    _assert_mines_like_reference(
        config, ColumnarTable.from_fingerprints(stripped), stripped
    )
    table = _extract(store)
    assert table.values_of(Attribute.UA_DEVICE)
    columns = {attribute: table.codes_of(attribute) for attribute in table.attributes}
    columns[Attribute.UA_DEVICE] = np.full(table.n_rows, -1, dtype=np.int32)
    all_missing = table.with_columns(columns)
    _assert_mines_like_reference(config, all_missing, stripped)


# -- temporal detector invariants --------------------------------------------------------------


@given(st.lists(st.sampled_from(["Win32", "MacIntel", "Linux x86_64"]), min_size=1, max_size=20))
def test_temporal_detector_flags_at_most_changes(platforms):
    detector = ObjectTemporalDetector()
    flags = 0
    for platform in platforms:
        flags += len(
            detector.observe(Fingerprint({Attribute.PLATFORM: platform}), cookie="c", ip_address=None)
        )
    distinct = len(set(platforms))
    assert flags == max(0, distinct - 1)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
def test_temporal_detector_never_flags_constant_stream(keys):
    detector = ObjectTemporalDetector()
    fingerprint = Fingerprint({Attribute.PLATFORM: "Win32", Attribute.HARDWARE_CONCURRENCY: 8})
    for key in keys:
        assert detector.observe(fingerprint, cookie=key, ip_address=None) == []


# -- temporal seen-state delta ------------------------------------------------------------------

_SEEN_KEYS = ("", "k0", "k1", "k2", "k3", "k4", "k5")
_SEEN_VALUES = ("v0", "v1", "v2", "v3")
_SEEN_SLOTS = st.tuples(
    st.sampled_from(("cookie", "ip")), st.sampled_from((Attribute.PLATFORM, Attribute.TIMEZONE))
)
_seen_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            _SEEN_SLOTS,
            st.integers(1, 3),
            st.lists(
                st.tuples(
                    st.integers(0, len(_SEEN_KEYS) - 1), st.integers(0, len(_SEEN_VALUES) - 1)
                ),
                min_size=1,
                max_size=12,
            ),
        ),
        st.tuples(
            st.just("merge"),
            _SEEN_SLOTS,
            st.lists(
                st.tuples(
                    st.integers(0, len(_SEEN_KEYS) - 1),
                    st.lists(st.integers(0, len(_SEEN_VALUES) - 1), min_size=1, max_size=4),
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        st.just(("close",)),
    ),
    min_size=1,
    max_size=25,
)


class _Ingest:
    """A growing ingest vocabulary: decode lists plus their live indexes."""

    def __init__(self, attributes):
        self.decode = {"cookie": [], "ip": [], **{attribute: [] for attribute in attributes}}
        self.index = {slot: {} for slot in self.decode}

    def codes(self, slot, items):
        decode, index = self.decode[slot], self.index[slot]
        for item in items:
            if item not in index:
                index[item] = len(decode)
                decode.append(item)
        return np.array([index[item] for item in items], dtype=np.int64)

    def export(self, attributes):
        return {
            "cookie_values": self.decode["cookie"],
            "cookie_index": self.index["cookie"],
            "ip_values": self.decode["ip"],
            "ip_index": self.index["ip"],
            "values": {attribute: self.decode[attribute] for attribute in attributes},
            "indexes": {attribute: self.index[attribute] for attribute in attributes},
        }


@settings(max_examples=50, deadline=None)
@given(
    ops=_seen_ops,
    key_order=st.permutations(_SEEN_KEYS),
    value_order=st.permutations(_SEEN_VALUES),
    foreign_sizes=st.tuples(st.integers(2, len(_SEEN_KEYS)), st.integers(1, len(_SEEN_VALUES))),
)
def test_seen_state_delta_matches_the_per_key_walk(ops, key_order, value_order, foreign_sizes):
    """The array-gathered delta and its checkpoint columns equal the per-key walk.

    Observations go through a growing ingest vocabulary (which the state
    adopts as its ids), merges through fixed, partial decode lists in
    another order, as a checkpoint fold does; a slot that meets both
    becomes an owned, interned copy that keeps growing.
    """

    attributes = (Attribute.PLATFORM, Attribute.TIMEZONE)
    state = TemporalStreamState()
    ingest = _Ingest(attributes)
    foreign_keys = list(key_order[: foreign_sizes[0]])
    foreign_values = list(value_order[: foreign_sizes[1]])
    checkpointer = StreamCheckpointer("unused", every_batches=1)

    def observe(kind, attribute, tolerance, pairs):
        key_codes = ingest.codes(kind, [_SEEN_KEYS[key] for key, _ in pairs])
        value_codes = ingest.codes(attribute, [_SEEN_VALUES[value] for _, value in pairs])
        keys = state.key_remap(kind, ingest.decode[kind])[key_codes]
        values = state.value_remap(attribute, ingest.decode[attribute])[value_codes]
        keep = keys >= 0  # the "" key tracks nothing
        state.column(kind, attribute).observe(keys[keep], values[keep], tolerance, state.epoch)

    def merge(kind, attribute, entries):
        # Codes index the foreign lists; a fold never holds the "" key.
        entries = [
            (key % len(foreign_keys), [value % len(foreign_values) for value in values])
            for key, values in entries
        ]
        entries = [(key, values) for key, values in entries if foreign_keys[key]]
        if entries:
            state.merge(
                kind,
                attribute,
                foreign_keys,
                np.array([key for key, _ in entries]),
                foreign_values,
                np.array([len(values) for _, values in entries]),
                np.array([value for _, values in entries for value in values]),
            )

    def check(since):
        actual = list(state.changes_since(since))
        expected = list(reference.changes_since(state, since))
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got[:2] == want[:2]
            for got_array, want_array in zip(got[2:], want[2:]):
                assert np.array_equal(got_array, want_array)
        # A real ingest knows every key and value the state holds.
        for kind in ("cookie", "ip"):
            ingest.codes(kind, state.keys_of(kind))
        for attribute in attributes:
            ingest.codes(attribute, state.values_of(attribute))
        exported = ingest.export(attributes)
        columns = checkpointer._encode_seen(state, since, attributes, exported)
        oracle = reference.encode_seen(state, since, attributes, exported)
        assert columns.keys() == oracle.keys()
        for name, column in columns.items():
            assert column.dtype == oracle[name].dtype, name
            assert np.array_equal(column, oracle[name]), name

    for op in ops:
        if op[0] == "observe":
            observe(*op[1], *op[2:])
        elif op[0] == "merge":
            merge(*op[1], op[2])
        else:
            check(state.close_epoch() - 1)
    # End on an owned, interned cookie vocabulary: the slot meets both the
    # fold-style decode list and the ingest's.
    merge("cookie", Attribute.PLATFORM, [(key, [0]) for key in range(len(_SEEN_KEYS))])
    observe("cookie", Attribute.PLATFORM, 1, [(key, 1) for key in range(len(_SEEN_KEYS))])
    owned = state.keys_of("cookie")
    assert owned is not foreign_keys and owned is not ingest.decode["cookie"]
    for since in range(state.epoch + 1):
        check(since)


# -- metrics invariants ------------------------------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_accuracy_of_perfect_prediction_is_one(labels):
    assert accuracy_score(labels, labels) == 1.0


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200)
)
def test_confusion_matrix_totals_and_accuracy(pairs):
    y_true = [true for true, _pred in pairs]
    y_pred = [pred for _true, pred in pairs]
    matrix = confusion_matrix(y_true, y_pred)
    assert matrix.total == len(pairs)
    assert matrix.accuracy == accuracy_score(y_true, y_pred)
    assert 0.0 <= matrix.precision <= 1.0
    assert 0.0 <= matrix.recall <= 1.0


# -- header / reporting invariants ----------------------------------------------------------------


@given(st.lists(st.sampled_from(["en-US", "en", "fr-FR", "de-DE", "es-MX"]), min_size=1, max_size=5, unique=True))
def test_accept_language_round_trip(languages):
    header = accept_language_for(tuple(languages))
    assert tuple(part.split(";")[0] for part in header.split(",")) == tuple(languages)


@given(st.floats(0.0, 1.0))
def test_format_percent_bounds(value):
    text = format_percent(value)
    assert text.endswith("%")
    assert 0.0 <= float(text[:-1]) <= 100.0


@given(
    st.lists(st.tuples(st.text(max_size=8), st.integers(0, 10 ** 6)), min_size=1, max_size=10)
)
def test_format_table_has_row_per_entry(rows):
    table = format_table(["name", "count"], rows)
    # header + separator + one line per row
    assert len(table.splitlines()) == 2 + len(rows)


# -- CART split search: rank codes against the per-candidate reference --------------


def _tree_column(kind: str, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    if kind == "few_integers":
        return rng.integers(-3, 4, n_rows).astype(float)
    if kind == "normal":
        return rng.normal(size=n_rows)
    if kind == "quarter_normal":
        return np.round(rng.normal(size=n_rows) * 4.0) / 4.0
    if kind == "constant":
        return np.full(n_rows, rng.normal())
    if kind == "adjacent_doubles":
        # Midpoints of neighbouring doubles can round onto the upper value.
        return np.array([1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51])[rng.integers(0, 3, n_rows)]
    # Signed zeros among enough other values to reach the quantile branch.
    values = np.concatenate(([-0.0, 0.0], np.arange(-6.0, 7.0)))
    return values[rng.integers(0, values.size, n_rows)]


_TREE_COLUMN_KINDS = (
    "few_integers",
    "normal",
    "quarter_normal",
    "constant",
    "adjacent_doubles",
    "signed_zeros",
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(2, 400),
    kinds=st.lists(st.sampled_from(_TREE_COLUMN_KINDS), min_size=1, max_size=8),
    positive_share=st.floats(0.0, 1.0),
    max_depth=st.integers(1, 12),
    min_samples_leaf=st.integers(1, 4),
    max_features=st.one_of(st.none(), st.integers(1, 8)),
    max_bins=st.sampled_from([4, 8, 32]),
)
def test_tree_matches_the_per_candidate_reference(
    seed, n_rows, kinds, positive_share, max_depth, min_samples_leaf, max_features, max_bins
):
    """Every node array of a rank-coded fit equals the per-candidate search's, bit for bit."""

    rng = np.random.default_rng(seed)
    features = np.column_stack([_tree_column(kind, rng, n_rows) for kind in kinds])
    targets = (rng.random(n_rows) < positive_share).astype(float)
    params = dict(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        max_features=None if max_features is None else min(max_features, len(kinds)),
        max_bins=max_bins,
    )
    tree = fit_tree(
        DecisionTree(random_state=np.random.default_rng(seed), **params), features, targets
    )
    expected = ReferenceTree(random_state=np.random.default_rng(seed), **params)
    assert_same_nodes(tree, expected.fit(features, targets))
