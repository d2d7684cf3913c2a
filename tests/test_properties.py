"""Property-based tests (hypothesis) for core data structures and invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from reference import detection as reference
from reference.detection import ObjectTemporalDetector, TemporalFlag
from reference.fingerprint import differing_attributes, fingerprint_dict, stable_hash, without
from reference.ml import ReferenceTree, assert_same_nodes, confusion_matrix, fit_tree
from reference.store import RequestStore, columnar_store
from test_columnar import _extract, _random_store

from repro.core.columnar import ColumnarTable, TableEncoder
from repro.core.detector import FPInconsistent, Verdicts
from repro.core.rules import FilterList, InconsistencyRule, RuleTable
from repro.core.spatial import SpatialInconsistencyMiner, SpatialMinerConfig
from repro.core.temporal import _UNSEEN, TemporalStreamState, _SeenKind
from repro.fingerprint.attributes import Attribute, format_resolution, parse_resolution
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.honeysite.storage import RecordColumns
from repro.ml.metrics import accuracy_score
from repro.ml.tree import DecisionTree
from repro.network.headers import accept_language_for
from repro.reporting.tables import format_percent, format_table
from repro.stream import same_verdicts, verdicts_digest
from repro.stream.checkpoint import StreamCheckpointer

#: The one settings profile of every property here.  It has no explain
#: phase, which on a failing example can spend minutes varying the inputs
#: after the shrink has already found the smallest one.
PROFILE = settings(phases=[phase for phase in Phase if phase != Phase.explain])


def test_every_property_runs_under_the_profile():
    properties = [test for test in globals().values() if hasattr(test, "hypothesis")]
    assert len(properties) > 20
    for test in properties:
        assert Phase.explain not in test._hypothesis_internal_use_settings.phases, test.__name__

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


@settings(PROFILE)
@given(_fingerprints)
def test_fingerprint_round_trip(fingerprint):
    rebuilt = Fingerprint(fingerprint_dict(fingerprint))
    assert rebuilt == fingerprint
    assert stable_hash(rebuilt) == stable_hash(fingerprint)


@settings(PROFILE)
@given(_fingerprints)
def test_fingerprint_distance_to_self_is_zero(fingerprint):
    assert fingerprint_distance(fingerprint, fingerprint) == 0


@settings(PROFILE)
@given(_fingerprints, _fingerprints)
def test_fingerprint_distance_is_symmetric(left, right):
    assert fingerprint_distance(left, right) == fingerprint_distance(right, left)


@settings(PROFILE)
@given(_fingerprints, st.integers(1, 64))
def test_fingerprint_replace_changes_one_attribute(fingerprint, cores):
    altered = fingerprint.replace(hardware_concurrency=cores)
    assert altered[Attribute.HARDWARE_CONCURRENCY] == cores
    assert fingerprint_distance(fingerprint, altered) <= 1


@settings(PROFILE)
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


@settings(PROFILE)
@given(st.lists(_rules, max_size=30))
def test_filter_list_deduplicates_by_key(rules):
    filter_list = FilterList(rules)
    assert len(filter_list) == len({rule.key for rule in rules})


@settings(PROFILE)
@given(st.lists(_rules, max_size=20), _fingerprints)
def test_filter_list_matches_agrees_with_any_rule(rules, fingerprint):
    filter_list = FilterList(rules)
    expected = any(reference.rule_matches(rule, fingerprint) for rule in rules)
    assert (filter_list.first_match(fingerprint) is not None) == expected


@settings(PROFILE)
@given(_rules)
def test_rule_serialisation_round_trip(rule):
    assert InconsistencyRule.from_dict(rule.to_dict()) == rule


@settings(PROFILE)
@given(st.lists(_rules, max_size=20))
def test_filter_list_json_round_trip(rules):
    filter_list = FilterList(rules)
    loaded = FilterList.from_json(filter_list.to_json())
    assert {rule.key for rule in loaded} == {rule.key for rule in filter_list}


# -- compiled matcher: the dense rank table against the sorted-key oracle -------------

_MATCH_ATTRIBUTES = (
    Attribute.UA_DEVICE,
    Attribute.PLATFORM,
    Attribute.HARDWARE_CONCURRENCY,
    Attribute.WEBDRIVER,
)
#: ``0``/``0.0``/``False`` and ``1``/``1.0``/``True`` compare equal across
#: types; ``"1"`` does not.
_MATCH_VALUES = ("iPhone", "1", 0, 0.0, False, 1, 1.0, True)

_match_rules = st.builds(
    lambda category, attributes, value_a, value_b, support: InconsistencyRule(
        category, attributes[0], value_a, attributes[1], value_b, support
    ),
    st.sampled_from(list(AttributeCategory)),
    st.permutations(_MATCH_ATTRIBUTES),
    st.sampled_from(_MATCH_VALUES),
    st.sampled_from(_MATCH_VALUES),
    st.integers(0, 100),
)


def _retyped(value):
    """An equal value of the next type in ``0, False, 0.0`` or ``1, True,
    1.0``; any other value unchanged."""

    for group in ((0, False, 0.0), (1, True, 1.0)):
        types = [type(item) for item in group]
        if type(value) in types and value == group[0]:
            return group[(types.index(type(value)) + 1) % len(group)]
    return value


#: Rule lists where some rules have a twin whose second value is equal
#: but of another type: the twins share a rank-table slot.
_match_rule_lists = st.lists(st.tuples(_match_rules, st.booleans()), max_size=16).map(
    lambda drawn: [
        kept
        for rule, twinned in drawn
        for kept in ([rule, replace(rule, value_b=_retyped(rule.value_b))] if twinned else [rule])
    ]
)


def _match_table(seed: int, n_rows: int) -> ColumnarTable:
    """A table over :data:`_MATCH_ATTRIBUTES`: decode lists hold each value
    once (as an interning ingest builds them), and ``-1`` codes are missing
    values."""

    rng = np.random.default_rng(seed)
    codes, values = {}, {}
    for attribute in _MATCH_ATTRIBUTES:
        drawn = rng.integers(0, len(_MATCH_VALUES), int(rng.integers(0, 8)))
        decode = list(dict.fromkeys(_MATCH_VALUES[index] for index in drawn.tolist()))
        codes[attribute] = rng.integers(-1, len(decode), n_rows).astype(np.int32)
        values[attribute] = decode
    return ColumnarTable(codes=codes, values=values, n_rows=n_rows)


def _assert_matches_like_oracle(filter_list, table):
    expected = reference.SearchsortedMatcher(filter_list).first_match_rows(table)
    assert filter_list.matcher().first_match_rows(table).tolist() == expected.tolist()


@settings(PROFILE, max_examples=80, deadline=None)
@given(
    rules=_match_rule_lists,
    seed=st.integers(0, 2**16),
    n_rows=st.integers(0, 30),
    known=st.integers(0, 7),
)
def test_dense_matcher_matches_the_searchsorted_oracle(rules, seed, n_rows, known):
    """Same winner per row, also while decode lists grow under one matcher:
    the table is matched first with only its first *known* values decoded
    (later codes missing), then again after the lists grew in place."""

    filter_list = FilterList(rules)
    table = _match_table(seed, n_rows)
    prefix = {attribute: table.values_of(attribute)[:known] for attribute in _MATCH_ATTRIBUTES}
    early = ColumnarTable(
        codes={
            attribute: np.where(table.codes_of(attribute) < known, table.codes_of(attribute), -1)
            for attribute in _MATCH_ATTRIBUTES
        },
        values=prefix,
        n_rows=table.n_rows,
    )
    _assert_matches_like_oracle(filter_list, early)
    for attribute, decode in prefix.items():
        decode.extend(table.values_of(attribute)[known:])
    _assert_matches_like_oracle(
        filter_list, ColumnarTable(codes=table._codes, values=prefix, n_rows=table.n_rows)
    )


def test_dense_matcher_with_an_empty_list():
    table = ColumnarTable(
        codes={Attribute.UA_DEVICE: np.array([0, -1], dtype=np.int32)},
        values={Attribute.UA_DEVICE: ["iPhone"]},
        n_rows=2,
    )
    assert FilterList().matcher().first_match_rows(table).tolist() == [-1, -1]
    _assert_matches_like_oracle(FilterList(), table)


@pytest.fixture(scope="module")
def mined_corpus():
    """One random store's table and the rules mined from it, shared by
    every example."""

    table = _extract(_random_store(11, size=300))
    config = SpatialMinerConfig(min_support=1, min_value_support=1, inflation_factor=0)
    return table, list(SpatialInconsistencyMiner(config=config).mine_table(table))


@settings(PROFILE, max_examples=30, deadline=None)
@given(picks=st.lists(st.integers(0, 10**6), max_size=60))
def test_dense_matcher_matches_the_oracle_on_mined_rules(mined_corpus, picks):
    table, rules = mined_corpus
    assert rules
    _assert_matches_like_oracle(FilterList(rules[pick % len(rules)] for pick in picks), table)


# -- first sightings: the scatter-min against np.unique ------------------------------------


@settings(PROFILE, max_examples=80, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(0, 7), st.lists(st.integers(-1, 3), min_size=3, max_size=3)),
        max_size=60,
    ),
    n_attributes=st.integers(1, 3),
    tolerance=st.integers(1, 3),
    cuts=st.lists(st.integers(0, 60), max_size=4),
)
# A key that shows a third value, then its second and third again after a
# piece boundary.
@example(
    stream=[(0, [value, -1, value]) for value in (0, 1, 2, 2, 1, 3)],
    n_attributes=3, tolerance=1, cuts=[3],
)
def test_seen_column_observe_matches_the_unique_oracle(stream, n_attributes, tolerance, cuts):
    """One per-kind pass over attributes that share their keys raises the
    flags, and keeps the state, of one per-column oracle per attribute (the
    scatter-min column and the ``np.unique`` one, fed only the rows that
    carry the attribute: ``-1`` is a missing value), fed whole and fed in
    pieces (one epoch per piece); the pieces flag what the whole stream
    flags."""

    attributes = (Attribute.PLATFORM, Attribute.DEVICE_MEMORY, Attribute.COLOR_DEPTH)[
        :n_attributes
    ]
    keys = np.array([key for key, _ in stream], dtype=np.int64)
    values = np.array(
        [row[:n_attributes] for _, row in stream], dtype=np.int64
    ).reshape(-1, n_attributes).T
    bounds = [0, *sorted(min(cut, len(stream)) for cut in cuts), len(stream)]
    flagged = []
    for pieces in ([(0, len(stream))], list(zip(bounds, bounds[1:]))):
        seen = _SeenKind()
        oracles = [
            (reference.SeenColumn(), reference.UniqueSeenColumn()) for _ in attributes
        ]
        hits = []
        for epoch, (start, stop) in enumerate(pieces, start=1):
            rows = seen.reserve(attributes, 8)
            got = reference.seen_hits(
                *seen.observe(rows, keys[start:stop], values[:, start:stop], tolerance, epoch)
            )
            expected = []
            for index, pair in enumerate(oracles):
                carried = np.flatnonzero(values[index, start:stop] >= 0)
                column_hits = []
                for oracle in pair:
                    oracle.reserve(8)
                    column_hits.append(oracle.observe(
                        keys[start:stop][carried], values[index, start:stop][carried],
                        tolerance, epoch,
                    ))
                assert column_hits[0] == column_hits[1]
                expected += [
                    (index * (stop - start) + int(carried[position]), held, value)
                    for position, held, value in column_hits[0]
                ]
            assert got == expected
            width = stop - start
            hits += [
                (position // width, start + position % width, held, value)
                for position, held, value in got
            ]
        for index, attribute in enumerate(attributes):
            row = seen.rows[attribute]
            for oracle in oracles[index]:
                assert seen.first[row].tolist() == oracle.first.tolist()
                assert seen.stamp[row].tolist() == oracle.stamp.tolist()
                assert {
                    key: reference.held_values(seen, row, key) for key in oracle.overflow
                } == oracle.overflow
        assert (seen.sighting == _UNSEEN).all()
        flagged.append(sorted(hits))
    assert flagged[0] == flagged[1]


def _repeating_a_cookie(columns: RecordColumns) -> RecordColumns:
    """*columns* with a second archive code for its first cookie string,
    served on every other row that was served the first."""

    cookie_values = [*columns.cookie_values, columns.cookie_values[0]]
    served = columns.served_codes.copy()
    served[np.flatnonzero(served == 0)[::2]] = len(cookie_values) - 1
    return RecordColumns(
        timestamps=columns.timestamps,
        session_codes=columns.session_codes,
        presented_codes=columns.presented_codes,
        served_codes=served,
        source_codes=columns.source_codes,
        cookie_values=cookie_values,
        sources=columns.sources,
        url_paths=columns.url_paths,
        sessions=columns.sessions,
        request_ids=columns.request_ids,
    )


@settings(PROFILE, max_examples=25, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    sizes=st.tuples(st.integers(10, 120), st.integers(10, 120)),
    cuts=st.lists(st.integers(0, 240), max_size=5),
    restore_at=st.integers(0, 6),
)
def test_stacked_ingest_matches_the_per_attribute_encoder(seeds, sizes, cuts, restore_at):
    """The stacked encoder gives the per-attribute reference encoder's
    codes and decode lists, batch for batch: over two stores whose
    sessions repeat address strings, each with two archive cookie codes
    for one string and sharing strings with the other, in random arrival
    order and batch cuts, restored mid-stream from a folded vocabulary."""

    stores = [
        _repeating_a_cookie(columnar_store(_random_store(seed, size)).columns)
        for seed, size in zip(seeds, sizes)
    ]
    order = [
        (columns, np.random.default_rng(seed).permutation(columns.n_rows))
        for columns, seed in zip(stores, seeds)
    ]
    total = sum(rows.size for _columns, rows in order)
    bounds = [0, *sorted(min(cut, total) for cut in cuts), total]
    batches = []
    for start, stop in zip(bounds, bounds[1:]):
        for offset, (columns, rows) in zip((0, order[0][1].size), order):
            piece = rows[max(start - offset, 0) : max(stop - offset, 0)]
            if piece.size:
                batches.append((columns, piece))
    attributes = FPInconsistent().table_attributes()
    encoder, oracle = TableEncoder(attributes), reference.PerAttributeTableEncoder(attributes)
    for number, (columns, rows) in enumerate(batches):
        if number == restore_at:
            folded = {
                "values": {attribute: list(encoder.values[attribute]) for attribute in attributes},
                "cookie_values": list(encoder.cookie_values),
                "ip_values": list(encoder.ip_values),
            }
            encoder = TableEncoder(attributes)
            encoder.restore(folded)
            oracle.restore(folded)
            assert encoder.cookie_values is folded["cookie_values"]
        got, want = encoder.encode(columns, rows), oracle.encode(columns, rows)
        for attribute in attributes:
            assert np.array_equal(got.codes_of(attribute), want.codes_of(attribute)), attribute
        assert np.array_equal(got.cookie_codes, want.cookie_codes)
        assert np.array_equal(got.ip_codes, want.ip_codes)
        assert got.values_of(Attribute.PLATFORM) == want.values_of(Attribute.PLATFORM)
    assert encoder.values == oracle.values
    assert encoder.cookie_values == oracle.cookie_values
    assert encoder.ip_values == oracle.ip_values
    encoder.sync_indexes()
    assert encoder.cookie_index == oracle.cookie_index
    assert encoder.ip_index == oracle.ip_index
    assert encoder.indexes == oracle.indexes


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


@settings(PROFILE, max_examples=25, deadline=None)
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


@settings(PROFILE)
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


@settings(PROFILE)
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
    """A growing ingest vocabulary: decode lists plus their indexes."""

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
            "ip_values": self.decode["ip"],
            "values": {attribute: self.decode[attribute] for attribute in attributes},
        }


@settings(PROFILE, max_examples=50, deadline=None)
@given(ops=_seen_ops)
def test_seen_state_delta_matches_the_per_key_walk(ops):
    """The array-gathered delta and its checkpoint columns equal the per-key walk.

    Observations and merges both go through one growing ingest vocabulary,
    as a replay and a checkpoint fold do: the state binds its decode
    lists, whose codes are its ids.  A fold never holds the "" key.
    """

    attributes = (Attribute.PLATFORM, Attribute.TIMEZONE)
    state = TemporalStreamState()
    ingest = _Ingest(attributes)
    checkpointer = StreamCheckpointer("unused", every_batches=1)

    def observe(kind, attribute, tolerance, pairs):
        key_codes = ingest.codes(kind, [_SEEN_KEYS[key] for key, _ in pairs])
        value_codes = ingest.codes(attribute, [_SEEN_VALUES[value] for _, value in pairs])
        keep = key_codes != state.bind(("key", kind), ingest.decode[kind])  # "" tracks nothing
        state.bind(("value", attribute), ingest.decode[attribute])
        seen, rows = state.seen(kind, (attribute,))
        seen.observe(rows, key_codes[keep], value_codes[keep][None, :], tolerance, state.epoch)

    def merge(kind, attribute, entries):
        entries = [(_SEEN_KEYS[key], values) for key, values in entries if _SEEN_KEYS[key]]
        if entries:
            state.merge(
                kind,
                attribute,
                ingest.decode[kind],
                ingest.codes(kind, [key for key, _ in entries]),
                ingest.decode[attribute],
                np.array([len(values) for _, values in entries]),
                ingest.codes(attribute, [_SEEN_VALUES[value] for _, values in entries
                                         for value in values]),
            )

    def check(since):
        actual = list(state.changes_since(since))
        expected = list(reference.changes_since(state, since))
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got[:2] == want[:2]
            for got_array, want_array in zip(got[2:], want[2:]):
                assert np.array_equal(got_array, want_array)
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
    # End with every key merged and then observed on one slot.
    merge("cookie", Attribute.PLATFORM, [(key, [0]) for key in range(len(_SEEN_KEYS))])
    observe("cookie", Attribute.PLATFORM, 1, [(key, 1) for key in range(len(_SEEN_KEYS))])
    assert state.items(("key", "cookie")) is ingest.decode["cookie"]
    for since in range(state.epoch + 1):
        check(since)


# -- metrics invariants ------------------------------------------------------------------------


@settings(PROFILE)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_accuracy_of_perfect_prediction_is_one(labels):
    assert accuracy_score(labels, labels) == 1.0


@settings(PROFILE)
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


@settings(PROFILE)
@given(st.lists(st.sampled_from(["en-US", "en", "fr-FR", "de-DE", "es-MX"]), min_size=1, max_size=5, unique=True))
def test_accept_language_round_trip(languages):
    header = accept_language_for(tuple(languages))
    assert tuple(part.split(";")[0] for part in header.split(",")) == tuple(languages)


@settings(PROFILE)
@given(st.floats(0.0, 1.0))
def test_format_percent_bounds(value):
    text = format_percent(value)
    assert text.endswith("%")
    assert 0.0 <= float(text[:-1]) <= 100.0


@settings(PROFILE)
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


@settings(PROFILE, max_examples=60, deadline=None)
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


# -- verdict digest and oracle: columns against the reference serialisation ----------

#: Flag and rule values: ``1``/``1.0``/``True`` and ``0``/``False`` compare
#: equal across types but serialise apart; the strings need JSON escaping.
_DIGEST_VALUES = (
    1, 1.0, True, 0, False, "1", 'say "hi"', "Zürich ✓", "back\\slash", None, (1, "a"),
)
_DIGEST_KEYS = ("cookie-1", 'k"1', "ключ", "10.0.0.1")
_DIGEST_ATTRIBUTES = (Attribute.PLATFORM, Attribute.HARDWARE_CONCURRENCY, Attribute.TIMEZONE)

_digest_rules = st.builds(
    InconsistencyRule,
    category=st.just(AttributeCategory.LOCATION),
    attribute_a=st.just(Attribute.TIMEZONE),
    value_a=st.sampled_from(_DIGEST_VALUES),
    attribute_b=st.sampled_from(_DIGEST_ATTRIBUTES),
    value_b=st.sampled_from(_DIGEST_VALUES),
    support=st.integers(0, 3),
)

_digest_flags = st.builds(
    TemporalFlag,
    key_kind=st.sampled_from(("cookie", "ip")),
    key=st.sampled_from(_DIGEST_KEYS),
    attribute=st.sampled_from(_DIGEST_ATTRIBUTES),
    previous_values=st.lists(st.sampled_from(_DIGEST_VALUES), max_size=3).map(tuple),
    new_value=st.sampled_from(_DIGEST_VALUES),
)

#: Verdicts as plain rows: ``[request_id, rule or None, [flags]]``, unique ids.
_plain_verdicts = st.lists(
    st.tuples(
        st.integers(0, 10**6), st.none() | _digest_rules, st.lists(_digest_flags, max_size=3)
    ),
    max_size=10,
    unique_by=lambda row: row[0],
).map(lambda rows: [list(row) for row in rows])


def _verdict_columns(rows, seed: int) -> Verdicts:
    """Verdict columns of plain *rows* in a layout drawn from *seed*: rows
    shuffled and cut into chunks, each with its own rule table (rules in
    shuffled order), decoding flags through one set of growing lists (as
    one state's chunks do), then concatenated."""

    rng = np.random.default_rng(seed)
    rows = [rows[index] for index in rng.permutation(len(rows)).tolist()]
    cuts = sorted(rng.integers(0, len(rows) + 1, 2).tolist())
    chunks, keys, values = [], {}, {}
    for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
        part = rows[start:stop]
        table = RuleTable()
        rules = [rule for _, rule, _ in part if rule is not None]
        for index in rng.permutation(len(rules)).tolist():
            table.add(rules[index])
        chunks.append(
            Verdicts(
                np.array([request_id for request_id, _, _ in part], dtype=np.int64),
                np.array([-1 if rule is None else table.add(rule) for _, rule, _ in part],
                         dtype=np.int64),
                table,
                reference.flags_from_objects(
                    {row: flags for row, (_, _, flags) in enumerate(part) if flags}, keys, values
                ),
            )
        )
    return Verdicts.concat(chunks)


def _nested_retyped(value):
    """:func:`_retyped`, applied inside tuples too: ``(1, "a")`` and
    ``(True, "a")`` are equal, and equal rules by :func:`rule_key`."""

    return tuple(map(_retyped, value)) if isinstance(value, tuple) else _retyped(value)


def _mutate(rows, how: str, pick: int):
    """*rows* with one change (*how*) at the entry *pick* selects."""

    rows = [[request_id, rule, list(flags)] for request_id, rule, flags in rows]
    flagged = [(row, index) for row in rows for index in range(len(row[2]))]
    ruled = [row for row in rows if row[1] is not None]
    if how == "retype_value" and flagged:
        row, index = flagged[pick % len(flagged)]
        row[2][index] = replace(row[2][index], new_value=_nested_retyped(row[2][index].new_value))
    elif how == "retype_previous" and flagged:
        row, index = flagged[pick % len(flagged)]
        flag = row[2][index]
        row[2][index] = replace(
            flag, previous_values=tuple(map(_nested_retyped, flag.previous_values))
        )
    elif how == "drop_flag" and flagged:
        row, index = flagged[pick % len(flagged)]
        del row[2][index]
    elif how == "swap_flags" and flagged:
        row, _ = flagged[pick % len(flagged)]
        row[2].reverse()
    elif how == "drop_rule" and ruled:
        ruled[pick % len(ruled)][1] = None
    elif how == "retype_rule" and ruled:
        row = ruled[pick % len(ruled)]
        row[1] = replace(row[1], value_a=_nested_retyped(row[1].value_a))
    elif how == "change_id" and rows:
        rows[pick % len(rows)][0] = max(row[0] for row in rows) + 1
    return rows


@settings(PROFILE, max_examples=150, deadline=None)
@given(
    rows=_plain_verdicts,
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    how=st.sampled_from(
        ["none", "retype_value", "retype_previous", "drop_flag", "swap_flags",
         "drop_rule", "retype_rule", "change_id"]
    ),
    pick=st.integers(0, 100),
)
@example(  # a flag value 1 against True
    rows=[[5, None, [TemporalFlag("cookie", "c", Attribute.PLATFORM, (0,), 1)]]],
    seeds=(0, 1), how="retype_value", pick=0,
)
@example(  # equal rules by rule_key that serialise apart
    rows=[[5, InconsistencyRule(AttributeCategory.LOCATION, Attribute.TIMEZONE, (1, "a"),
                                Attribute.PLATFORM, "x", 1), []]],
    seeds=(0, 1), how="retype_rule", pick=0,
)
def test_verdict_digest_and_oracle_match_the_reference(rows, seeds, how, pick):
    """The column digest is the SHA-256 of the reference serialisation, and
    the column oracle accepts a pair exactly when their reference digests
    match, whatever the row order, rule-table order or decode lists."""

    left = _verdict_columns(rows, seeds[0])
    right = _verdict_columns(_mutate(rows, how, pick), seeds[1])
    digests = [reference.reference_digest(side) for side in (left, right)]
    assert [verdicts_digest(side) for side in (left, right)] == digests
    assert same_verdicts(left, right) == same_verdicts(right, left) == (digests[0] == digests[1])
