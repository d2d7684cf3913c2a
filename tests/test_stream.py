"""Tests for the streaming detection subsystem (``repro.stream``).

The subsystem's contract is exactness, not approximation: a full corpus
replay with a frozen filter list must reproduce the batch pipeline's
verdicts bit for bit, for any micro-batch size, over either physical
record representation.  These tests pin that oracle plus the pieces it
rests on — growing-vocabulary ingestion identical to one-shot extraction,
incremental temporal state identical to the self-contained batch
evaluation, and window re-mining identical to mining a fresh extraction
of the same rows.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from reference.detection import (
    InconsistencyVerdict,
    ObjectTemporalDetector,
    compile_per_table,
    verdict_objects,
    cookie_at,
    ip_at,
    observed_values,
    state_entries,
    tracked_devices,
    value_at,
    verdicts_equal,
    verdicts_from_objects,
    verdicts_to_jsonable,
)
from reference.store import RecordIngestor, columnar_store, from_store, records, renumbered

from repro.analysis.engine import CorpusEngine
from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent
from repro.core.pipeline import FPInconsistentPipeline
from repro.core.rules import FilterList, InconsistencyRule
from repro.core.spatial import SpatialInconsistencyMiner
from repro.core.temporal import TemporalFlag, TemporalInconsistencyDetector
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.honeysite.storage import RecordColumnsBuilder, RequestStore
from repro.stream import (
    FilterListRefresher,
    OnlineClassifier,
    ReplayDriver,
    StreamIngestor,
    verdicts_digest,
)

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


@pytest.fixture(scope="module")
def corpus():
    """A columnar-transport corpus (lazy store + pre-extracted tables)."""

    return CorpusEngine(**TINY).build(workers=1)


@pytest.fixture(scope="module")
def fitted(corpus):
    """(detector, bot table, batch verdicts): the streaming oracle."""

    detector = FPInconsistent()
    table = detector.extract_table(corpus.bot_store)
    detector.fit_table(table)
    verdicts = detector.classify_table(table)
    return detector, table, verdicts


# -- the replay oracle -----------------------------------------------------------


@pytest.mark.parametrize("batch_size", [37, 256, 1_000_000])
def test_replay_matches_batch_pipeline_across_batch_sizes(corpus, fitted, batch_size):
    detector, _table, batch_verdicts = fitted
    store = corpus.bot_store
    result = ReplayDriver(detector, batch_size=batch_size).replay(store)
    assert result.rows == len(store)
    assert result.batches == -(-len(store) // batch_size)
    assert verdicts_equal(result.verdicts, batch_verdicts)
    assert verdict_objects(result.verdicts) == verdict_objects(batch_verdicts)
    # ... and byte-identical once serialised (what the CI smoke asserts).
    assert verdicts_digest(result.verdicts) == verdicts_digest(batch_verdicts)


def test_replay_object_store_matches_columnar_replay(corpus, fitted):
    # The bot records re-encoded one session per record (ids kept): other
    # session codes, same verdicts.
    detector, _table, batch_verdicts = fitted
    object_store = columnar_store(records(corpus.bot_store))
    result = ReplayDriver(detector, batch_size=313).replay(object_store)
    assert verdicts_equal(result.verdicts, batch_verdicts)


def test_replay_reproduces_pipeline_verdicts(corpus):
    pipeline = FPInconsistentPipeline()
    outcome = pipeline.run(corpus.bot_store, bot_table=corpus.columnar_tables.get("bots"))
    deployed = FPInconsistent(filter_list=outcome.filter_list)
    result = ReplayDriver(deployed, batch_size=256).replay(corpus.bot_store)
    assert verdicts_equal(result.verdicts, outcome.verdicts)
    counts = result.counts()
    assert counts["spatial"] > 0 and counts["temporal"] > 0
    assert counts["inconsistent"] >= max(counts["spatial"], counts["temporal"])


def test_verdict_serialisation_is_canonical(fitted):
    detector, table, batch_verdicts = fitted
    document = verdicts_to_jsonable(batch_verdicts)
    assert [entry["request_id"] for entry in document] == sorted(
        batch_verdicts.request_ids.tolist()
    )
    json.dumps(document)  # strictly JSON-able
    trimmed = detector.classify_table(table.take(np.arange(1, table.n_rows)))
    assert verdicts_digest(trimmed) != verdicts_digest(batch_verdicts)


def _reference_digest(verdicts):
    payload = json.dumps(verdicts_to_jsonable(verdicts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_verdicts_digest_matches_the_canonical_serialisation(fitted):
    _detector, _table, verdicts = fitted
    assert verdicts.flags and verdicts.spatial().any()
    assert verdicts_digest(verdicts) == _reference_digest(verdicts)
    empty = verdicts_from_objects({})
    assert verdicts_digest(empty) == _reference_digest(empty)

    rule = InconsistencyRule(
        category=AttributeCategory.LOCATION,
        attribute_a=Attribute.TIMEZONE,
        value_a="Amérique/Zürich",
        attribute_b=Attribute.PLATFORM,
        value_b=1.0,
        support=3,
    )
    flag = TemporalFlag(
        key_kind="cookie",
        key="ключ",
        attribute=Attribute.PLATFORM,
        previous_values=("Win32", True),
        new_value="Linux ✓",
    )
    unusual = verdicts_from_objects(
        {
            9: InconsistencyVerdict(request_id=9, spatial_rule=rule, temporal_flags=(flag,)),
            3: InconsistencyVerdict(
                request_id=3, spatial_rule=None, temporal_flags=(flag, flag)
            ),
            5: InconsistencyVerdict(request_id=5, spatial_rule=rule),
            1: InconsistencyVerdict(request_id=1, spatial_rule=None),
        }
    )
    assert verdicts_digest(unusual) == _reference_digest(unusual)


# -- ingestion -------------------------------------------------------------------


def test_single_batch_ingest_matches_from_store_extraction(corpus, fitted):
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    attributes = detector.table_attributes()
    reference = from_store(store, attributes=attributes)

    ingestor = StreamIngestor(attributes=attributes)
    rows = np.arange(len(store), dtype=np.int64)  # store order, like from_store
    batch = ingestor.ingest_rows(store.columns, rows)
    assert batch.attributes == reference.attributes
    for attribute in attributes:
        assert np.array_equal(batch.codes_of(attribute), reference.codes_of(attribute))
        assert batch.values_of(attribute) == reference.values_of(attribute)
    assert np.array_equal(batch.request_ids, reference.request_ids)
    assert np.array_equal(batch.timestamps, reference.timestamps)
    assert np.array_equal(batch.cookie_codes, reference.cookie_codes)
    assert batch.cookie_values == reference.cookie_values
    assert np.array_equal(batch.ip_codes, reference.ip_codes)
    assert batch.ip_values == reference.ip_values


def test_ingest_records_matches_ingest_rows(corpus, fitted):
    # Store order follows session order, which would hide a code order
    # keyed on sessions; a replay's time order does not.
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    attributes = detector.table_attributes()
    recorded = records(store)
    for arrival in (
        np.arange(len(store), dtype=np.int64),
        np.argsort(store.columns.timestamps, kind="stable"),
    ):
        from_rows = StreamIngestor(attributes=attributes)
        from_records = RecordIngestor(attributes=attributes)
        for start in range(0, len(store), 400):
            rows = arrival[start : start + 400]
            row_batch = from_rows.ingest_rows(store.columns, rows)
            record_batch = from_records.ingest_records([recorded[row] for row in rows.tolist()])
            for attribute in attributes:
                assert np.array_equal(
                    row_batch.codes_of(attribute), record_batch.codes_of(attribute)
                )
            assert np.array_equal(row_batch.cookie_codes, record_batch.cookie_codes)
            assert np.array_equal(row_batch.ip_codes, record_batch.ip_codes)
            assert np.array_equal(row_batch.request_ids, record_batch.request_ids)
        # Same codes in every batch, and the same vocabularies in code order.
        for attribute in attributes:
            assert row_batch.values_of(attribute) == record_batch.values_of(attribute)
        assert row_batch.cookie_values == record_batch.cookie_values
        assert row_batch.ip_values == record_batch.ip_values


def test_vocabulary_only_grows_and_codes_stay_stable(corpus, fitted):
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    half = len(store) // 2
    ingestor = StreamIngestor(attributes=detector.table_attributes())
    first = ingestor.ingest_rows(store.columns, np.arange(half, dtype=np.int64))
    snapshot_codes = {
        attribute: first.codes_of(attribute).copy() for attribute in first.attributes
    }
    snapshot_values = {
        attribute: list(first.values_of(attribute)) for attribute in first.attributes
    }
    ingestor.ingest_rows(store.columns, np.arange(half, len(store), dtype=np.int64))
    for attribute in first.attributes:
        # Earlier batches stay decodable: codes unchanged, decode lists
        # extended append-only.
        assert np.array_equal(first.codes_of(attribute), snapshot_codes[attribute])
        grown = first.values_of(attribute)
        assert grown[: len(snapshot_values[attribute])] == snapshot_values[attribute]
    assert ingestor.rows_ingested == len(store)
    assert ingestor.batches_emitted == 2


def test_ingest_rows_requires_renumbered_columns(corpus):
    builder_columns = corpus.bot_store.columns.take(np.arange(5, dtype=np.int64))
    builder_columns.request_ids = None
    with pytest.raises(ValueError, match="renumbered"):
        StreamIngestor().ingest_rows(builder_columns, np.arange(5, dtype=np.int64))


# -- incremental temporal state --------------------------------------------------


@pytest.mark.parametrize("slice_size", [53, 700])
def test_incremental_temporal_matches_batch_evaluation(fitted, slice_size):
    _detector, table, _verdicts = fitted
    temporal = TemporalInconsistencyDetector()
    full = temporal.evaluate_table(table)

    streaming = TemporalInconsistencyDetector()
    state = streaming.new_stream_state()
    order = np.argsort(table.timestamps, kind="stable")
    merged = {}
    for start in range(0, table.n_rows, slice_size):
        merged.update(
            streaming.observe_table(table.take(order[start : start + slice_size]), state)
        )
    assert merged == full
    assert tracked_devices(state) > 0
    assert observed_values(state) >= tracked_devices(state)


def test_stream_state_counts_match_the_dict_state_on_a_replay(corpus, fitted):
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    reference = ObjectTemporalDetector()
    reference.evaluate_store(store)  # leaves its per-request dict state behind
    expected = {key: tuple(values) for key, values in reference._seen.items()}

    temporal = TemporalInconsistencyDetector()
    state = temporal.new_stream_state()
    ingestor = StreamIngestor(attributes=detector.table_attributes())
    arrival = np.argsort(store.columns.timestamps, kind="stable")
    for start in range(0, len(store), 256):
        batch = ingestor.ingest_rows(store.columns, arrival[start : start + 256])
        temporal.observe_table(batch, state)
    assert tracked_devices(state) == len(expected)
    assert observed_values(state) == sum(len(values) for values in expected.values())
    assert state_entries(state) == expected


def _per_request_flags(table):
    """Flags of the per-request reference: ``observe`` over decoded rows in time order."""

    reference = ObjectTemporalDetector()
    flagged = {}
    for row in np.argsort(table.timestamps, kind="stable").tolist():
        fingerprint = Fingerprint(
            {
                attribute: value_at(table, attribute, row)
                for attribute in reference.tracked_attributes
                if value_at(table, attribute, row) is not None
            }
        )
        flags = reference.observe(
            fingerprint, cookie=cookie_at(table, row), ip_address=ip_at(table, row)
        )
        if flags:
            flagged[int(table.request_ids[row])] = flags
    return flagged


def test_falsy_cookie_in_the_middle_of_a_decode_list_tracks_nothing(fitted):
    _detector, table, _verdicts = fitted
    order = np.argsort(table.timestamps, kind="stable")
    sample = table.take(order[:90])
    sample.cookie_values = ["cookie-a", "", "cookie-b"]
    sample.cookie_codes = (np.arange(sample.n_rows) % 3).astype(np.int32)
    full = _per_request_flags(sample)
    assert TemporalInconsistencyDetector().evaluate_table(sample) == full

    # The second half arrives with its own decode list, "" elsewhere in it.
    first, second = sample.take(np.arange(45)), sample.take(np.arange(45, 90))
    second.cookie_values = ["cookie-b", "cookie-a", ""]
    second.cookie_codes = np.array([1, 2, 0], dtype=np.int32)[second.cookie_codes]
    temporal = TemporalInconsistencyDetector()
    state = temporal.new_stream_state()
    merged = temporal.observe_table(first, state)
    merged.update(temporal.observe_table(second, state))
    assert merged == full
    cookie_flags = [flag for flags in merged.values() for flag in flags
                    if flag.key_kind == "cookie"]
    assert cookie_flags  # the truthy keys do flag ...
    assert all(flag.key != "" for flag in cookie_flags)  # ... the "" key never
    assert all(key[1] != "" for key in state_entries(state))


def test_independent_tables_share_one_state(corpus, fitted):
    detector, _table, _verdicts = fitted
    ordered = sorted(records(corpus.bot_store), key=lambda record: record.timestamp)
    half = len(ordered) // 2
    attributes = detector.table_attributes()
    first = from_store(ordered[:half], attributes=attributes)
    second = from_store(ordered[half:], attributes=attributes)
    whole = from_store(ordered, attributes=attributes)
    # Each extraction owns its own decode lists, in its own code order.
    assert first.cookie_values is not second.cookie_values
    assert first.values_of(Attribute.PLATFORM) is not second.values_of(Attribute.PLATFORM)

    temporal = TemporalInconsistencyDetector()
    state = temporal.new_stream_state()
    merged = temporal.observe_table(first, state)
    merged.update(temporal.observe_table(second, state))
    full = TemporalInconsistencyDetector().evaluate_table(whole)
    assert merged == full
    # Some flags in the second table rest on state the first one left.
    earlier = set(first.cookie_values) | set(first.ip_values)
    later = set(second.request_ids.tolist())
    assert any(
        flag.key in earlier for request_id in later & set(merged) for flag in merged[request_id]
    )


def test_ip_key_growing_past_its_tolerance_lists_values_in_order(fitted):
    _detector, table, _verdicts = fitted
    timezones = table.values_of(Attribute.TIMEZONE)
    assert len(timezones) >= 4
    sample = table.take(np.arange(6, dtype=np.int64))
    sample.timestamps = np.arange(6, dtype=np.float64)
    sample.cookie_codes = np.full(6, -1, dtype=np.int32)
    sample.ip_values = ["10.0.0.1"]
    sample.ip_codes = np.zeros(6, dtype=np.int32)
    sample.codes_of(Attribute.TIMEZONE)[:] = [0, 1, 0, 2, 1, 3]

    temporal = TemporalInconsistencyDetector()
    state = temporal.new_stream_state()
    merged = temporal.observe_table(sample.take(np.arange(3)), state)
    merged.update(temporal.observe_table(sample.take(np.arange(3, 6)), state))
    ids = sample.request_ids.tolist()
    assert merged == {
        ids[3]: [TemporalFlag("ip", "10.0.0.1", Attribute.TIMEZONE,
                              (timezones[0], timezones[1]), timezones[2])],
        ids[5]: [TemporalFlag("ip", "10.0.0.1", Attribute.TIMEZONE,
                              (timezones[0], timezones[1], timezones[2]), timezones[3])],
    }
    assert merged == _per_request_flags(sample)
    assert tracked_devices(state) == 1 and observed_values(state) == 4


def test_observe_table_requires_metadata(fitted):
    detector, table, _verdicts = fitted
    temporal = detector.temporal_detector
    bare = table.with_columns(  # no request metadata
        {attribute: table.codes_of(attribute) for attribute in table.attributes}
    )
    with pytest.raises(ValueError, match="request metadata"):
        temporal.observe_table(bare, temporal.new_stream_state())


# -- online classifier -----------------------------------------------------------


def test_online_classifier_isolates_the_fitted_detector(fitted):
    detector, table, verdicts = fitted
    rules_before = len(detector.filter_list)
    classifier = OnlineClassifier(detector)
    classifier.classify_batch(table.take(np.arange(50, dtype=np.int64)))
    classifier.swap_filter_list(FilterList())
    assert classifier.swaps == 1
    assert len(classifier.filter_list) == 0
    assert len(detector.filter_list) == rules_before  # source untouched
    assert verdicts_equal(detector.classify_table(table), verdicts)  # no state leaked


def test_filter_list_setter_rejects_non_lists(fitted):
    detector, _table, _verdicts = fitted
    with pytest.raises(TypeError):
        detector.filter_list = ["not", "a", "list"]


def test_online_classifier_shares_one_rule_table_across_batches(fitted):
    detector, table, _verdicts = fitted
    classifier = OnlineClassifier(detector)
    first = classifier.classify_batch(table.take(np.arange(0, 300, dtype=np.int64)))
    second = classifier.classify_batch(table.take(np.arange(300, 600, dtype=np.int64)))
    assert first.rules is second.rules
    assert detector.filter_list.matcher() is detector.filter_list.matcher()


# -- the incremental matcher -----------------------------------------------------


def _late_rule(store, order, attributes, first_batch):
    """A rule on one row's (screen resolution, device) values, where the
    resolution first appears after the first *first_batch* rows."""

    ingestor = StreamIngestor(attributes=attributes)
    ingestor.ingest_rows(store.columns, order[:first_batch])
    known = ingestor.vocabulary_sizes()[Attribute.SCREEN_RESOLUTION]
    later = ingestor.ingest_rows(store.columns, order[first_batch:])
    codes = later.codes_of(Attribute.SCREEN_RESOLUTION)
    devices = later.codes_of(Attribute.UA_DEVICE)
    row = int(np.flatnonzero((codes >= known) & (devices >= 0))[0])
    return InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.SCREEN_RESOLUTION,
        value_a=value_at(later, Attribute.SCREEN_RESOLUTION, row),
        attribute_b=Attribute.UA_DEVICE,
        value_b=value_at(later, Attribute.UA_DEVICE, row),
        support=1,
    )


@pytest.mark.parametrize("batch_size", [1, 7, 37])
def test_incremental_matcher_matches_the_per_batch_compile(corpus, fitted, batch_size):
    """The compiled-once matcher, fed a growing vocabulary batch by batch,
    picks the rule the per-batch reference compile picks on every row —
    across a hot swap, an empty list, and a rule whose values only enter
    the vocabulary after batch 0."""

    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    attributes = detector.table_attributes()
    order = np.argsort(store.columns.timestamps, kind="stable")[:600]
    late = _late_rule(store, order, attributes, batch_size)
    mined = list(detector.filter_list)
    # The late rule leads its list, so it wins every row it matches.
    schedule = [FilterList([late] + mined), FilterList(mined[::2]), FilterList()]
    starts = range(0, order.size, batch_size)
    ingestor = StreamIngestor(attributes=attributes)
    state = detector.new_spatial_state()
    late_hits = 0
    for index, start in enumerate(starts):
        filter_list = schedule[3 * index // len(starts)]
        batch = ingestor.ingest_rows(store.columns, order[start : start + batch_size])
        matched = [
            None if rule < 0 else state.rules.rules[rule]
            for rule in state.match(filter_list, batch).tolist()
        ]
        assert matched == compile_per_table(filter_list, batch).first_match_rows(), index
        late_hits += sum(rule is late for rule in matched)
    assert late_hits > 0


def test_rule_added_to_the_deployed_list_applies_from_the_next_batch(corpus, fitted):
    detector, table, _verdicts = fitted
    deployed = FilterList()
    classifier = OnlineClassifier(
        FPInconsistent(
            filter_list=deployed,
            temporal=detector.temporal_detector,
            location_predicate=False,
        )
    )
    first, second = table.take(np.arange(0, 50)), table.take(np.arange(50, 100))
    assert not classifier.classify_batch(first).spatial().any()
    rule = InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.SCREEN_RESOLUTION,
        value_a=value_at(second, Attribute.SCREEN_RESOLUTION, 0),
        attribute_b=Attribute.UA_DEVICE,
        value_b=value_at(second, Attribute.UA_DEVICE, 0),
        support=1,
    )
    assert classifier.filter_list is deployed and deployed.add(rule)
    scored = classifier.classify_batch(second)
    assert scored.rules.rules[scored.rule_index[0]] == rule


def test_rule_hits_sum_to_the_spatial_count(corpus, fitted):
    detector, _table, _verdicts = fitted
    result = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    hits = result.rule_hits()
    assert sum(hits.values()) == result.counts()["spatial"] > 0
    assert hits.get("location_predicate", 0) > 0
    assert all(count > 0 for count in hits.values())


# -- filter-list refresh ---------------------------------------------------------


def test_window_mining_matches_fresh_extraction(corpus, fitted):
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    attributes = detector.table_attributes()
    ingestor = StreamIngestor(attributes=attributes)
    refresher = FilterListRefresher(interval_batches=1, window_rows=10**9)
    order = np.argsort(store.columns.timestamps, kind="stable")
    for start in range(0, len(store), 500):
        refresher.observe_batch(
            ingestor.ingest_rows(store.columns, order[start : start + 500])
        )
    mined_stream = refresher.refresh()

    ordered = sorted(records(store), key=lambda record: record.timestamp)
    fresh = ColumnarTable.from_fingerprints(
        [record.request.fingerprint for record in ordered], attributes
    )
    mined_fresh = SpatialInconsistencyMiner().mine_table(fresh)
    assert [rule.to_dict() for rule in mined_stream] == [
        rule.to_dict() for rule in mined_fresh
    ]


def test_sliding_window_keeps_exactly_the_last_rows(corpus, fitted):
    detector, _table, _verdicts = fitted
    store = corpus.bot_store
    attributes = detector.table_attributes()
    window = 700
    ingestor = StreamIngestor(attributes=attributes)
    refresher = FilterListRefresher(interval_batches=1, window_rows=window)
    order = np.argsort(store.columns.timestamps, kind="stable")
    for start in range(0, len(store), 256):  # misaligned with the window on purpose
        refresher.observe_batch(
            ingestor.ingest_rows(store.columns, order[start : start + 256])
        )
    assert refresher.rows_in_window == window

    ordered = sorted(records(store), key=lambda record: record.timestamp)[-window:]
    fresh = ColumnarTable.from_fingerprints(
        [record.request.fingerprint for record in ordered], attributes
    )
    assert [rule.to_dict() for rule in refresher.refresh()] == [
        rule.to_dict() for rule in SpatialInconsistencyMiner().mine_table(fresh)
    ]


def test_replay_hot_swaps_at_batch_boundaries(corpus, fitted):
    detector, _table, _verdicts = fitted
    refresher = FilterListRefresher(
        detector.miner, interval_batches=2, window_rows=1_000
    )
    result = ReplayDriver(detector, batch_size=300, refresher=refresher).replay(
        corpus.bot_store
    )
    assert result.refreshes
    batches = [entry["batch"] for entry in result.refreshes]
    assert batches == sorted(batches)
    # Re-mined after every second observed batch, so each new list is
    # first used at an even batch index; batch-count refreshes carry no
    # stream day.
    assert all(index > 0 and index % 2 == 0 for index in batches)
    assert all(entry["rules"] > 0 for entry in result.refreshes)
    assert all("stream_day" not in entry for entry in result.refreshes)


@pytest.mark.parametrize(
    "schedule", [dict(interval_batches=3), dict(interval_days=15.0)], ids=["batches", "days"]
)
def test_refresh_log_names_the_first_batch_scored_with_the_new_list(
    monkeypatch, corpus, fitted, schedule
):
    detector, _table, _verdicts = fitted
    swaps_per_batch = []
    real_classify = OnlineClassifier.classify_batch

    def recording_classify(self, batch):
        swaps_per_batch.append(self.swaps)
        return real_classify(self, batch)

    monkeypatch.setattr(OnlineClassifier, "classify_batch", recording_classify)
    refresher = FilterListRefresher(detector.miner, window_rows=1_000, **schedule)
    result = ReplayDriver(detector, batch_size=200, refresher=refresher).replay(
        corpus.bot_store
    )
    assert len(result.refreshes) >= 2
    for swaps, entry in enumerate(result.refreshes, start=1):
        # ``batch`` is the 0-based index of the first batch the new list
        # scored: the swap count steps up exactly there.
        index = entry["batch"]
        assert swaps_per_batch[index - 1] == swaps - 1
        if index < len(swaps_per_batch):
            assert swaps_per_batch[index] == swaps
    if "interval_days" in schedule:
        days = [entry["stream_day"] for entry in result.refreshes]
        assert days == sorted(days) and days[-1] <= 90
    else:
        assert all("stream_day" not in entry for entry in result.refreshes)


def test_refresher_requires_exactly_one_interval_knob():
    with pytest.raises(ValueError, match="exactly one"):
        FilterListRefresher(window_rows=100)
    with pytest.raises(ValueError, match="exactly one"):
        FilterListRefresher(interval_batches=2, interval_days=1.0, window_rows=100)
    with pytest.raises(ValueError, match="interval_days"):
        FilterListRefresher(interval_days=0, window_rows=100)


def test_day_refresher_needs_timestamps(fitted):
    _detector, table, _verdicts = fitted
    refresher = FilterListRefresher(interval_days=1.0, window_rows=100)
    stripped = table.with_columns({
        attribute: table.codes_of(attribute) for attribute in table.attributes
    })
    with pytest.raises(ValueError, match="timestamps"):
        refresher.observe_batch(stripped)


def test_day_refresher_fires_on_stream_clock(corpus, fitted):
    detector, _table, _verdicts = fitted
    refresher = FilterListRefresher(
        detector.miner, interval_days=20.0, window_rows=2_000
    )
    driver = ReplayDriver(detector, batch_size=256, refresher=refresher)
    result = driver.replay(corpus.bot_store)
    # A 90-day campaign crosses a 20-day cadence a few times — refreshes
    # happen, but far fewer than once per batch.
    assert 1 <= len(result.refreshes) < result.batches
    assert refresher.stream_day is not None and refresher.stream_day <= 90


def test_refresher_validates_knobs():
    with pytest.raises(ValueError):
        FilterListRefresher(interval_batches=0, window_rows=10)
    with pytest.raises(ValueError):
        FilterListRefresher(interval_batches=1, window_rows=0)
    with pytest.raises(ValueError, match="window is empty"):
        FilterListRefresher(interval_batches=1, window_rows=10).refresh()


# -- edges -----------------------------------------------------------------------


def test_replay_of_an_empty_store(fitted):
    detector, _table, _verdicts = fitted
    empty = RequestStore(renumbered(RecordColumnsBuilder().columns()))
    result = ReplayDriver(detector, batch_size=64).replay(empty)
    assert result.rows == 0 and result.batches == 0
    assert len(result.verdicts) == 0
    assert result.rows_per_second == 0.0
    assert result.latency_quantile(0.5) == 0.0
    assert result.counts() == {"spatial": 0, "temporal": 0, "inconsistent": 0}


def test_replay_driver_validates_batch_size(fitted):
    detector, _table, _verdicts = fitted
    with pytest.raises(ValueError):
        ReplayDriver(detector, batch_size=0)


def test_latency_quantiles_are_ordered(corpus, fitted):
    detector, _table, _verdicts = fitted
    result = ReplayDriver(detector, batch_size=128).replay(corpus.bot_store)
    p50, p99 = result.latency_quantile(0.50), result.latency_quantile(0.99)
    assert 0 < p50 <= p99
    with pytest.raises(ValueError):
        result.latency_quantile(1.5)
