"""Tests for the columnar shard transport and the request store.

Covers the transport contract surface: payload round-trips are
byte-identical to the object-at-a-time reference (records ↔ payload ↔
records), archives of any older format are evicted and rebuilt, the
store answers splits and subsets exactly like the reference object store, the
fan-out clamp derives from the transport's transfer cost, and the widened
synthetic address space fails loudly instead of silently colliding.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from reference.fingerprint import fingerprint_dict
from reference.generation import reference_shard_store
from reference.store import (
    decision_objects,
    factorize,
    header_maps,
    evading,
    object_store,
    records,
    renumbered,
    session_fingerprints,
    shard_store,
    split,
    unique_fingerprints,
)
from repro.analysis.cache import (
    MMAP_ENV_VAR,
    CorpusCache,
    corpus_cache_key,
    corpus_digest,
    load_corpus,
    save_corpus,
)
from repro.analysis.engine import (
    MIN_RECORDS_PER_WORKER_COLUMNAR,
    PAYLOAD_BYTES_PER_RECORD_CEILING,
    CorpusEngine,
    build_or_load_corpus,
    run_shard,
)
from repro.geo.asn import ASN_REGISTRY, AsnKind
from repro.geo.ipaddr import (
    DEFAULT_KIND_OCTET_RANGES,
    AddressSpaceExhausted,
    GEO_REGIONS,
    IpAddressSpace,
)
from repro.honeysite.storage import (
    RecordColumns,
    RecordColumnsBuilder,
    RequestStore,
    StoreFormatError,
    split_rows,
)

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.json"

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


def record_dicts(store, drop_ids: bool = False):
    out = []
    for record in records(store):
        data = record.to_dict()
        if drop_ids:
            data["request"].pop("request_id")
        out.append(data)
    return out


@pytest.fixture(scope="module")
def columnar_corpus():
    """A corpus built over the columnar shard transport (the default)."""

    return CorpusEngine(**TINY).build(workers=1)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_CORPUS.read_text())


# -- records ↔ payload ↔ records byte identity -----------------------------------


def test_columnar_transport_is_byte_identical_to_object_transport(columnar_corpus):
    # The object-at-a-time reference shards, concatenated in plan order and
    # renumbered 1..N, are what the merged store's columns must encode.
    reference = [
        record
        for spec in CorpusEngine(**TINY).plan()
        for record in record_dicts(reference_shard_store(spec), drop_ids=True)
    ]
    for request_id, data in enumerate(reference, start=1):
        data["request"]["request_id"] = request_id
    assert isinstance(columnar_corpus.store, RequestStore)
    assert record_dicts(columnar_corpus.store) == reference


def test_shard_payload_materialises_to_the_object_shard(columnar_corpus):
    spec = CorpusEngine(**TINY).plan()[3]
    columnar = run_shard(spec)
    assert isinstance(columnar.columns, RecordColumns)
    # Shard-local request ids come from a process-global counter on the
    # reference path and a renumbered 1..n sequence on the columnar path —
    # everything else must match bit for bit.
    assert record_dicts(shard_store(columnar), drop_ids=True) == record_dicts(
        reference_shard_store(spec), drop_ids=True
    )


def test_record_columns_persistence_roundtrip(columnar_corpus):
    columns = columnar_corpus.store.columns
    arrays, meta = columns.to_payload()
    meta = json.loads(json.dumps(meta))  # the JSON boundary the archive crosses
    rebuilt = RecordColumns.from_payload(arrays, meta)
    assert record_dicts(RequestStore(rebuilt)) == record_dicts(columnar_corpus.store)


def test_record_columns_validate_rejects_corruption(columnar_corpus):
    columns = columnar_corpus.store.columns
    arrays, meta = columns.to_payload()
    broken = dict(arrays)
    broken["served_codes"] = arrays["served_codes"].copy()
    broken["served_codes"][0] = len(columns.cookie_values) + 7
    with pytest.raises(StoreFormatError):
        RecordColumns.from_payload(broken, meta)
    truncated = dict(arrays)
    truncated["timestamps"] = arrays["timestamps"][:-1]
    with pytest.raises(StoreFormatError):
        RecordColumns.from_payload(truncated, meta)


def test_concat_rejects_conflicting_source_urls(columnar_corpus):
    columns = columnar_corpus.store.columns
    clone = columns.take(np.arange(columns.n_rows, dtype=np.int64))
    clone.url_paths = ["/different" + path for path in columns.url_paths]
    with pytest.raises(ValueError):
        RecordColumns.concat([columns, clone])


# -- store equivalence ------------------------------------------------------------


def test_lazy_store_is_immutable(columnar_corpus):
    store = columnar_corpus.store
    # No mutators and no record access: a store is a view over its columns.
    for name in ("add", "extend", "filter", "records", "__iter__", "__getitem__"):
        assert not hasattr(store, name), name
    # Subsets are new stores over row slices; the parent is untouched.
    head = store.take(np.arange(3))
    assert len(head) == 3 and len(store) == store.columns.n_rows
    assert head.columns.sessions is store.columns.sessions


def test_lazy_split_matches_object_split(columnar_corpus):
    lazy = columnar_corpus.store
    reference = object_store(lazy)
    lazy_a, lazy_b = split(lazy, 0.8, np.random.default_rng(11))
    ref_a, ref_b = reference.split(0.8, np.random.default_rng(11))
    assert isinstance(lazy_a, RequestStore)
    assert record_dicts(lazy_a) == record_dicts(ref_a)
    assert record_dicts(lazy_b) == record_dicts(ref_b)
    # and the split rows themselves agree with the shared helper
    first, second = split_rows(len(reference), 0.8, np.random.default_rng(11))
    assert np.array_equal(lazy_a.request_id_array(), reference.request_id_array()[first])
    assert np.array_equal(lazy_b.request_id_array(), reference.request_id_array()[second])


def test_lazy_subsets_and_columns_match_object_store(columnar_corpus):
    lazy = columnar_corpus.store
    reference = object_store(lazy)
    assert lazy.sources() == reference.sources()
    for source in reference.sources()[:4]:
        assert record_dicts(lazy.by_source(source)) == record_dicts(
            reference.by_source(source)
        )
    two = set(reference.sources()[:2])
    assert record_dicts(lazy.by_sources(two)) == record_dicts(reference.by_sources(two))
    for detector in ("DataDome", "BotD"):
        assert np.array_equal(lazy.evaded_rows(detector), reference.evaded_rows(detector))
        assert lazy.evasion_rate(detector) == reference.evasion_rate(detector)
        assert record_dicts(evading(lazy, detector)) == record_dicts(
            reference.evading(detector)
        )
    assert np.array_equal(lazy.request_id_array(), reference.request_id_array())
    codes, names, index = lazy.source_rows()
    assert [names[code] for code in codes.tolist()] == [
        record.source for record in reference
    ]
    assert lazy.unique_ips() == reference.unique_ips()
    assert lazy.unique_cookies() == reference.unique_cookies()
    assert unique_fingerprints(lazy) == reference.unique_fingerprints()


def test_subset_stores_answer_without_materialising(columnar_corpus):
    bots = columnar_corpus.bot_store
    assert isinstance(bots, RequestStore)
    assert len(bots) == sum(columnar_corpus.service_volumes.values())
    assert bots.evasion_rate("DataDome") >= 0.0


# -- store edges ------------------------------------------------------------------


def empty_lazy_store() -> RequestStore:
    return RequestStore(renumbered(RecordColumnsBuilder().columns()))


def test_empty_lazy_store_answers_every_query(columnar_corpus):
    store = empty_lazy_store()
    assert len(store) == 0
    assert records(store) == []
    assert store.sources() == ()
    assert store.unique_ips() == store.unique_cookies() == unique_fingerprints(store) == 0
    assert store.request_id_array().size == 0
    for detector in ("DataDome", "BotD"):
        assert store.evaded_rows(detector).size == 0
        assert store.evasion_rate(detector) == 0.0
        assert len(evading(store, detector)) == 0
    assert len(store.by_sources({"S1", "S2"})) == 0
    first, second = split(store, 0.8, np.random.default_rng(3))
    assert len(first) == len(second) == 0
    assert len(store.take([])) == 0


def test_single_session_shard_store(columnar_corpus):
    columns = columnar_corpus.store.columns
    busiest = int(np.argmax(np.bincount(columns.session_codes)))
    rows = np.nonzero(columns.session_codes == busiest)[0]
    assert rows.size > 1  # the busiest session spans several requests
    single = RequestStore(renumbered(columns.take(rows)))
    reference = object_store(single)
    assert single.unique_ips() == 1
    assert unique_fingerprints(single) == 1
    assert len(single.sources()) == 1
    assert single.unique_cookies() == reference.unique_cookies()
    assert record_dicts(single) == record_dicts(reference)


def test_iteration_is_stable_after_partial_array_level_consumption(columnar_corpus):
    store = columnar_corpus.bot_store
    # Array-level consumption first.
    ids = store.request_id_array()
    evaded = store.evaded_rows("BotD")
    sources = store.sources()
    first, _second = split(store, 0.8, np.random.default_rng(7))
    # The reference records decoded afterwards (twice) agree with every
    # array-level answer, which stays unchanged.
    records_a = records(store)
    records_b = records(store)
    assert [a.to_dict() for a in records_a] == [b.to_dict() for b in records_b]
    assert [record.request.request_id for record in records_a] == ids.tolist()
    assert [record.evaded("BotD") for record in records_a] == evaded.tolist()
    assert store.sources() == sources
    # A slice taken earlier decodes to the parent's rows.
    split_ids = first.request_id_array()
    assert [record.request.request_id for record in records(first)] == split_ids.tolist()


# -- object-free figure series ----------------------------------------------------


def test_figure9_columnar_matches_object_oracle(columnar_corpus):
    from reference.analysis import figure9_daily_series as reference_series

    from repro.analysis.figures import figure9_daily_series

    whole = columnar_corpus.store
    for store in (whole, columnar_corpus.bot_store):
        lazy_series = figure9_daily_series(store)
        assert lazy_series == reference_series(object_store(store))


def test_new_fingerprints_columnar_matches_object_oracle(columnar_corpus):
    from reference.analysis import new_fingerprints_over_time as reference_counts

    from repro.analysis.figures import new_fingerprints_over_time

    whole = columnar_corpus.store
    for store in (whole, columnar_corpus.real_user_store):
        lazy_counts = new_fingerprints_over_time(store)
        assert lazy_counts == reference_counts(object_store(store))
        assert sum(lazy_counts) <= len(store)


def test_figure_series_on_empty_lazy_store():
    from repro.analysis.figures import figure9_daily_series, new_fingerprints_over_time

    store = empty_lazy_store()
    assert figure9_daily_series(store).days == ()
    assert new_fingerprints_over_time(store) == ()


# -- archive format versions --------------------------------------------------------


def write_v2_archive(corpus, directory):
    """Persist *corpus* as a format-version-2 entry.

    Version 2 stored the records as versioned gzip JSONL beside
    ``columnar_<subset>.npz`` table sidecars, under a ``meta.json`` whose
    ``format_version`` is 2.
    """

    save_corpus(corpus, directory)
    (directory / "store_columnar.npz").unlink()
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 2
    meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True))
    with gzip.open(directory / "store.jsonl.gz", "wt", encoding="utf-8") as handle:
        header = {"format": "repro-request-store", "version": 2, "count": len(corpus.store)}
        handle.write(json.dumps(header) + "\n")
        for record in records(corpus.store):
            handle.write(json.dumps(record.to_dict()) + "\n")
    for subset in ("bots", "real_users"):
        arrays, table_meta = corpus.columnar_tables[subset].to_arrays()
        table_meta = {"version": 1, **table_meta}
        np.savez_compressed(
            directory / f"columnar_{subset}.npz", meta=np.array(json.dumps(table_meta)), **arrays
        )


def assert_old_entry_evicts_and_rebuilds(write_archive, corpus, golden, root):
    """An old-format entry under the live key is a miss, is evicted, and
    the rebuild stores (then serves) the golden corpus."""

    cache = CorpusCache(root)
    key = corpus_cache_key(**TINY, campaign_days=90)
    write_archive(corpus, cache.path_for(key))
    with pytest.raises(StoreFormatError):
        load_corpus(cache.path_for(key))
    assert cache.has(key)
    assert cache.load(key) is None
    assert not cache.path_for(key).exists()  # evicted, not left to linger
    rebuilt, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "miss"
    assert corpus_digest(rebuilt) == golden["corpus_digest"][str(TINY["seed"])]
    warm, warm_status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert warm_status == "hit"
    assert corpus_digest(warm) == corpus_digest(rebuilt)


def test_v2_archive_is_evicted_and_rebuilt(tmp_path, columnar_corpus, golden):
    assert_old_entry_evicts_and_rebuilds(write_v2_archive, columnar_corpus, golden, tmp_path)


def test_tampered_embedded_table_evicts_the_archive(tmp_path, columnar_corpus):
    archive = tmp_path / "v4"
    save_corpus(columnar_corpus, archive)
    path = archive / "store_columnar.npz"
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    prefix = meta["tables"][0]["prefix"]
    arrays[f"{prefix}request_ids"] = arrays[f"{prefix}request_ids"] + 1000
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(StoreFormatError):
        load_corpus(archive)


def test_tampered_v4_code_stream_evicts_the_archive(tmp_path, columnar_corpus):
    """Out-of-range fingerprint value codes must read as a miss, not decode
    into a silently wrong corpus."""

    archive = tmp_path / "v4"
    save_corpus(columnar_corpus, archive)
    path = archive / "store_columnar.npz"
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    tampered = arrays["fp_value_codes"].astype(np.int32)
    tampered[0] = 10**6
    arrays["fp_value_codes"] = tampered
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(StoreFormatError):
        load_corpus(archive)


def test_truncated_v4_archive_evicts(tmp_path, columnar_corpus):
    archive = tmp_path / "v4"
    save_corpus(columnar_corpus, archive)
    path = archive / "store_columnar.npz"
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(StoreFormatError):
        load_corpus(archive)


def write_v3_archive(corpus, directory):
    """Persist *corpus* as a faithful format-version-3 archive.

    Version 3 kept the nine per-row/per-session arrays but serialised the
    session dictionaries as JSON objects (fingerprint dicts, header maps,
    decision records) in the archive meta, deflate-compressed — byte-wise
    what a PR-4/PR-5 build wrote.
    """

    save_corpus(corpus, directory)
    columns = corpus.store.columns
    path = directory / "store_columnar.npz"
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    for name in (
        "fp_attr_codes",
        "fp_value_codes",
        "fp_offsets",
        "header_key_codes",
        "header_value_codes",
        "header_offsets",
        "decision_detectors",
        "decision_is_bot",
        "decision_scores",
        "decision_signal_codes",
        "decision_signal_offsets",
    ):
        del arrays[name]
    sessions = columns.sessions
    arrays["session_headers"] = np.asarray(sessions.session_headers, dtype=np.int32)
    arrays["session_datadome"] = np.asarray(sessions.session_datadome, dtype=np.int32)
    arrays["session_botd"] = np.asarray(sessions.session_botd, dtype=np.int32)
    meta["version"] = 3
    meta["store"] = {
        "cookie_values": list(columns.cookie_values),
        "sources": list(columns.sources),
        "url_paths": list(columns.url_paths),
        "session_fingerprints": [
            fingerprint_dict(fingerprint) for fingerprint in session_fingerprints(columns)
        ],
        "session_ips": list(columns.session_ips),
        "headers": [dict(entry) for entry in header_maps(columns)],
        "decisions": [
            {
                "detector": decision.detector,
                "is_bot": decision.is_bot,
                "score": decision.score,
                "signals": list(decision.signals),
            }
            for decision in decision_objects(columns)
        ],
    }
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    meta_path = directory / "meta.json"
    document = json.loads(meta_path.read_text())
    document["format_version"] = 3
    meta_path.write_text(json.dumps(document, indent=1, sort_keys=True))


def test_v3_archive_is_evicted_and_rebuilt(tmp_path, columnar_corpus, golden):
    assert_old_entry_evicts_and_rebuilds(write_v3_archive, columnar_corpus, golden, tmp_path)


def write_unicode_meta_archive(corpus, directory):
    """Persist *corpus* as a version-4 archive whose ``meta`` member is the
    0-d UTF-32 unicode scalar that builds wrote before the ``uint8`` vector;
    every other member is unchanged and the archive stays uncompressed."""

    save_corpus(corpus, directory)
    path = directory / "store_columnar.npz"
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["meta"] = np.array(arrays["meta"].tobytes().decode("utf-8"))
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def test_unicode_meta_archive_is_evicted_and_rebuilt(
    tmp_path, columnar_corpus, golden, monkeypatch
):
    """The version stays 4 (it is inside the digested meta), so the legacy
    ``meta`` encoding itself must read as a miss, mapped or in RAM."""

    for mapped in ("1", "0"):
        monkeypatch.setenv(MMAP_ENV_VAR, mapped)
        assert_old_entry_evicts_and_rebuilds(
            write_unicode_meta_archive, columnar_corpus, golden, tmp_path / mapped
        )


# -- fan-out clamp ----------------------------------------------------------------


def test_clamp_derives_from_transport_cost():
    vectorized = CorpusEngine(seed=7, scale=0.05)
    assert vectorized.records_per_worker_floor() == MIN_RECORDS_PER_WORKER_COLUMNAR

    specs = vectorized.plan()
    planned = sum(
        spec.request_budget
        if spec.request_budget is not None
        else spec.profile.scaled_requests(vectorized.scale)
        if spec.kind == "bots"
        else spec.num_requests
        for spec in specs
    )
    # The columnar transport's floor makes scale-0.05 defaults fan out,
    # while the tiny configuration stays on one inline worker.
    expected = min(8, planned // MIN_RECORDS_PER_WORKER_COLUMNAR, len(specs))
    assert expected > 1
    assert vectorized.effective_workers(8, specs) == expected
    tiny = CorpusEngine(**TINY)
    assert tiny.effective_workers(8, tiny.plan()) == 1


def test_clamp_override_and_plan_reporting():
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    assert engine.records_per_worker_floor() == 1
    corpus = engine.build(workers=3)
    assert engine.last_plan["effective_workers"] == 3
    assert engine.last_plan["min_records_per_worker"] == 1
    assert engine.last_plan["payload_bytes"] > 0
    assert len(corpus.store) == engine.last_plan["planned_records"] == sum(
        corpus.service_volumes.values()
    ) + corpus.real_user_requests + sum(corpus.privacy_requests.values())
    with pytest.raises(ValueError):
        CorpusEngine(**TINY, min_records_per_worker=0)


def test_payload_bytes_recorded_for_process_transfers():
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    engine.build(workers=2)
    assert engine.last_plan["payload_bytes"] > 0


def test_payload_bytes_recorded_for_serial_builds():
    engine = CorpusEngine(**TINY)
    engine.build(workers=1)
    assert engine.last_plan["effective_workers"] == 1
    assert engine.last_plan["payload_bytes"] > 0


def test_shard_payload_contains_no_pickled_objects():
    """The v4 transport contract: pickling a shard result's columns (the
    whole transport) serialises numpy arrays and scalar decode lists —
    never a fingerprint, decision or request object (their defining
    modules must not appear in the blob)."""

    import pickle

    spec = CorpusEngine(**TINY).plan()[0]
    result = run_shard(spec)
    blob = pickle.dumps(result.columns, pickle.HIGHEST_PROTOCOL)
    for module in (b"fingerprint.fingerprint", b"antibot.base", b"network.request"):
        assert module not in blob, f"shard payload pickles objects from {module!r}"


def test_payload_bytes_per_record_below_committed_ceiling():
    """Regression gate backing the CI payload check: measured transfer cost
    must stay under the committed ceiling, itself below the ~353 B/record
    v3 baseline."""

    assert PAYLOAD_BYTES_PER_RECORD_CEILING < 353
    engine = CorpusEngine(**TINY)
    engine.build(workers=1)
    per_record = engine.last_plan["payload_bytes"] / engine.last_plan["planned_records"]
    assert per_record <= PAYLOAD_BYTES_PER_RECORD_CEILING, per_record


def test_first_occurrence_recode_matches_factorize():
    from repro.honeysite.storage import first_occurrence_recode

    # values contain duplicates under distinct codes (sessions sharing an
    # address) and an unused entry; rows visit them out of dictionary order
    values = ["b", "a", "b", "c", "unused"]
    rows = np.array([3, 0, 2, 1, 0, 3, 2], dtype=np.int64)
    codes, recoded = first_occurrence_recode(rows, values)
    expected_codes, expected_values = factorize([values[code] for code in rows])
    assert np.array_equal(codes, expected_codes)
    assert recoded == expected_values
    empty_codes, empty_values = first_occurrence_recode(np.empty(0, np.int64), [])
    assert empty_codes.size == 0 and empty_values == []


# -- widened address space --------------------------------------------------------


def test_default_segments_preserve_primary_bases():
    # The primary segment of every kind keeps its historical base/span, so
    # previously generated corpora keep their exact addresses.
    assert DEFAULT_KIND_OCTET_RANGES[AsnKind.RESIDENTIAL_ISP][0] == (100, 10)
    assert DEFAULT_KIND_OCTET_RANGES[AsnKind.MOBILE_CARRIER][0] == (110, 10)
    assert DEFAULT_KIND_OCTET_RANGES[AsnKind.CLOUD_PROVIDER][0] == (34, 11)
    assert DEFAULT_KIND_OCTET_RANGES[AsnKind.HOSTING_PROVIDER][0] == (45, 10)
    # capacity = sum of all configured segments
    capacity = sum(span * 256 for _base, span in DEFAULT_KIND_OCTET_RANGES[AsnKind.CLOUD_PROVIDER])
    assert capacity == (11 + 20) * 256


def test_allocation_flows_into_extension_segment():
    space = IpAddressSpace()
    primary_base, primary_span = DEFAULT_KIND_OCTET_RANGES[AsnKind.CLOUD_PROVIDER][0]
    extension_base, _ = DEFAULT_KIND_OCTET_RANGES[AsnKind.CLOUD_PROVIDER][1]
    last_primary = primary_span * 256 - 1
    assert space._block_octets(AsnKind.CLOUD_PROVIDER, last_primary) == (
        primary_base + primary_span - 1,
        255,
    )
    assert space._block_octets(AsnKind.CLOUD_PROVIDER, last_primary + 1) == (
        extension_base,
        0,
    )


def test_exhaustion_raises_a_clear_error():
    space = IpAddressSpace(kind_ranges={AsnKind.CLOUD_PROVIDER: ((34, 1),)})
    cloud_asns = [asn for asn, record in ASN_REGISTRY.items() if record.kind is AsnKind.CLOUD_PROVIDER]
    with pytest.raises(AddressSpaceExhausted, match="cloud_provider.*256 /16 blocks"):
        for _round in range(2000):
            for asn in cloud_asns:
                for region in GEO_REGIONS:
                    space.assignment_for(asn, region)


def test_kind_ranges_must_be_disjoint_and_sane():
    with pytest.raises(ValueError, match="disjoint"):
        IpAddressSpace(kind_ranges={AsnKind.CLOUD_PROVIDER: ((100, 5),)})
    with pytest.raises(ValueError, match="base \\+ span"):
        IpAddressSpace(kind_ranges={AsnKind.CLOUD_PROVIDER: ((250, 20),)})
    with pytest.raises(ValueError, match="at least one"):
        IpAddressSpace(kind_ranges={AsnKind.CLOUD_PROVIDER: ()})
