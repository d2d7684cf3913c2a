"""Tests for the reporting analyses (``repro report``).

Every analysis answers a store bit-identically to its record-iterating
oracle in ``tests/reference/analysis.py`` — on a regular corpus, on
edge-case stores (empty, no evading rows, missing probed attributes, a
single session) and on a memory-mapped archive — and the materialised
record counter stays put while it does so.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from reference import analysis as reference
from reference import store as reference_store
from reference.archive import load_corpus_in_ram
from reference.fingerprint import without
from reference.ml import FingerprintObjectEncoder

import repro.analysis as columnar_api
import repro.analysis.attributes as attributes_module
import repro.analysis.figures as figures_module
import repro.analysis.report as report_module
from repro.analysis.attributes import table2, train_evasion_classifiers
from repro.analysis.cache import load_corpus, save_corpus
from repro.analysis.corpus import build_corpus
from repro.analysis.engine import CorpusEngine
from repro.analysis.figures import (
    canonical_fingerprint_rows,
    figure4_plugin_evasion,
    figure7_iphone_resolutions,
    figure8_location_histograms,
    figure9_daily_series,
    new_fingerprints_over_time,
)
from repro.analysis.ip_analysis import analyze_asn_blocklist, analyze_ip_blocklist
from repro.analysis.report import Report, generate_report
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import grouping_value
from repro.geo.asn import AsnBlocklist, IpBlocklist
from repro.honeysite.storage import (
    RecordColumns,
    RecordColumnsBuilder,
    RequestStore,
    SessionArrays,
    materialized_record_count,
)
from repro.ml.encoding import FingerprintEncoder

GOLDEN_TABLE2 = Path(__file__).parent / "golden" / "table2.json"

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return CorpusEngine(**TINY).build(workers=1)


@pytest.fixture(scope="module")
def lazy_store(tiny_corpus):
    store = tiny_corpus.bot_store
    assert isinstance(store, RequestStore)
    return store


@pytest.fixture(scope="module")
def object_store(lazy_store):
    return reference_store.object_store(lazy_store)


@pytest.fixture(scope="module")
def regions(tiny_corpus):
    return {
        profile.name: profile.advertised_region
        for profile in tiny_corpus.bot_profiles
        if profile.advertised_region
    }


def empty_lazy_store() -> RequestStore:
    return RequestStore(reference_store.renumbered(RecordColumnsBuilder().columns()))


def rebuilt_store(columns: RecordColumns, *, strip=(), rewrite=None) -> RequestStore:
    """A store over *columns* re-encoded through the object-dictionary
    constructor, optionally with *strip* attributes removed from every
    session fingerprint and ``rewrite(session, fingerprint)`` applied."""

    sessions = columns.sessions
    fingerprints = reference_store.session_fingerprints(columns)
    if strip:
        fingerprints = [without(fingerprint, *strip) for fingerprint in fingerprints]
    if rewrite is not None:
        fingerprints = [rewrite(session, fp) for session, fp in enumerate(fingerprints)]
    return RequestStore(
        RecordColumns(
            timestamps=columns.timestamps,
            session_codes=columns.session_codes,
            presented_codes=columns.presented_codes,
            served_codes=columns.served_codes,
            source_codes=columns.source_codes,
            cookie_values=list(columns.cookie_values),
            sources=list(columns.sources),
            url_paths=list(columns.url_paths),
            session_fingerprints=fingerprints,
            session_headers=sessions.session_headers,
            session_datadome=sessions.session_datadome,
            session_botd=sessions.session_botd,
            session_ips=list(sessions.session_ips),
            headers=reference_store.header_maps(columns),
            decisions=reference_store.decision_objects(columns),
            request_ids=columns.request_ids,
        )
    )


def edge_store(lazy_store: RequestStore, case: str) -> RequestStore:
    columns = lazy_store.columns
    if case == "empty":
        return empty_lazy_store()
    if case == "no_evaders":
        rows = np.nonzero(
            ~columns.evaded_rows("DataDome") & ~columns.evaded_rows("BotD")
        )[0]
        assert rows.size  # the tiny corpus detects some requests outright
        return RequestStore(reference_store.renumbered(columns.take(rows)))
    if case == "missing_attributes":
        return rebuilt_store(
            columns,
            strip=(Attribute.PLUGINS, Attribute.SCREEN_RESOLUTION, Attribute.TIMEZONE),
        )
    if case == "single_session":
        busiest = int(np.argmax(np.bincount(columns.session_codes)))
        rows = np.nonzero(columns.session_codes == busiest)[0]
        assert rows.size > 1
        return RequestStore(reference_store.renumbered(columns.take(rows)))
    raise AssertionError(case)


def analysis_battery(api, store: RequestStore, geo, regions) -> dict:
    """Every analysis of *api* (``repro.analysis`` or the reference), as one
    comparable result dictionary."""

    rows = api.table1_rows(store)
    return {
        "table1": rows,
        "overall": api.overall_detection_rates(store),
        "cohort_datadome": api.cohort_comparison(store, "DataDome"),
        "cohort_botd": api.cohort_comparison(store, "BotD"),
        "dual": api.dual_evader_summary(store),
        "appendix_c": api.appendix_c_combination(store),
        "figure4": api.figure4_plugin_evasion(store),
        "figure5": api.figure5_core_cdfs(
            store,
            [row.service for row in rows[:3]],
            [row.service for row in rows[-3:]],
        ),
        "figure6": api.figure6_device_evasion(store),
        "figure7": api.figure7_iphone_resolutions(store),
        "figure8": api.figure8_location_histograms(store),
        "figure9": api.figure9_daily_series(store),
        "new_fingerprints": api.new_fingerprints_over_time(store),
        "figure10": api.figure10_platform_spread(store),
        "section62": api.section62_geo_match(store, regions),
        "asn_blocklist": api.analyze_asn_blocklist(store, geo),
        "ip_blocklist": api.analyze_ip_blocklist(store),
    }


def test_battery_matches_object_oracle_with_zero_materialisation(
    tiny_corpus, lazy_store, object_store, regions
):
    geo = tiny_corpus.site.geo
    before = materialized_record_count()
    columnar = analysis_battery(columnar_api, lazy_store, geo, regions)
    assert materialized_record_count() == before
    expected = analysis_battery(reference, object_store, geo, regions)
    for key, value in expected.items():
        assert columnar[key] == value, key


@pytest.mark.parametrize(
    "case", ("empty", "no_evaders", "missing_attributes", "single_session")
)
def test_edge_case_stores_match_object_oracle(tiny_corpus, lazy_store, regions, case):
    lazy = edge_store(lazy_store, case)
    objects = reference_store.object_store(lazy)
    geo = tiny_corpus.site.geo
    before = materialized_record_count()
    columnar = analysis_battery(columnar_api, lazy, geo, regions)
    assert materialized_record_count() == before
    expected = analysis_battery(reference, objects, geo, regions)
    for key, value in expected.items():
        assert columnar[key] == value, (case, key)


def test_missing_attribute_figures_degrade_not_crash(lazy_store):
    stripped = edge_store(lazy_store, "missing_attributes")
    points = figure4_plugin_evasion(stripped)
    assert points and all(
        point.requests == 0 and point.evasion_probability == 0.0 for point in points
    )
    assert figure7_iphone_resolutions(stripped).unique_resolutions == 0
    by_timezone, by_ip = figure8_location_histograms(stripped)
    assert by_timezone == {}
    assert by_ip  # IP country is probed from the address, not the fingerprint


def train_evasion_classifier(store, detector, **options):
    """The product's classifier for one detector."""

    return train_evasion_classifiers(store, (detector,), **options)[detector]


def test_classifier_subsample_parity_both_rng_branches(lazy_store, object_store):
    # max_samples below the store size exercises the rng.choice draw;
    # above it, the no-subsample branch. Both must consume the generator
    # exactly like the record-sampling reference.
    for max_samples in (300, 10 ** 6):
        columnar = train_evasion_classifier(
            lazy_store, "DataDome", max_samples=max_samples, seed=3, permutation=True
        )
        expected = reference.train_evasion_classifier(
            object_store, "DataDome", max_samples=max_samples, seed=3, permutation=True
        )
        assert columnar.train_accuracy == expected.train_accuracy
        assert columnar.test_accuracy == expected.test_accuracy
        assert columnar.importances == expected.importances
        assert columnar.permutation is not None
        assert columnar.permutation == expected.permutation


def test_classifier_rejects_tiny_stores_on_both_engines(lazy_store):
    single = edge_store(lazy_store, "single_session")
    if len(single) >= 20:
        single = RequestStore(reference_store.renumbered(single.columns.take(np.arange(5))))
    with pytest.raises(ValueError):
        train_evasion_classifier(single, "DataDome")
    with pytest.raises(ValueError):
        reference.train_evasion_classifier(reference_store.object_store(single), "DataDome")


def test_table2_accuracy_is_measured_over_the_held_out_rows(tiny_corpus):
    # 35 sampled rows hold out round(3.5) = 4 of them, not 35 // 10 = 3.
    result = train_evasion_classifier(tiny_corpus.bot_store, "DataDome", max_samples=35)
    assert result.test_rows == 4
    section = generate_report(tiny_corpus, sections=["table2"], ml_samples=35).sections[0]
    assert {measurement.requests for measurement in section.measured.values()} == {4}


def test_report_section_subset_and_unknown_key(tiny_corpus):
    report = generate_report(tiny_corpus, sections=["table1", "figure4"])
    assert [section.key for section in report.sections] == ["table1", "figure4"]
    with pytest.raises(ValueError, match="unknown report section"):
        generate_report(tiny_corpus, sections=["table1", "figure99"])
    with pytest.raises(TypeError):  # one engine: the selector is gone
        generate_report(tiny_corpus, engine="object")


def test_report_render_and_json_document(tiny_corpus):
    report = generate_report(tiny_corpus, sections=["table1", "blocklists"], cache_key="abc123")
    assert isinstance(report, Report)
    text = report.render()
    assert "Table 1 · Per-service evasion" in text
    assert "ASN / IP blocklist coverage" in text
    document = report.to_document()
    encoded = json.dumps(document, sort_keys=True, default=str)
    decoded = json.loads(encoded)
    assert "engine" not in decoded
    assert decoded["cache_key"] == "abc123"
    assert decoded["materialized_records"] == 0
    keys = [section["key"] for section in decoded["sections"]]
    assert keys == ["table1", "blocklists"]
    for section in decoded["sections"]:
        assert section["seconds"] >= 0
        assert len(section["digest"]) == 16


def test_report_digests_stable_on_memory_mapped_archive(tiny_corpus, tmp_path):
    sections = ["table1", "figure4", "figure9", "blocklists"]
    baseline = generate_report(tiny_corpus, sections=sections)
    save_corpus(tiny_corpus, tmp_path)
    reloaded = load_corpus(tmp_path)
    assert isinstance(reloaded.store, RequestStore)
    assert not reloaded.store.columns.timestamps.flags.writeable
    before = materialized_record_count()
    mapped = generate_report(reloaded, sections=sections)
    assert materialized_record_count() == before
    in_ram = generate_report(load_corpus_in_ram(tmp_path), sections=sections)
    assert mapped.digests() == in_ram.digests() == baseline.digests()


def test_table2_identical_across_engines(lazy_store, object_store):
    columns = {
        name: result.top_attributes(5)
        for name, result in table2(lazy_store, max_samples=300).items()
    }
    assert columns == reference.table2(object_store, max_samples=300)


# -- Table 2: golden pin, opt-in permutation importance, code-column features --


@pytest.fixture(scope="module")
def golden_table2():
    return json.loads(GOLDEN_TABLE2.read_text())


def test_table2_matches_golden_on_both_engines(golden_table2, lazy_store, object_store):
    # A tree change that moves the columnar path and the reference together
    # still moves these.
    assert golden_table2["corpus"] == TINY
    for train, store in (
        (train_evasion_classifier, lazy_store),
        (reference.train_evasion_classifier, object_store),
    ):
        for detector, pinned in golden_table2["detectors"].items():
            result = train(
                store,
                detector,
                max_samples=golden_table2["max_samples"],
                seed=golden_table2["seed"],
            )
            assert result.top_attributes(5) == pinned["top5"], detector
            assert [item.importance for item in result.importances[:5]] == pinned["top5_gain"]
            assert result.train_accuracy == pinned["train_accuracy"], detector
            assert result.test_accuracy == pinned["test_accuracy"], detector


def test_table2_never_computes_permutation_importance(lazy_store, object_store, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("table2 computed permutation importance")

    monkeypatch.setattr(attributes_module, "permutation_importance", forbidden)
    for api, store in ((columnar_api, lazy_store), (reference, object_store)):
        assert set(api.table2(store, max_samples=300)) == {"DataDome", "BotD"}
    trained = columnar_api.train_evasion_classifiers(lazy_store, ("BotD",), max_samples=300)
    assert trained["BotD"].permutation is None
    assert reference.train_evasion_classifier(object_store, "BotD", max_samples=300).permutation is None


def decoded_fingerprints(columns: RecordColumns) -> list:
    fingerprints = reference_store.session_fingerprints(columns)
    return [fingerprints[code] for code in np.asarray(columns.session_codes).tolist()]


def collided_store(lazy_store: RequestStore) -> RequestStore:
    """Half the sessions spell their plugin list as one joined string and a
    third lose their timezone: ``("A", "B")`` and ``("A, B",)`` group to
    the same value, as do ``()`` and ``("(none)",)``."""

    def rewrite(session, fingerprint):
        if session % 3 == 0:
            fingerprint = without(fingerprint, Attribute.TIMEZONE)
        plugins = fingerprint.get(Attribute.PLUGINS)
        if plugins is None or session % 2:
            return fingerprint
        return fingerprint.replace(plugins=(", ".join(plugins) or "(none)",))

    return rebuilt_store(lazy_store.columns, rewrite=rewrite)


@pytest.mark.parametrize("case", ("regular", "sampled", "missing_attributes", "collisions"))
def test_code_column_features_match_decoded_fingerprints(lazy_store, case):
    if case == "collisions":
        columns = collided_store(lazy_store).columns
        _, raw_plugins = columns.attribute_rows(Attribute.PLUGINS)
        grouped = {grouping_value(Attribute.PLUGINS, value) for value in raw_plugins}
        assert len(grouped) < len(set(raw_plugins))
    elif case == "sampled":
        rows = np.random.default_rng(0).choice(len(lazy_store), size=300, replace=False)
        columns = lazy_store.columns.take(rows)
    else:
        store = lazy_store if case == "regular" else edge_store(lazy_store, case)
        columns = store.columns
    fingerprints = decoded_fingerprints(columns)
    from_columns, from_objects = FingerprintEncoder(), FingerprintObjectEncoder()
    matrix = from_columns.fit_transform(columns)
    expected = from_objects.fit_transform(fingerprints)
    assert matrix.tobytes() == expected.tobytes()
    for attribute in from_objects.attributes:
        assert list(from_columns.categories_of(attribute).items()) == list(
            from_objects.categories_of(attribute).items()
        ), attribute
    # The column-fitted code books encode the decoded fingerprints alike.
    assert FingerprintObjectEncoder.transform(from_columns, fingerprints).tobytes() == matrix.tobytes()
    if case == "collisions":
        plugin_rows, _ = columns.attribute_rows(Attribute.PLUGINS)
        spellings = np.unique(plugin_rows[plugin_rows >= 0]).size
        assert len(from_columns.categories_of(Attribute.PLUGINS)) < spellings


def test_code_column_features_reject_empty_columns():
    with pytest.raises(ValueError):
        FingerprintEncoder().fit_transform(empty_lazy_store().columns)


# -- Figure 9 canonicalisation ----------------------------------------------------


def with_sessions(columns: RecordColumns, **changes) -> RequestStore:
    """A store over *columns* with some :class:`SessionArrays` fields
    replaced — codes edited directly, past the object encoder."""

    state = columns.sessions.__getstate__()
    state.update(changes)
    return RequestStore(
        RecordColumns(
            timestamps=columns.timestamps,
            session_codes=columns.session_codes,
            presented_codes=columns.presented_codes,
            served_codes=columns.served_codes,
            source_codes=columns.source_codes,
            cookie_values=columns.cookie_values,
            sources=columns.sources,
            url_paths=columns.url_paths,
            sessions=SessionArrays(**state),
            request_ids=columns.request_ids,
        )
    )


@pytest.mark.parametrize("seed", (7, 11, 29))
def test_canonical_fingerprint_rows_match_sha256_oracle(seed):
    columns = build_corpus(seed=seed, scale=0.01, include_real_users=False).bot_store.columns
    assert columns.n_sessions > 1000
    codes = canonical_fingerprint_rows(columns)
    assert np.array_equal(codes, reference.canonical_fingerprint_rows(columns))
    assert np.unique(codes).size < columns.n_sessions  # some sessions do collapse


@pytest.mark.parametrize(
    "attribute, respell, merges",
    (
        (Attribute.PLUGINS, list, True),  # a list serialises like the tuple
        (Attribute.HARDWARE_CONCURRENCY, float, False),  # 8.0 does not like 8
    ),
)
def test_value_codes_that_serialise_alike_share_a_fingerprint(
    lazy_store, attribute, respell, merges
):
    columns = lazy_store.columns
    sessions = columns.sessions
    attr = sessions.fp_attribute_names.index(attribute.value)
    attr_codes = np.asarray(sessions.fp_attr_codes, dtype=np.int64)
    value_codes = np.array(sessions.fp_value_codes, dtype=np.int64)
    # The attribute's busiest value gets a second code with the respelled
    # value, and every other pair that carries it moves to that code.
    busiest = int(np.argmax(np.bincount(value_codes[attr_codes == attr])))
    pairs = np.nonzero((attr_codes == attr) & (value_codes == busiest))[0]
    assert pairs.size > 2
    values = list(sessions.fp_values)
    values[attr] = [*values[attr], respell(values[attr][busiest])]
    value_codes[pairs[1::2]] = len(values[attr]) - 1
    store = with_sessions(columns, fp_values=values, fp_value_codes=value_codes)
    codes = canonical_fingerprint_rows(store.columns)
    assert np.array_equal(codes, reference.canonical_fingerprint_rows(store.columns))
    assert np.array_equal(codes, canonical_fingerprint_rows(columns)) == merges


def test_sessions_lacking_attributes_canonicalise_like_the_oracle(lazy_store):
    transport = {Attribute.IP_ADDRESS, Attribute.IP_COUNTRY, Attribute.IP_REGION, Attribute.ASN}

    def rewrite(session, fingerprint):
        if session % 4 == 0:  # nothing at all
            return without(fingerprint, *fingerprint)
        if session % 4 == 1:  # transport attributes only: hashes like nothing
            return without(fingerprint, *(a for a in fingerprint if a not in transport))
        if session % 4 == 2:
            return without(fingerprint, Attribute.PLUGINS, Attribute.TIMEZONE)
        return fingerprint

    store = rebuilt_store(lazy_store.columns, rewrite=rewrite)
    codes = canonical_fingerprint_rows(store.columns)
    assert np.array_equal(codes, reference.canonical_fingerprint_rows(store.columns))
    sessions = store.columns.session_codes
    assert len(set(codes[sessions % 4 < 2].tolist())) == 1
    objects = reference_store.object_store(store)
    assert figure9_daily_series(store) == reference.figure9_daily_series(objects)
    assert new_fingerprints_over_time(store) == reference.new_fingerprints_over_time(objects)


def test_a_session_repeating_an_attribute_is_rejected(lazy_store):
    columns = lazy_store.columns
    sessions = columns.sessions
    attr_codes = np.array(sessions.fp_attr_codes, dtype=np.int64)
    value_codes = np.array(sessions.fp_value_codes, dtype=np.int64)
    first = int(sessions.fp_offsets[0])
    attr_codes[first + 1], value_codes[first + 1] = attr_codes[first], value_codes[first]
    store = with_sessions(columns, fp_attr_codes=attr_codes, fp_value_codes=value_codes)
    with pytest.raises(ValueError, match="more than once"):
        canonical_fingerprint_rows(store.columns)


def test_figure9_section_canonicalises_once(tiny_corpus, monkeypatch):
    calls = []

    def counted(columns):
        calls.append(columns.n_rows)
        return canonical_fingerprint_rows(columns)

    monkeypatch.setattr(figures_module, "canonical_fingerprint_rows", counted)
    monkeypatch.setattr(report_module, "canonical_fingerprint_rows", counted)
    section = generate_report(tiny_corpus, sections=["figure9"]).sections[0]
    assert calls == [len(tiny_corpus.bot_store)]
    store = tiny_corpus.bot_store
    assert section.data == {
        "series": dataclasses.asdict(figure9_daily_series(store)),
        "new_fingerprints": list(new_fingerprints_over_time(store)),
    }


# -- Section 5.1 block lists by /16 prefix ------------------------------------------


def test_prefix_asns_match_per_address_lookup(tiny_corpus):
    geo = tiny_corpus.site.geo
    addresses = list(tiny_corpus.store.columns.session_ips)
    expected = [reference.asn_of(geo, address) for address in addresses]
    assert geo.asns_of(addresses).tolist() == [-1 if asn is None else asn for asn in expected]


def test_asn_blocklist_outside_space_and_custom_list_match_oracle(tiny_corpus, lazy_store):
    geo = tiny_corpus.site.geo
    columns = lazy_store.columns
    ips = list(columns.session_ips)
    ips[::5] = ["9.9.9.9"] * len(ips[::5])  # outside the allocated space
    store = with_sessions(columns, session_ips=ips)
    objects = reference_store.object_store(store)
    asns = geo.asns_of(ips)
    custom = AsnBlocklist([int(np.bincount(asns[asns >= 0]).argmax())])
    results = {}
    for name, blocklist in (("default", None), ("custom", custom)):
        results[name] = analyze_asn_blocklist(store, geo, blocklist=blocklist)
        assert results[name] == reference.analyze_asn_blocklist(objects, geo, blocklist=blocklist)
    assert 0 < results["custom"].flagged_requests < results["custom"].total_requests
    assert results["custom"] != results["default"]
    outside = with_sessions(columns, session_ips=["9.9.9.9"] * columns.n_sessions)
    assert analyze_asn_blocklist(outside, geo).flagged_requests == 0
    # An injected IP list is used even when it is empty.
    empty = analyze_ip_blocklist(store, blocklist=IpBlocklist())
    assert empty.covered_requests == 0
    assert empty == reference.analyze_ip_blocklist(objects, blocklist=IpBlocklist())


@pytest.mark.parametrize("bad", ("1.2.3", "1.2.3.256", "a.b.c.d"))
def test_asn_blocklist_rejects_malformed_addresses(tiny_corpus, lazy_store, bad):
    columns = lazy_store.columns
    ips = list(columns.session_ips)
    ips[int(columns.session_codes[0])] = bad
    store = with_sessions(columns, session_ips=ips)
    with pytest.raises(ValueError):
        analyze_asn_blocklist(store, tiny_corpus.site.geo)
    with pytest.raises(ValueError):
        reference.analyze_asn_blocklist(
            reference_store.object_store(store), tiny_corpus.site.geo
        )
