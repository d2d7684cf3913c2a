"""Unit tests for the honey-site architecture and request store."""

import numpy as np
import pytest

from reference.analysis import daily_series, group_by_cookie, sorted_by_time, unique_values
from reference.collector import CollectionError, FingerprintCollector
from reference.generation import handle
from repro.bots.strategies import base_bot_fingerprint
from repro.fingerprint.attributes import Attribute
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import SECONDS_PER_DAY
from repro.honeysite.urls import UrlRegistry, generate_url_token
from repro.network.request import WebRequest


@pytest.fixture
def site():
    return HoneySite(rng=np.random.default_rng(42))


def _request(site, path, rng, *, cookie=None, timestamp=0.0, country="United States of America", datacenter=True):
    fingerprint = base_bot_fingerprint(rng)
    ip_address = site.geo.allocate_address(rng, country=country, datacenter=datacenter)
    return WebRequest(
        url_path=path, timestamp=timestamp, ip_address=ip_address, fingerprint=fingerprint, cookie=cookie
    )


# -- URL registry ------------------------------------------------------------------


def test_url_tokens_are_random_strings(rng):
    token = generate_url_token(rng)
    assert len(token) == 10 and token.isalnum()
    with pytest.raises(ValueError):
        generate_url_token(rng, length=2)


def test_url_registry_round_trip(rng):
    registry = UrlRegistry(rng)
    path = registry.register("S1")
    assert registry.source_of(path) == "S1"
    assert registry.path_of("S1") == path
    assert registry.register("S1") == path
    assert registry.source_of("/unknown") is None
    assert set(registry.sources()) == {"S1"}


def test_url_registry_distinct_paths(rng):
    registry = UrlRegistry(rng)
    paths = {registry.register(f"S{i}") for i in range(30)}
    assert len(paths) == 30


# -- collector -----------------------------------------------------------------------


def test_collector_accepts_fingerprint_and_mapping(rng):
    collector = FingerprintCollector()
    fingerprint = base_bot_fingerprint(rng)
    collected = collector.collect(fingerprint)
    assert collected.complete
    assert collected.visitor_id == fingerprint.stable_hash()
    from_mapping = collector.collect({"platform": "Win32"})
    assert not from_mapping.complete
    assert Attribute.USER_AGENT in from_mapping.missing_attributes


def test_collector_strict_mode(rng):
    collector = FingerprintCollector(strict=True)
    with pytest.raises(CollectionError):
        collector.collect({"platform": "Win32"})
    with pytest.raises(CollectionError):
        collector.collect(42)


# -- honey site ------------------------------------------------------------------------


def test_site_drops_unknown_paths(site, rng):
    request = _request(site, "/unknownpath", rng)
    assert handle(site, request) is None
    assert len(site.store) == 0


def test_site_records_and_attributes_known_paths(site, rng):
    path = site.register_source("S1")
    record = handle(site, _request(site, path, rng))
    assert record is not None
    assert record.source == "S1"
    assert len(site.store) == 1


def test_site_issues_cookie_when_missing(site, rng):
    path = site.register_source("S1")
    record = handle(site, _request(site, path, rng, cookie=None))
    assert record.cookie
    echoed = handle(site, _request(site, path, rng, cookie=record.cookie))
    assert echoed.cookie == record.cookie


def test_site_enriches_fingerprint_with_geo(site, rng):
    path = site.register_source("S1")
    record = handle(site, _request(site, path, rng, country="France", datacenter=False))
    assert record.attribute(Attribute.IP_COUNTRY) == "France"
    assert record.attribute(Attribute.ASN) is not None


def test_site_runs_both_detectors(site, rng):
    path = site.register_source("S1")
    record = handle(site, _request(site, path, rng))
    assert record.datadome.detector == "DataDome"
    assert record.botd.detector == "BotD"
    # The bare headless template from datacenter space is caught by both.
    assert record.datadome.is_bot and record.botd.is_bot


# -- request store ----------------------------------------------------------------------


def _populated_store(site, rng, count=40):
    path_a = site.register_source("S1")
    path_b = site.register_source("S2")
    for index in range(count):
        path = path_a if index % 2 == 0 else path_b
        handle(
            site,
            _request(site, path, rng, timestamp=index * SECONDS_PER_DAY / 4, datacenter=index % 3 != 0),
        )
    return site.store


def test_store_filters_and_rates(site, rng):
    store = _populated_store(site, rng)
    assert len(store.by_source("S1")) + len(store.by_source("S2")) == len(store)
    assert store.sources()[0] in ("S1", "S2")
    assert 0.0 <= store.evasion_rate("DataDome") <= 1.0
    assert store.detection_rate("BotD") == pytest.approx(1.0 - store.evasion_rate("BotD"))
    evading = store.evading("DataDome")
    detected = store.filter(lambda record: not record.evaded("DataDome"))
    assert len(evading) + len(detected) == len(store)


def test_store_unique_counts_and_grouping(site, rng):
    store = _populated_store(site, rng)
    assert store.unique_ips() <= len(store)
    assert store.unique_cookies() == len(store)  # no client retained a cookie
    assert store.unique_fingerprints() <= len(store)
    histogram = unique_values(store, Attribute.PLATFORM)
    assert sum(histogram.values()) == len(store)
    assert set(group_by_cookie(store)) == {record.cookie for record in store}


def test_store_daily_series(site, rng):
    store = _populated_store(site, rng)
    series = daily_series(store)
    assert sum(day["requests"] for day in series.values()) == len(store)
    for day_stats in series.values():
        assert day_stats["unique_ips"] <= day_stats["requests"]


def test_store_sorted_and_split(site, rng):
    store = _populated_store(site, rng)
    ordered = sorted_by_time(store)
    timestamps = [record.timestamp for record in ordered]
    assert timestamps == sorted(timestamps)
    train, test = store.split(0.75, np.random.default_rng(0))
    assert len(train) + len(test) == len(store)
    assert abs(len(train) - 0.75 * len(store)) <= 1
    with pytest.raises(ValueError):
        store.split(1.5, np.random.default_rng(0))


def test_record_decision_accessors(site, rng):
    store = _populated_store(site, rng, count=4)
    record = store[0]
    assert record.decision_for("DataDome") is record.datadome
    assert record.decision_for("BotD") is record.botd
    with pytest.raises(KeyError):
        record.decision_for("F5")
    assert record.day == int(record.timestamp // SECONDS_PER_DAY)
