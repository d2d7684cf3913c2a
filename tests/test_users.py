"""Unit tests for real-user and privacy-technology traffic generators."""

import numpy as np
import pytest
from reference.analysis import unique_values
from reference.store import object_store

from repro.analysis.engine import PRIVACY_TECHNOLOGIES
from repro.fingerprint.attributes import Attribute
from repro.honeysite.site import HoneySite
from repro.users.privacy import (
    PrivacyTechnology,
    PrivacyTrafficGenerator,
    apply_brave,
    apply_fingerprint_spoofer,
    apply_tor,
)
from repro.users.realuser import REAL_USER_SOURCE, RealUserTrafficGenerator


@pytest.fixture
def site():
    return HoneySite(rng=np.random.default_rng(5))


def test_real_user_traffic_recorded_and_undetected(site):
    generator = RealUserTrafficGenerator(site, rng=np.random.default_rng(1), ua_spoofer_rate=0.0)
    recorded = generator.run_vectorized(num_requests=200, num_users=40)
    store = site.store.by_source(REAL_USER_SOURCE)
    assert recorded == 200 and len(store) == 200
    # Real, consistent devices from residential space are never flagged.
    assert store.detection_rate("DataDome") == 0.0
    assert store.detection_rate("BotD") == 0.0


def test_real_user_cookies_are_retained(site):
    generator = RealUserTrafficGenerator(site, rng=np.random.default_rng(1), ua_spoofer_rate=0.0)
    generator.run_vectorized(num_requests=300, num_users=30)
    store = site.store.by_source(REAL_USER_SOURCE)
    assert store.unique_cookies() <= 30


def test_real_user_spoofer_rate_validation(site):
    with pytest.raises(ValueError):
        RealUserTrafficGenerator(site, ua_spoofer_rate=2.0)
    generator = RealUserTrafficGenerator(site)
    with pytest.raises(ValueError):
        generator.run_vectorized(num_requests=0)


def test_real_user_spoofers_change_only_user_agent(site):
    generator = RealUserTrafficGenerator(site, rng=np.random.default_rng(2), ua_spoofer_rate=1.0)
    generator.run_vectorized(num_requests=50, num_users=10)
    store = object_store(site.store.by_source(REAL_USER_SOURCE))
    # Spoofed UAs are present but platform values stay those of real devices.
    devices = set(unique_values(store, Attribute.UA_DEVICE))
    assert devices  # non-empty
    platforms = set(unique_values(store, Attribute.PLATFORM))
    assert platforms <= {"iPhone", "iPad", "MacIntel", "Win32", "Linux x86_64", "Linux armv7l", "Linux armv8l"}


# -- privacy technologies ----------------------------------------------------------


def test_apply_brave_keeps_values_plausible(rng, catalog):
    fingerprint = catalog.get("macbook-pro-chrome").fingerprint()
    farbled = apply_brave(fingerprint, rng)
    assert farbled[Attribute.DEVICE_MEMORY] in (0.5, 1.0, 2.0, 4.0, 8.0)
    assert farbled[Attribute.HARDWARE_CONCURRENCY] >= 2
    # Plugin entries are farbled, not hidden: the surface stays the device's.
    assert farbled[Attribute.PLUGINS] == fingerprint[Attribute.PLUGINS]


def test_apply_tor_standardises_fingerprint(catalog):
    fingerprint = catalog.get("macbook-pro-chrome").fingerprint()
    torified = apply_tor(fingerprint)
    assert torified[Attribute.TIMEZONE] == "UTC"
    assert torified[Attribute.PLATFORM] == "Win32"
    assert torified[Attribute.HARDWARE_CONCURRENCY] == 2
    assert torified[Attribute.UA_BROWSER] == "Firefox"
    assert torified[Attribute.PLUGINS]  # Firefox ESR exposes PDF plugins


def test_apply_fingerprint_spoofer_rewrites_ua_only(rng, catalog):
    fingerprint = catalog.get("windows-desktop-chrome").fingerprint()
    spoofed = apply_fingerprint_spoofer(fingerprint, rng)
    assert spoofed[Attribute.UA_DEVICE] in ("iPhone", "Mac")
    assert spoofed[Attribute.PLATFORM] == fingerprint[Attribute.PLATFORM]


def test_privacy_generator_runs_each_technology(site):
    generator = PrivacyTrafficGenerator(site, rng=np.random.default_rng(3))
    counts = {
        technology: generator.run_technology_vectorized(technology, num_requests=20)
        for technology in PRIVACY_TECHNOLOGIES
    }
    assert all(count == 20 for count in counts.values())
    for technology in PRIVACY_TECHNOLOGIES:
        assert len(site.store.by_source(generator.source_label(technology))) == 20


def test_privacy_safari_and_blockers_not_detected(site):
    generator = PrivacyTrafficGenerator(site, rng=np.random.default_rng(3))
    for technology in (PrivacyTechnology.SAFARI, PrivacyTechnology.UBLOCK_ORIGIN, PrivacyTechnology.ADBLOCK_PLUS):
        generator.run_technology_vectorized(technology, num_requests=20)
        store = site.store.by_source(generator.source_label(technology))
        assert store.detection_rate("DataDome") == 0.0
        assert store.detection_rate("BotD") == 0.0


def test_privacy_tor_uses_exit_relays(site):
    generator = PrivacyTrafficGenerator(site, rng=np.random.default_rng(3))
    generator.run_technology_vectorized(PrivacyTechnology.TOR, num_requests=20)
    store = site.store.by_source(generator.source_label(PrivacyTechnology.TOR))
    # Appendix G: DataDome flags Tor traffic, BotD does not.
    assert store.detection_rate("DataDome") == 1.0
    assert store.detection_rate("BotD") == 0.0


def test_privacy_brave_not_flagged_by_detectors(site):
    generator = PrivacyTrafficGenerator(site, rng=np.random.default_rng(3))
    generator.run_technology_vectorized(PrivacyTechnology.BRAVE, num_requests=20)
    store = site.store.by_source(generator.source_label(PrivacyTechnology.BRAVE))
    assert store.detection_rate("BotD") == 0.0


def test_privacy_generator_validation(site):
    generator = PrivacyTrafficGenerator(site)
    with pytest.raises(ValueError):
        generator.run_technology_vectorized(PrivacyTechnology.BRAVE, num_requests=0)
