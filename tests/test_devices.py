"""Unit tests for the device catalogue and screen knowledge."""

import numpy as np
import pytest

from repro.devices.catalog import DeviceCatalog, build_default_catalog
from repro.devices.profiles import CHROMIUM_PDF_PLUGINS, TOUCH_EVENTS, TOUCH_NONE
from reference.fingerprint import parse_user_agent

from repro.devices.screens import (
    IPHONE_RESOLUTIONS,
    is_real_iphone_resolution,
    is_real_resolution_for_device,
)
from repro.fingerprint.attributes import Attribute


def test_default_catalog_nonempty(catalog):
    assert len(list(catalog)) >= 15


def test_profile_names_unique():
    profiles = build_default_catalog()
    assert len({profile.name for profile in profiles}) == len(profiles)


def test_duplicate_names_rejected():
    profile = build_default_catalog()[0]
    with pytest.raises(ValueError):
        DeviceCatalog([profile, profile])


def test_empty_catalog_rejected():
    with pytest.raises(ValueError):
        DeviceCatalog([])


def test_get_by_name(catalog):
    assert catalog.get("iphone-14").ua_device == "iPhone"
    with pytest.raises(KeyError):
        catalog.get("does-not-exist")


def test_by_device_family(catalog):
    iphones = catalog.by_device("iPhone")
    assert iphones and all(profile.ua_device == "iPhone" for profile in iphones)


def test_mobile_and_desktop_split(catalog):
    mobile = [profile for profile in catalog if profile.is_mobile]
    desktop = [profile for profile in catalog if not profile.is_mobile]
    assert mobile and desktop
    assert set(mobile).isdisjoint(desktop)
    assert len(mobile) + len(desktop) == len(list(catalog))


def test_mobile_profiles_have_touch_and_no_plugins(catalog):
    for profile in (profile for profile in catalog if profile.is_mobile):
        if profile.ua_device in ("iPhone", "iPad") or profile.ua_os == "Android":
            assert profile.max_touch_points >= 1
            assert profile.plugins == ()


def test_desktop_profiles_expose_pdf_plugins(catalog):
    for profile in (profile for profile in catalog if not profile.is_mobile):
        assert set(profile.plugins) <= set(CHROMIUM_PDF_PLUGINS)
        assert profile.plugins


def test_profile_fingerprint_is_consistent(catalog):
    profile = catalog.get("iphone-14")
    fingerprint = profile.fingerprint()
    assert fingerprint[Attribute.UA_DEVICE] == "iPhone"
    assert fingerprint[Attribute.PLATFORM] == "iPhone"
    assert fingerprint[Attribute.MAX_TOUCH_POINTS] == 5
    assert fingerprint[Attribute.TOUCH_SUPPORT] == TOUCH_EVENTS
    assert is_real_iphone_resolution(fingerprint[Attribute.SCREEN_RESOLUTION])


def test_profile_user_agent_parses_back(catalog):
    for profile in catalog:
        parsed = parse_user_agent(profile.user_agent())
        assert parsed.device == profile.ua_device
        assert parsed.os == profile.ua_os
        assert parsed.browser == profile.ua_browser


def test_profile_fingerprint_overrides(catalog):
    profile = catalog.get("windows-desktop-chrome")
    fingerprint = profile.fingerprint(hardware_concurrency=16, device_memory=32.0)
    assert fingerprint[Attribute.HARDWARE_CONCURRENCY] == 16
    assert fingerprint[Attribute.DEVICE_MEMORY] == 32.0


def test_sampling_respects_catalog(catalog, rng):
    for _ in range(20):
        profile, fingerprint = catalog.sample_fingerprint(rng)
        assert profile in tuple(catalog)
        resolution = fingerprint[Attribute.SCREEN_RESOLUTION]
        assert resolution in profile.screen_resolutions
        assert fingerprint[Attribute.HARDWARE_CONCURRENCY] in profile.hardware_concurrency_options


def test_sampling_weights_prefer_common_devices(catalog):
    rng = np.random.default_rng(0)
    counts = {}
    for _ in range(400):
        profile = catalog.sample(rng)
        counts[profile.name] = counts.get(profile.name, 0) + 1
    # The Windows desktop (weight 6) must be sampled more often than the
    # touch-screen Surface (weight 0.5).
    assert counts.get("windows-desktop-chrome", 0) > counts.get("surface-touch-chrome", 0)


def test_iphone_resolution_set_matches_paper_size():
    assert len(IPHONE_RESOLUTIONS) == 12


def test_real_iphone_resolutions_accepted_in_both_orientations():
    assert is_real_iphone_resolution((390, 844))
    assert is_real_iphone_resolution((844, 390))


def test_fake_iphone_resolutions_rejected():
    assert not is_real_iphone_resolution((1920, 1080))
    assert not is_real_iphone_resolution((847, 476))
    assert not is_real_iphone_resolution((873, 393))


def test_ipad_resolutions():
    assert is_real_resolution_for_device("iPad", (768, 1024))
    assert not is_real_resolution_for_device("iPad", (900, 1600))


def test_resolution_check_per_device_family():
    assert is_real_resolution_for_device("iPhone", (390, 844)) is True
    assert is_real_resolution_for_device("iPhone", (1920, 1080)) is False
    assert is_real_resolution_for_device("Mac", (1512, 982)) is True
    assert is_real_resolution_for_device("Mac", (656, 1364)) is False
    assert is_real_resolution_for_device("Windows PC", (1920, 1080)) is True


def test_resolution_check_unknown_android_is_none():
    assert is_real_resolution_for_device("SM-A515F", (412, 892)) is None


def test_resolution_check_android_desktop_geometry_is_false():
    assert is_real_resolution_for_device("SM-A515F", (1920, 1080)) is False


def test_touch_constants():
    assert TOUCH_NONE == "None"
    assert "touch" in TOUCH_EVENTS.lower()
