"""Unit tests for the DataDome and BotD detector models."""

import pytest

from repro.antibot.botd import BotDModel
from repro.antibot.datadome import DataDomeModel
from reference.generation import (
    apply_forced_colors,
    apply_low_concurrency,
    apply_plugin_injection,
    apply_server_concurrency,
    apply_touch_spoof,
    apply_webdriver_leak,
    base_bot_fingerprint,
)

from repro.antibot.signals import API_ACCESS
from repro.devices.catalog import DeviceCatalog
from repro.geo.geolite import GeoDatabase
from repro.network.request import WebRequest


@pytest.fixture
def geo():
    return GeoDatabase()


def _request(fingerprint, ip_address, path="/token"):
    return WebRequest(url_path=path, timestamp=0.0, ip_address=ip_address, fingerprint=fingerprint)


def _datacenter_ip(geo, rng):
    return geo.allocate_address(rng, country="United States of America", datacenter=True)


def _residential_ip(geo, rng):
    return geo.allocate_address(rng, country="United States of America", datacenter=False)


# -- BotD ------------------------------------------------------------------------


def test_botd_flags_bare_headless_browser(geo, rng):
    fingerprint = base_bot_fingerprint(rng)
    decision = BotDModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert decision.is_bot
    assert "no_plugins_no_touch" in decision.signals


def test_botd_blind_spot_plugins(geo, rng):
    fingerprint = apply_plugin_injection(base_bot_fingerprint(rng), rng)
    decision = BotDModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert not decision.is_bot


def test_botd_blind_spot_touch(geo, rng):
    fingerprint = apply_touch_spoof(base_bot_fingerprint(rng), rng)
    decision = BotDModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert not decision.is_bot


def test_botd_flags_webdriver_even_with_plugins(geo, rng):
    fingerprint = apply_webdriver_leak(apply_plugin_injection(base_bot_fingerprint(rng), rng))
    decision = BotDModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert decision.is_bot
    assert "webdriver_flag" in decision.signals


def test_botd_accepts_real_devices(geo, rng):
    catalog = DeviceCatalog()
    model = BotDModel(geo)
    for profile in catalog:
        request = _request(profile.fingerprint(), _residential_ip(geo, rng))
        assert not model.evaluate(request).is_bot, profile.name


# -- DataDome -----------------------------------------------------------------------


def test_datadome_flags_datacenter_server_cores(geo, rng):
    fingerprint = apply_server_concurrency(base_bot_fingerprint(rng), rng)
    decision = DataDomeModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert decision.is_bot
    assert "datacenter_address_space" in decision.signals


def test_datadome_blind_spot_low_concurrency(geo, rng):
    fingerprint = apply_low_concurrency(base_bot_fingerprint(rng), rng)
    decision = DataDomeModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert not decision.is_bot


def test_datadome_forced_colors_always_detected(geo, rng):
    fingerprint = apply_forced_colors(apply_low_concurrency(base_bot_fingerprint(rng), rng))
    decision = DataDomeModel(geo).evaluate(_request(fingerprint, _datacenter_ip(geo, rng)))
    assert decision.is_bot
    assert "forced_colors_active" in decision.signals


def test_datadome_flags_webdriver_anywhere(geo, rng):
    fingerprint = apply_webdriver_leak(base_bot_fingerprint(rng))
    decision = DataDomeModel(geo).evaluate(_request(fingerprint, _residential_ip(geo, rng)))
    assert decision.is_bot


def test_datadome_accepts_real_devices_from_residential_space(geo, rng):
    catalog = DeviceCatalog()
    model = DataDomeModel(geo)
    for profile in catalog:
        for cores in profile.hardware_concurrency_options:
            fingerprint = profile.fingerprint(hardware_concurrency=cores)
            request = _request(fingerprint, _residential_ip(geo, rng))
            assert not model.evaluate(request).is_bot, profile.name


def test_datadome_without_geo_database_is_lenient(rng):
    model = DataDomeModel(geo=None)
    fingerprint = apply_server_concurrency(base_bot_fingerprint(rng), rng)
    decision = model.evaluate(_request(fingerprint, "203.0.113.1"))
    assert not decision.is_bot


def test_decision_evaded_property(geo, rng):
    decision = BotDModel(geo).evaluate(
        _request(apply_plugin_injection(base_bot_fingerprint(rng), rng), _datacenter_ip(geo, rng))
    )
    # A request evaded when it was not flagged: PDF plugins are BotD's
    # blind spot (Figure 4).
    assert decision.detector == "BotD" and not decision.is_bot


# -- Table 5 API inventory -------------------------------------------------------------


def _apis_read_by(detector: str):
    return [api for api, readers in API_ACCESS.items() if readers.get(detector)]


def test_api_access_datadome_reads_more_apis_than_botd():
    assert len(_apis_read_by("DataDome")) > len(_apis_read_by("BotD"))


def test_api_access_key_entries():
    assert API_ACCESS["window.navigator.hardwareConcurrency"]["DataDome"]
    assert not API_ACCESS["window.navigator.hardwareConcurrency"]["BotD"]
    assert API_ACCESS["window.navigator.plugins"]["BotD"]
    assert "window.navigator.userAgent" in _apis_read_by("BotD")
