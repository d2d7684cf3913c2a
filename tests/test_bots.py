"""Unit tests for evasion strategies, service profiles and the marketplace."""

import pytest

from reference.generation import (
    apply_consistent_device_spoof,
    apply_device_spoof,
    apply_forced_colors,
    apply_low_concurrency,
    apply_memory_rotation,
    apply_platform_rotation,
    apply_plugin_injection,
    apply_server_concurrency,
    apply_timezone,
    apply_touch_spoof,
    apply_webdriver_leak,
    base_bot_fingerprint,
)

from repro.bots.marketplace import TOTAL_REQUESTS, build_marketplace
from repro.bots.service import BotDEvasionFlavor, BotServiceProfile
from repro.bots.strategies import (
    FAKE_RESOLUTION_POOL,
    ROTATED_PLATFORMS,
    choose_spoof_target,
    random_resolution,
)
from repro.devices.screens import is_real_iphone_resolution
from repro.fingerprint.attributes import Attribute


# -- strategies --------------------------------------------------------------------


def test_base_bot_fingerprint_shape(rng):
    fingerprint = base_bot_fingerprint(rng)
    assert fingerprint[Attribute.PLATFORM] == "Linux x86_64"
    assert fingerprint[Attribute.PLUGINS] == ()
    assert fingerprint[Attribute.TOUCH_SUPPORT] == "None"
    assert fingerprint[Attribute.WEBDRIVER] is False
    assert fingerprint[Attribute.HARDWARE_CONCURRENCY] >= 8


def test_low_and_server_concurrency(rng):
    base = base_bot_fingerprint(rng)
    assert apply_low_concurrency(base, rng)[Attribute.HARDWARE_CONCURRENCY] < 8
    assert apply_server_concurrency(base, rng)[Attribute.HARDWARE_CONCURRENCY] >= 8


def test_plugin_injection_always_includes_chrome_pdf_viewer(rng):
    for _ in range(20):
        fingerprint = apply_plugin_injection(base_bot_fingerprint(rng), rng)
        assert "Chrome PDF Viewer" in fingerprint[Attribute.PLUGINS]
        assert fingerprint[Attribute.PDF_VIEWER_ENABLED] is True


def test_touch_spoof_claims_touch(rng):
    fingerprint = apply_touch_spoof(base_bot_fingerprint(rng), rng, consistency=0.0)
    assert fingerprint[Attribute.TOUCH_SUPPORT] != "None"
    fingerprint = apply_touch_spoof(base_bot_fingerprint(rng), rng, consistency=1.0)
    assert fingerprint[Attribute.MAX_TOUCH_POINTS] == 5


def test_device_spoof_changes_user_agent_family(rng):
    fingerprint = apply_device_spoof(base_bot_fingerprint(rng), rng, target="iPhone", consistency=0.0)
    assert fingerprint[Attribute.UA_DEVICE] == "iPhone"
    assert fingerprint[Attribute.UA_OS] == "iOS"
    # A zero-consistency spoof leaves the correlated attributes untouched.
    assert fingerprint[Attribute.VENDOR] == "Google Inc."


def test_device_spoof_full_consistency_fixes_correlates(rng):
    fingerprint = apply_device_spoof(base_bot_fingerprint(rng), rng, target="iPhone", consistency=1.0)
    assert fingerprint[Attribute.PLATFORM] == "iPhone"
    assert fingerprint[Attribute.VENDOR].startswith("Apple")
    assert fingerprint[Attribute.MAX_TOUCH_POINTS] == 5
    assert is_real_iphone_resolution(fingerprint[Attribute.SCREEN_RESOLUTION])


def test_consistent_device_spoof_respects_touch_state(rng):
    touchless = apply_consistent_device_spoof(base_bot_fingerprint(rng), rng)
    assert touchless[Attribute.UA_DEVICE] in ("Mac", "Windows PC")
    touchy = apply_consistent_device_spoof(
        apply_touch_spoof(base_bot_fingerprint(rng), rng), rng
    )
    assert touchy[Attribute.UA_DEVICE] not in ("Mac", "Windows PC", "Linux PC")


def test_consistent_device_spoof_preserves_plugins_and_cores(rng):
    base = apply_plugin_injection(apply_low_concurrency(base_bot_fingerprint(rng), rng), rng)
    spoofed = apply_consistent_device_spoof(base, rng)
    assert spoofed[Attribute.PLUGINS] == base[Attribute.PLUGINS]
    assert spoofed[Attribute.HARDWARE_CONCURRENCY] == base[Attribute.HARDWARE_CONCURRENCY]


def test_choose_spoof_target_distribution(rng):
    targets = {choose_spoof_target(rng) for _ in range(200)}
    assert "iPhone" in targets


def test_random_resolution_comes_from_pool(rng):
    for _ in range(50):
        assert random_resolution(rng) in FAKE_RESOLUTION_POOL


def test_fake_resolution_pool_mostly_nonexistent_for_iphone():
    fake = [r for r in FAKE_RESOLUTION_POOL if not is_real_iphone_resolution(r)]
    assert len(fake) / len(FAKE_RESOLUTION_POOL) > 0.7


def test_platform_rotation_uses_pool(rng):
    fingerprint = apply_platform_rotation(base_bot_fingerprint(rng), rng)
    assert fingerprint[Attribute.PLATFORM] in ROTATED_PLATFORMS


def test_memory_rotation_valid_values(rng):
    fingerprint = apply_memory_rotation(base_bot_fingerprint(rng), rng)
    assert fingerprint[Attribute.DEVICE_MEMORY] in (0.5, 1.0, 2.0, 4.0, 8.0)


def test_timezone_forced_colors_webdriver(rng):
    base = base_bot_fingerprint(rng)
    assert apply_timezone(base, "Europe/Paris")[Attribute.TIMEZONE] == "Europe/Paris"
    assert apply_forced_colors(base)[Attribute.FORCED_COLORS] is True
    assert apply_webdriver_leak(base)[Attribute.WEBDRIVER] is True


# -- service profiles -----------------------------------------------------------------


def test_profile_validation_bounds():
    with pytest.raises(ValueError):
        BotServiceProfile(name="X", num_requests=10, datadome_evasion_target=1.5, botd_evasion_target=0.5)
    with pytest.raises(ValueError):
        BotServiceProfile(name="X", num_requests=0, datadome_evasion_target=0.5, botd_evasion_target=0.5)
    with pytest.raises(ValueError):
        BotServiceProfile(
            name="X", num_requests=10, datadome_evasion_target=0.5, botd_evasion_target=0.5, num_workers=0
        )


def test_profile_scaled_requests():
    profile = BotServiceProfile(
        name="X", num_requests=1000, datadome_evasion_target=0.5, botd_evasion_target=0.5
    )
    assert profile.scaled_requests(0.1) == 100
    assert profile.scaled_requests(0.0001) == 1
    with pytest.raises(ValueError):
        profile.scaled_requests(0)


# -- marketplace -----------------------------------------------------------------------


def test_marketplace_has_twenty_services():
    assert len(build_marketplace()) == 20


def test_marketplace_total_matches_paper():
    assert TOTAL_REQUESTS == 507_080


def marketplace_by_name():
    return {profile.name: profile for profile in build_marketplace()}


def test_marketplace_by_name_keys():
    by_name = marketplace_by_name()
    assert set(by_name) == {f"S{i}" for i in range(1, 21)}


def test_marketplace_table1_targets_spot_checks():
    by_name = marketplace_by_name()
    assert by_name["S1"].num_requests == 121_500
    assert by_name["S1"].datadome_evasion_target == pytest.approx(0.4401)
    assert by_name["S15"].botd_evasion_target == pytest.approx(1.0)
    assert by_name["S20"].num_requests == 382


def test_marketplace_flavors_follow_paper_findings():
    by_name = marketplace_by_name()
    for name in ("S15", "S18", "S19"):
        assert by_name[name].botd_flavor is BotDEvasionFlavor.PLUGINS
    for name in ("S14", "S20"):
        assert by_name[name].botd_flavor is BotDEvasionFlavor.TOUCH


def test_marketplace_advertised_regions():
    regions = {
        profile.advertised_region
        for profile in build_marketplace()
        if profile.advertised_region is not None
    }
    assert regions == {"United States", "Canada", "Europe", "France"}
