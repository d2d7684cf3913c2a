"""Unit tests for FP-Inconsistent: knowledge base, rules, miners, detector."""

import pytest
from reference.detection import (
    ObjectTemporalDetector,
    all_matches,
    expected_value_count_scan,
    mine,
    pair_statistics,
    rule_matches,
)

from repro.core.detector import FPInconsistent
from repro.core.knowledge import DeviceKnowledgeBase
from repro.core.rules import FilterList, InconsistencyRule
from repro.core.spatial import SpatialInconsistencyMiner, SpatialMinerConfig
from repro.core.temporal import TemporalInconsistencyDetector
from repro.devices.catalog import DeviceCatalog
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory, all_candidate_pairs
from repro.fingerprint.fingerprint import Fingerprint


@pytest.fixture(scope="module")
def kb():
    return DeviceKnowledgeBase()


# -- knowledge base ---------------------------------------------------------------


def test_kb_iphone_resolution(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.SCREEN_RESOLUTION, "390x844") is True
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.SCREEN_RESOLUTION, "1920x1080") is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.SCREEN_RESOLUTION, "847x476") is False


def test_kb_is_symmetric(kb):
    forward = kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.SCREEN_RESOLUTION, "1920x1080")
    backward = kb.is_pair_consistent(Attribute.SCREEN_RESOLUTION, "1920x1080", Attribute.UA_DEVICE, "iPhone")
    assert forward is False and backward is False


def test_kb_touch_rules(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.TOUCH_SUPPORT, "None") is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Mac", Attribute.TOUCH_SUPPORT, "touchEvent/touchStart") is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Windows PC", Attribute.TOUCH_SUPPORT, "touchEvent/touchStart") is None


def test_kb_max_touch_points(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.MAX_TOUCH_POINTS, 0) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.MAX_TOUCH_POINTS, 5) is True
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Mac", Attribute.MAX_TOUCH_POINTS, 10) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "SM-A515F", Attribute.MAX_TOUCH_POINTS, 0) is False


def test_kb_hardware_concurrency(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.HARDWARE_CONCURRENCY, 4) is True
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.HARDWARE_CONCURRENCY, 3) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.HARDWARE_CONCURRENCY, 32) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Mac", Attribute.HARDWARE_CONCURRENCY, 48) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Pixel 2", Attribute.HARDWARE_CONCURRENCY, 32) is False


def test_kb_color_depth_and_gamut(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.COLOR_DEPTH, 16) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.COLOR_DEPTH, 32) is True
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "SM-T875", Attribute.COLOR_GAMUT, "p3, rec2020") is False


def test_kb_plugins_on_mobile(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.PLUGINS, "Chrome PDF Viewer") is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.PLUGINS, "(none)") is True
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "Windows PC", Attribute.PLUGINS, "Chrome PDF Viewer") is None


def test_kb_browser_os_and_vendor(kb):
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Safari", Attribute.UA_OS, "Linux") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Safari", Attribute.UA_OS, "Windows") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Samsung Internet", Attribute.UA_OS, "Linux") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Mobile Safari", Attribute.VENDOR, "Google Inc.") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Chrome Mobile", Attribute.VENDOR, "Apple Computer, Inc.") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Chrome", Attribute.VENDOR, "Google Inc.") is True


def test_kb_browser_platform(kb):
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Mobile Safari", Attribute.PLATFORM, "Linux x86_64") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Chrome Mobile", Attribute.PLATFORM, "Win32") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Chrome Mobile iOS", Attribute.PLATFORM, "Win32") is False
    assert kb.is_pair_consistent(Attribute.UA_BROWSER, "Mobile Safari", Attribute.PLATFORM, "iPhone") is True


def test_kb_platform_rules(kb):
    assert kb.is_pair_consistent(Attribute.PLATFORM, "Linux armv5tejl", Attribute.VENDOR, "Apple Computer, Inc.") is False
    assert kb.is_pair_consistent(Attribute.PLATFORM, "Win32", Attribute.VENDOR, "Apple Computer, Inc.") is False
    assert kb.is_pair_consistent(Attribute.PLATFORM, "MacIntel", Attribute.VENDOR, "Apple Computer, Inc.") is True
    assert kb.is_pair_consistent(Attribute.PLATFORM, "Linux armv8l", Attribute.UA_OS, "Mac OS X") is False
    assert kb.is_pair_consistent(Attribute.PLATFORM, "Linux i686", Attribute.UA_OS, "Mac OS X") is False
    assert kb.is_pair_consistent(Attribute.PLATFORM, "Win32", Attribute.UA_OS, "Windows") is True


def test_kb_location_rules(kb):
    assert kb.is_pair_consistent(Attribute.IP_COUNTRY, "France", Attribute.TIMEZONE, "America/Los_Angeles") is False
    assert kb.is_pair_consistent(Attribute.IP_COUNTRY, "France", Attribute.TIMEZONE, "Europe/Berlin") is True
    assert kb.is_pair_consistent(Attribute.IP_COUNTRY, "France", Attribute.TIMEZONE, "Atlantis/Deep") is None


def test_kb_unknown_and_none_values(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.CANVAS, "xyz") is None
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, None, Attribute.TOUCH_SUPPORT, "None") is None


def test_kb_device_memory_rules(kb):
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "iPhone", Attribute.DEVICE_MEMORY, 3.0) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "SM-A515F", Attribute.DEVICE_MEMORY, 1.0) is False
    assert kb.is_pair_consistent(Attribute.UA_DEVICE, "SM-A515F", Attribute.DEVICE_MEMORY, 4.0) is True


def test_kb_catalog_fingerprints_never_inconsistent(kb):
    """No real catalogue configuration may be judged impossible."""

    from repro.fingerprint.categories import AttributeCategory, category_pairs

    catalog = DeviceCatalog()
    for profile in catalog:
        fingerprint = profile.fingerprint()
        for category in AttributeCategory:
            for attribute_a, attribute_b in category_pairs(category):
                verdict = kb.is_pair_consistent(
                    attribute_a,
                    fingerprint.value_for_grouping(attribute_a),
                    attribute_b,
                    fingerprint.value_for_grouping(attribute_b),
                )
                assert verdict is not False, (profile.name, attribute_a, attribute_b)


def test_kb_expected_value_count(kb):
    count = kb.expected_value_count(Attribute.UA_DEVICE, "iPhone", Attribute.SCREEN_RESOLUTION)
    assert count is not None and count >= 2
    assert kb.expected_value_count(Attribute.UA_DEVICE, "Nokia 3310", Attribute.SCREEN_RESOLUTION) is None


class _UnhashableEqual:
    """Unhashable, yet equal to one hashable value."""

    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return other == self.value


def test_kb_expected_value_count_index_matches_the_catalogue_scan():
    """Every answer of the per-pair index equals a scan of the catalogue,
    for both orientations of every mined pair and every value a profile
    carries, plus an absent value and an unhashable one."""

    kb = DeviceKnowledgeBase()
    profiles = list(DeviceCatalog())
    checked = 0
    for _category, first, second in all_candidate_pairs():
        for attribute_a, attribute_b in ((first, second), (second, first)):
            values = {profile.fingerprint().value_for_grouping(attribute_a) for profile in profiles}
            some = next(iter(values))
            for value_a in [*values, None, "no such value", [some], _UnhashableEqual(some)]:
                expected = expected_value_count_scan(kb, attribute_a, value_a, attribute_b)
                assert kb.expected_value_count(attribute_a, value_a, attribute_b) == expected, (
                    attribute_a, value_a, attribute_b,
                )
                checked += expected is not None
    assert checked > 100


# -- rules and filter lists ---------------------------------------------------------------


def _iphone_rule(support=10):
    return InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.UA_DEVICE,
        value_a="iPhone",
        attribute_b=Attribute.SCREEN_RESOLUTION,
        value_b="1920x1080",
        support=support,
    )


def test_rule_matches_fingerprint():
    rule = _iphone_rule()
    matching = Fingerprint({Attribute.UA_DEVICE: "iPhone", Attribute.SCREEN_RESOLUTION: (1920, 1080)})
    not_matching = Fingerprint({Attribute.UA_DEVICE: "iPhone", Attribute.SCREEN_RESOLUTION: (390, 844)})
    assert rule_matches(rule, matching)
    assert not rule_matches(rule, not_matching)
    assert "iPhone" in rule.describe()


def test_rule_serialisation_round_trip():
    rule = _iphone_rule()
    assert InconsistencyRule.from_dict(rule.to_dict()) == rule


def test_rule_key_is_order_independent():
    rule = _iphone_rule()
    swapped = InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.SCREEN_RESOLUTION,
        value_a="1920x1080",
        attribute_b=Attribute.UA_DEVICE,
        value_b="iPhone",
    )
    assert rule.key == swapped.key


def test_filter_list_deduplicates_and_matches():
    filter_list = FilterList([_iphone_rule()])
    assert not filter_list.add(_iphone_rule(support=99))
    assert len(filter_list) == 1
    fingerprint = Fingerprint({Attribute.UA_DEVICE: "iPhone", Attribute.SCREEN_RESOLUTION: (1920, 1080)})
    assert filter_list.first_match(fingerprint) is not None
    assert len(all_matches(filter_list, fingerprint)) == 1
    assert _iphone_rule().key in {rule.key for rule in filter_list}


def test_filter_list_views_and_persistence(tmp_path):
    other_rule = InconsistencyRule(
        category=AttributeCategory.BROWSER,
        attribute_a=Attribute.UA_BROWSER,
        value_a="Mobile Safari",
        attribute_b=Attribute.VENDOR,
        value_b="Google Inc.",
        support=50,
    )
    filter_list = FilterList([_iphone_rule(support=5), other_rule])
    assert {rule.category for rule in filter_list} == {AttributeCategory.SCREEN, AttributeCategory.BROWSER}
    assert filter_list.top_rules(1)[0] == other_rule
    path = tmp_path / "rules.json"
    filter_list.save(path)
    loaded = FilterList.load(path)
    assert len(loaded) == 2
    assert loaded.first_match(
        Fingerprint({Attribute.UA_BROWSER: "Mobile Safari", Attribute.VENDOR: "Google Inc."})
    ) == other_rule


def test_filter_list_merge():
    first = FilterList([_iphone_rule()])
    second = FilterList(
        [
            InconsistencyRule(
                category=AttributeCategory.DEVICE,
                attribute_a=Attribute.UA_DEVICE,
                value_a="Mac",
                attribute_b=Attribute.HARDWARE_CONCURRENCY,
                value_b=48,
            )
        ]
    )
    # The union of two lists: a new list, the inputs untouched.
    merged = FilterList([*first, *second, *first])
    assert len(merged) == 2 and len(first) == 1


# -- spatial miner ----------------------------------------------------------------------------


def _mining_fingerprints():
    """A corpus where many "iPhones" report impossible resolutions."""

    fingerprints = []
    for index in range(60):
        fingerprints.append(
            Fingerprint(
                {
                    Attribute.UA_DEVICE: "iPhone",
                    Attribute.SCREEN_RESOLUTION: (1920, 1080) if index % 2 == 0 else (847, 476),
                    Attribute.TOUCH_SUPPORT: "None",
                    Attribute.MAX_TOUCH_POINTS: 0,
                    Attribute.UA_OS: "iOS",
                    Attribute.UA_BROWSER: "Mobile Safari",
                    Attribute.VENDOR: "Google Inc.",
                    Attribute.PLATFORM: "Linux x86_64",
                    Attribute.HARDWARE_CONCURRENCY: 16,
                    Attribute.DEVICE_MEMORY: 8.0,
                }
            )
        )
    for index in range(40):
        fingerprints.append(
            Fingerprint(
                {
                    Attribute.UA_DEVICE: "Windows PC",
                    Attribute.SCREEN_RESOLUTION: (1920, 1080),
                    Attribute.TOUCH_SUPPORT: "None",
                    Attribute.MAX_TOUCH_POINTS: 0,
                    Attribute.UA_OS: "Windows",
                    Attribute.UA_BROWSER: "Chrome",
                    Attribute.VENDOR: "Google Inc.",
                    Attribute.PLATFORM: "Win32",
                    Attribute.HARDWARE_CONCURRENCY: 8,
                    Attribute.DEVICE_MEMORY: 8.0,
                }
            )
        )
    return fingerprints


def test_spatial_miner_finds_iphone_rules():
    # The synthetic corpus only has two distinct iPhone resolutions, so the
    # configuration-count inflation pre-filter is disabled for this test.
    miner = SpatialInconsistencyMiner(
        config=SpatialMinerConfig(min_support=5, min_value_support=10, inflation_factor=0)
    )
    filter_list = mine(miner, _mining_fingerprints())
    described = [rule.describe() for rule in filter_list]
    assert any("1920x1080" in text and "iPhone" in text for text in described)
    assert any("touch_support" in text and "iPhone" in text for text in described)
    assert any("Mobile Safari" in text and "Google Inc." in text for text in described)


def test_spatial_miner_does_not_flag_consistent_configurations():
    miner = SpatialInconsistencyMiner(
        config=SpatialMinerConfig(min_support=5, min_value_support=10, inflation_factor=0)
    )
    filter_list = mine(miner, _mining_fingerprints())
    windows = Fingerprint(
        {
            Attribute.UA_DEVICE: "Windows PC",
            Attribute.SCREEN_RESOLUTION: (1920, 1080),
            Attribute.UA_BROWSER: "Chrome",
            Attribute.VENDOR: "Google Inc.",
            Attribute.PLATFORM: "Win32",
            Attribute.UA_OS: "Windows",
            Attribute.TOUCH_SUPPORT: "None",
            Attribute.MAX_TOUCH_POINTS: 0,
        }
    )
    assert filter_list.first_match(windows) is None


def test_spatial_miner_min_support_guard():
    config = SpatialMinerConfig(min_support=1000, min_value_support=1000)
    miner = SpatialInconsistencyMiner(config=config)
    assert len(mine(miner, _mining_fingerprints())) == 0


def test_spatial_miner_config_validation():
    with pytest.raises(ValueError):
        SpatialMinerConfig(min_support=0)
    with pytest.raises(ValueError):
        SpatialMinerConfig(inflation_factor=-1)
    with pytest.raises(ValueError):
        SpatialMinerConfig(max_values_per_pair=0)


def test_pair_statistics_counts():
    stats = pair_statistics(
        _mining_fingerprints(), AttributeCategory.SCREEN, Attribute.UA_DEVICE, Attribute.SCREEN_RESOLUTION
    )
    counts = dict(stats.distinct_counts())
    assert counts["iPhone"] == 2
    assert counts["Windows PC"] == 1
    assert stats.value_support("iPhone") == 60


# -- temporal detector -----------------------------------------------------------------------


def test_temporal_detector_flags_attribute_change():
    detector = ObjectTemporalDetector()
    first = Fingerprint({Attribute.PLATFORM: "Win32", Attribute.HARDWARE_CONCURRENCY: 4})
    second = Fingerprint({Attribute.PLATFORM: "MacIntel", Attribute.HARDWARE_CONCURRENCY: 4})
    assert detector.observe(first, cookie="c1", ip_address="1.1.1.1") == []
    flags = detector.observe(second, cookie="c1", ip_address="1.1.1.1")
    assert any(flag.attribute is Attribute.PLATFORM for flag in flags)
    assert flags[0].key == "c1"


def test_temporal_detector_same_value_not_flagged():
    detector = ObjectTemporalDetector()
    fingerprint = Fingerprint({Attribute.PLATFORM: "Win32"})
    detector.observe(fingerprint, cookie="c1", ip_address=None)
    assert detector.observe(fingerprint, cookie="c1", ip_address=None) == []


def test_temporal_detector_distinct_cookies_independent():
    detector = ObjectTemporalDetector()
    detector.observe(Fingerprint({Attribute.PLATFORM: "Win32"}), cookie="c1", ip_address=None)
    assert detector.observe(Fingerprint({Attribute.PLATFORM: "MacIntel"}), cookie="c2", ip_address=None) == []


def test_temporal_detector_ip_timezone_tolerance():
    detector = ObjectTemporalDetector()
    zones = ["America/New_York", "Europe/Paris", "Asia/Shanghai"]
    flags = []
    for zone in zones:
        flags.extend(
            detector.observe(Fingerprint({Attribute.TIMEZONE: zone}), cookie=None, ip_address="9.9.9.9")
        )
    # Third distinct zone for the same IP exceeds the tolerance of 2.
    assert len(flags) == 1 and flags[0].key_kind == "ip"


def test_temporal_detector_reset_and_validation():
    with pytest.raises(ValueError):
        TemporalInconsistencyDetector(cookie_tolerance=0)
    detector = ObjectTemporalDetector()
    detector.observe(Fingerprint({Attribute.PLATFORM: "Win32"}), cookie="c1", ip_address=None)
    detector.reset()
    assert detector.observe(Fingerprint({Attribute.PLATFORM: "MacIntel"}), cookie="c1", ip_address=None) == []


# -- combined detector --------------------------------------------------------------------------


def test_fpinconsistent_check_fingerprint():
    detector = FPInconsistent(filter_list=FilterList([_iphone_rule()]))
    inconsistent = Fingerprint({Attribute.UA_DEVICE: "iPhone", Attribute.SCREEN_RESOLUTION: (1920, 1080)})
    consistent = Fingerprint({Attribute.UA_DEVICE: "iPhone", Attribute.SCREEN_RESOLUTION: (390, 844)})
    assert detector.check_fingerprint(inconsistent) is not None
    assert detector.check_fingerprint(consistent) is None
