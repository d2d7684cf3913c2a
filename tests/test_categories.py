"""Unit tests for attribute categories (Table 7)."""

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import (
    AttributeCategory,
    CATEGORY_ATTRIBUTES,
    all_candidate_pairs,
    category_pairs,
)


def categories_of(attribute):
    return tuple(category for category, members in CATEGORY_ATTRIBUTES.items() if attribute in members)


def test_four_categories_exist():
    assert set(AttributeCategory) == {
        AttributeCategory.SCREEN,
        AttributeCategory.DEVICE,
        AttributeCategory.BROWSER,
        AttributeCategory.LOCATION,
    }


def test_screen_category_contains_table7_attributes():
    screen = CATEGORY_ATTRIBUTES[AttributeCategory.SCREEN]
    assert Attribute.UA_DEVICE in screen
    assert Attribute.SCREEN_RESOLUTION in screen
    assert Attribute.TOUCH_SUPPORT in screen
    assert Attribute.MAX_TOUCH_POINTS in screen


def test_device_category_contains_table7_attributes():
    device = CATEGORY_ATTRIBUTES[AttributeCategory.DEVICE]
    assert set(device) == {
        Attribute.UA_DEVICE,
        Attribute.DEVICE_MEMORY,
        Attribute.HARDWARE_CONCURRENCY,
        Attribute.UA_OS,
    }


def test_location_category_contains_timezone_and_ip():
    location = CATEGORY_ATTRIBUTES[AttributeCategory.LOCATION]
    assert Attribute.TIMEZONE in location
    assert Attribute.IP_COUNTRY in location


def test_category_pairs_are_unordered_combinations():
    pairs = list(category_pairs(AttributeCategory.DEVICE))
    count = len(CATEGORY_ATTRIBUTES[AttributeCategory.DEVICE])
    assert len(pairs) == count * (count - 1) // 2
    assert all(left != right for left, right in pairs)


def test_all_candidate_pairs_cover_every_category():
    categories = {category for category, _a, _b in all_candidate_pairs()}
    assert categories == set(AttributeCategory)


def test_categories_of_shared_attribute():
    categories = categories_of(Attribute.UA_DEVICE)
    assert AttributeCategory.SCREEN in categories
    assert AttributeCategory.DEVICE in categories


def test_categories_of_unused_attribute():
    assert categories_of(Attribute.CANVAS) == ()


def test_every_category_is_nonempty():
    for category, members in CATEGORY_ATTRIBUTES.items():
        assert members, f"{category} has no attributes"
