"""Unit tests for the attribute registry and value coercion."""

import pytest

from repro.fingerprint.attributes import (
    ATTRIBUTE_SPECS,
    Attribute,
    IMMUTABLE_ATTRIBUTES,
    ValueKind,
    coerce_value,
    format_resolution,
    parse_resolution,
)


def test_every_attribute_has_a_spec():
    for attribute in Attribute:
        assert attribute in ATTRIBUTE_SPECS


def test_spec_for_returns_matching_attribute():
    spec = ATTRIBUTE_SPECS[Attribute.HARDWARE_CONCURRENCY]
    assert spec.attribute is Attribute.HARDWARE_CONCURRENCY
    assert spec.kind is ValueKind.INTEGER


def test_platform_is_immutable():
    assert ATTRIBUTE_SPECS[Attribute.PLATFORM].immutable


def test_user_agent_is_mutable():
    assert not ATTRIBUTE_SPECS[Attribute.USER_AGENT].immutable


def test_immutable_attributes_subset_of_registry():
    assert set(IMMUTABLE_ATTRIBUTES) <= set(ATTRIBUTE_SPECS)
    assert Attribute.HARDWARE_CONCURRENCY in IMMUTABLE_ATTRIBUTES
    assert Attribute.DEVICE_MEMORY in IMMUTABLE_ATTRIBUTES


def test_all_attributes_iterates_everything():
    assert set(ATTRIBUTE_SPECS) == set(Attribute)


def test_coerce_integer_from_string():
    assert coerce_value(Attribute.HARDWARE_CONCURRENCY, "8") == 8


def test_coerce_float():
    assert coerce_value(Attribute.DEVICE_MEMORY, "4.0") == pytest.approx(4.0)


def test_coerce_boolean_from_strings():
    assert coerce_value(Attribute.WEBDRIVER, "true") is True
    assert coerce_value(Attribute.WEBDRIVER, "False") is False
    assert coerce_value(Attribute.WEBDRIVER, 1) is True


def test_coerce_boolean_rejects_garbage():
    with pytest.raises(ValueError):
        coerce_value(Attribute.WEBDRIVER, "maybe")


def test_coerce_string_list_from_comma_string():
    assert coerce_value(Attribute.PLUGINS, "PDF Viewer, Chrome PDF Viewer") == (
        "PDF Viewer",
        "Chrome PDF Viewer",
    )


def test_coerce_string_list_from_sequence():
    assert coerce_value(Attribute.LANGUAGES, ["en-US", "en"]) == ("en-US", "en")


def test_coerce_none_passes_through():
    assert coerce_value(Attribute.PLUGINS, None) is None


def test_parse_resolution_from_string():
    assert parse_resolution("390x844") == (390, 844)
    assert parse_resolution("390X844") == (390, 844)


def test_parse_resolution_from_sequence():
    assert parse_resolution([1920, 1080]) == (1920, 1080)
    assert parse_resolution((390, 844)) == (390, 844)


def test_parse_resolution_rejects_garbage():
    with pytest.raises(ValueError):
        parse_resolution("huge screen")


def test_format_resolution_round_trip():
    assert format_resolution((390, 844)) == "390x844"
    assert parse_resolution(format_resolution((390, 844))) == (390, 844)


def test_format_resolution_none():
    assert format_resolution(None) is None


def test_coerce_resolution_attribute():
    assert coerce_value(Attribute.SCREEN_RESOLUTION, "414x896") == (414, 896)
