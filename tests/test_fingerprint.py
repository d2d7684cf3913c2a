"""Unit tests for the Fingerprint record."""

import pytest
from reference.fingerprint import (
    differing_attributes,
    fingerprint_dict,
    parse_user_agent,
    stable_hash,
)

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint


@pytest.fixture
def base_fingerprint():
    return Fingerprint(
        {
            Attribute.USER_AGENT: "Mozilla/5.0 (X11; Linux x86_64) Chrome/118.0.0.0",
            Attribute.UA_DEVICE: "Linux PC",
            Attribute.PLATFORM: "Linux x86_64",
            Attribute.HARDWARE_CONCURRENCY: 8,
            Attribute.SCREEN_RESOLUTION: (1920, 1080),
            Attribute.PLUGINS: ("PDF Viewer",),
            Attribute.WEBDRIVER: False,
            Attribute.IP_ADDRESS: "100.0.0.1",
        }
    )


def test_mapping_access(base_fingerprint):
    assert base_fingerprint[Attribute.HARDWARE_CONCURRENCY] == 8
    assert base_fingerprint.get(Attribute.VENDOR) is None
    assert Attribute.PLATFORM in base_fingerprint
    assert len(base_fingerprint) == 8


def test_accepts_string_keys():
    fingerprint = Fingerprint({"hardware_concurrency": "4", "platform": "Win32"})
    assert fingerprint[Attribute.HARDWARE_CONCURRENCY] == 4
    assert fingerprint[Attribute.PLATFORM] == "Win32"


def test_replace_returns_new_instance(base_fingerprint):
    altered = base_fingerprint.replace(hardware_concurrency=4)
    assert altered[Attribute.HARDWARE_CONCURRENCY] == 4
    assert base_fingerprint[Attribute.HARDWARE_CONCURRENCY] == 8
    assert altered is not base_fingerprint


def test_without_removes_attributes(base_fingerprint):
    dropped = (Attribute.PLUGINS, Attribute.WEBDRIVER)
    trimmed = Fingerprint({key: value for key, value in base_fingerprint.items() if key not in dropped})
    assert Attribute.PLUGINS not in trimmed
    assert Attribute.WEBDRIVER not in trimmed
    assert Attribute.PLATFORM in trimmed


def test_equality_and_hash(base_fingerprint):
    clone = Fingerprint(dict(base_fingerprint))
    assert clone == base_fingerprint
    assert stable_hash(clone) == stable_hash(base_fingerprint)


def test_stable_hash_changes_with_browser_attributes(base_fingerprint):
    altered = base_fingerprint.replace(hardware_concurrency=2)
    assert stable_hash(altered) != stable_hash(base_fingerprint)


def test_stable_hash_ignores_transport_attributes(base_fingerprint):
    altered = base_fingerprint.replace(ip_address="45.0.0.9")
    assert stable_hash(altered) == stable_hash(base_fingerprint)


def test_to_dict_from_dict_round_trip(base_fingerprint):
    # Construction from plain string keys and lists coerces back exactly.
    rebuilt = Fingerprint(fingerprint_dict(base_fingerprint))
    assert rebuilt == base_fingerprint


def test_value_for_grouping_formats_resolution(base_fingerprint):
    assert base_fingerprint.value_for_grouping(Attribute.SCREEN_RESOLUTION) == "1920x1080"


def test_value_for_grouping_joins_lists(base_fingerprint):
    assert base_fingerprint.value_for_grouping(Attribute.PLUGINS) == "PDF Viewer"
    empty = base_fingerprint.replace(plugins=())
    assert empty.value_for_grouping(Attribute.PLUGINS) == "(none)"


def test_value_for_grouping_missing_is_none(base_fingerprint):
    assert base_fingerprint.value_for_grouping(Attribute.VENDOR) is None


def test_parsed_user_agent(base_fingerprint):
    assert parse_user_agent(base_fingerprint[Attribute.USER_AGENT]).os == "Linux"


def test_fingerprint_distance(base_fingerprint):
    # replace() changes exactly the named attributes.
    assert differing_attributes(base_fingerprint, base_fingerprint) == set()
    altered = base_fingerprint.replace(hardware_concurrency=2, platform="Win32")
    assert differing_attributes(base_fingerprint, altered) == {
        Attribute.HARDWARE_CONCURRENCY,
        Attribute.PLATFORM,
    }


def test_fingerprint_distance_counts_missing_attributes(base_fingerprint):
    trimmed = Fingerprint(
        {key: value for key, value in base_fingerprint.items() if key is not Attribute.PLUGINS}
    )
    assert differing_attributes(base_fingerprint, trimmed) == {Attribute.PLUGINS}
