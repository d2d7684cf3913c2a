"""Unit tests for User-Agent synthesis, read back by the reference parser."""

import pytest
from reference.fingerprint import parse_user_agent

from repro.antibot.signals import has_automation_user_agent
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.useragent import build_user_agent
from repro.network.request import WebRequest


def test_parse_iphone_safari():
    ua = build_user_agent("iPhone", "iOS", "Mobile Safari")
    parsed = parse_user_agent(ua)
    assert parsed.device == "iPhone"
    assert parsed.os == "iOS"
    assert parsed.browser == "Mobile Safari"


def test_parse_ipad():
    parsed = parse_user_agent(build_user_agent("iPad", "iOS", "Mobile Safari"))
    assert parsed.device == "iPad"
    assert parsed.os == "iOS"


def test_parse_mac_safari():
    parsed = parse_user_agent(build_user_agent("Mac", "Mac OS X", "Safari"))
    assert parsed.device == "Mac"
    assert parsed.os == "Mac OS X"
    assert parsed.browser == "Safari"


def test_parse_mac_chrome():
    parsed = parse_user_agent(build_user_agent("Mac", "Mac OS X", "Chrome"))
    assert parsed.device == "Mac"
    assert parsed.browser == "Chrome"


def test_parse_windows_chrome():
    parsed = parse_user_agent(build_user_agent("Windows PC", "Windows", "Chrome"))
    assert parsed.device == "Windows PC"
    assert parsed.os == "Windows"
    assert parsed.browser == "Chrome"


def test_parse_windows_edge():
    parsed = parse_user_agent(build_user_agent("Windows PC", "Windows", "Edge"))
    assert parsed.browser == "Edge"


def test_parse_windows_firefox():
    parsed = parse_user_agent(build_user_agent("Windows PC", "Windows", "Firefox"))
    assert parsed.browser == "Firefox"
    assert parsed.os == "Windows"


def test_parse_linux_chrome():
    parsed = parse_user_agent(build_user_agent("Linux PC", "Linux", "Chrome"))
    assert parsed.device == "Linux PC"
    assert parsed.os == "Linux"


def test_parse_android_model_chrome_mobile():
    ua = build_user_agent("SM-A515F", "Android", "Chrome Mobile", model="SM-A515F")
    parsed = parse_user_agent(ua)
    assert parsed.device == "SM-A515F"
    assert parsed.os == "Android"
    assert parsed.browser == "Chrome Mobile"


def test_parse_android_samsung_internet():
    ua = build_user_agent("SM-S906N", "Android", "Samsung Internet", model="SM-S906N")
    parsed = parse_user_agent(ua)
    assert parsed.browser == "Samsung Internet"
    assert parsed.device == "SM-S906N"


def test_parse_android_miui_browser():
    ua = build_user_agent("M2006C3MG", "Android", "MiuiBrowser", model="M2006C3MG")
    parsed = parse_user_agent(ua)
    assert parsed.browser == "MiuiBrowser"


def test_parse_chrome_mobile_ios():
    ua = build_user_agent("iPhone", "iOS", "Chrome Mobile iOS")
    parsed = parse_user_agent(ua)
    assert parsed.device == "iPhone"
    assert parsed.browser == "Chrome Mobile iOS"


def test_parse_headless_chrome_marker_present():
    # An unmodified headless Chromium advertises itself; the detectors read it.
    ua = (
        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
        "HeadlessChrome/118.0.0.0 Safari/537.36"
    )
    request = WebRequest(
        url_path="/a", timestamp=0.0, ip_address="100.0.0.1", fingerprint=Fingerprint({}),
        headers={"User-Agent": ua},
    )
    assert has_automation_user_agent(request)
    assert not has_automation_user_agent(
        WebRequest(
            url_path="/a", timestamp=0.0, ip_address="100.0.0.1", fingerprint=Fingerprint({}),
            headers={"User-Agent": build_user_agent("Linux PC", "Linux", "Chrome")},
        )
    )


def test_parse_none_and_empty():
    assert parse_user_agent(None).device == "Other"
    assert parse_user_agent("").browser == "Other"


def test_parse_strips_android_build_suffix():
    ua = (
        "Mozilla/5.0 (Linux; Android 11; SM-A515F Build/RP1A.200720.012) "
        "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/110.0.0.0 Mobile Safari/537.36"
    )
    assert parse_user_agent(ua).device == "SM-A515F"


@pytest.mark.parametrize(
    "device,os_family,browser",
    [
        ("iPhone", "iOS", "Mobile Safari"),
        ("iPad", "iOS", "Mobile Safari"),
        ("Mac", "Mac OS X", "Safari"),
        ("Mac", "Mac OS X", "Chrome"),
        ("Mac", "Mac OS X", "Firefox"),
        ("Windows PC", "Windows", "Chrome"),
        ("Windows PC", "Windows", "Firefox"),
        ("Linux PC", "Linux", "Chrome"),
        ("Linux PC", "Linux", "Firefox"),
        ("Pixel 7", "Android", "Chrome Mobile"),
    ],
)
def test_round_trip_for_catalogue_families(device, os_family, browser):
    parsed = parse_user_agent(build_user_agent(device, os_family, browser, model=device))
    assert parsed.as_tuple() == (device, os_family, browser)
