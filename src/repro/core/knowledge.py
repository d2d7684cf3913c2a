"""Device knowledge base: which attribute-value pairs can exist for real
devices.

FP-Inconsistent is semi-automatic: Algorithm 1 surfaces candidate
attribute-value pairs ordered by configuration-count inflation, and a
domain judgement decides whether each candidate "combination is
inconsistent" (line 8).  In the paper that judgement is made by an analyst
consulting public device catalogues; here it is encoded once in this
knowledge base so the whole pipeline runs unattended and the judgement is
testable.

The knowledge base answers three-way questions: ``True`` (the combination
occurs on real devices), ``False`` (it cannot occur), ``None`` (unknown —
never used to flag anything).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

from repro.devices.catalog import DeviceCatalog
from repro.devices.screens import is_real_resolution_for_device
from repro.fingerprint.attributes import Attribute, parse_resolution
from repro.fingerprint.fingerprint import Fingerprint
from repro.geo.timezones import TIMEZONES, offsets_of_country, utc_offsets_of

_APPLE_DEVICES = ("iPhone", "iPad", "Mac")
_APPLE_MOBILE = ("iPhone", "iPad")
_APPLE_PLATFORMS = ("iPhone", "iPad", "MacIntel", "MacPPC")
_SAFARI_BROWSERS = ("Safari", "Mobile Safari")
_CHROMIUM_BROWSERS = ("Chrome", "Chrome Mobile", "Edge", "Opera", "Samsung Internet", "MiuiBrowser")
_APPLE_VENDOR_PREFIX = "Apple"
_GOOGLE_VENDOR_PREFIX = "Google"

#: Hardware-concurrency ranges real devices of each family ship with.
_CORE_RANGES = {
    "iPhone": (2, 6),
    "iPad": (2, 10),
    "Mac": (2, 32),
    "Windows PC": (2, 64),
    "Linux PC": (1, 128),
    "Chromebook": (2, 16),
}
_ANDROID_CORE_RANGE = (2, 10)

#: ``navigator.deviceMemory`` is clamped by the specification to the set
#: {0.25, 0.5, 1, 2, 4, 8}, so any family can legitimately report any of
#: those values; only known Android models (whose true memory is in the
#: catalogue) can be checked more tightly.
_VALID_DEVICE_MEMORY = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Core counts real Apple mobile devices ship with.
_IPHONE_CORE_COUNTS = (2, 4, 6)
_IPAD_CORE_COUNTS = (2, 4, 6, 8, 10)


def _is_android_model(ua_device: str) -> bool:
    """Heuristic: UA devices that are neither Apple nor desktop families are
    Android model strings (e.g. ``"SM-A515F"``, ``"Pixel 7"``)."""

    return ua_device not in _APPLE_DEVICES and ua_device not in (
        "Windows PC",
        "Linux PC",
        "Chromebook",
        "Other",
    )


class DeviceKnowledgeBase:
    """Answers whether a pair of attribute values can coexist on a real device."""

    def __init__(self, catalog: Optional[DeviceCatalog] = None):
        self._catalog = catalog if catalog is not None else DeviceCatalog()
        #: (attribute_a, attribute_b) -> {value_a: the distinct attribute_b
        #: values of the profiles carrying it}; built per pair on first use
        #: (the catalogue is immutable after construction).
        self._expected_index: Dict[Tuple[Attribute, Attribute], Dict[object, Set]] = {}
        #: attribute -> per profile: its grouping value, and those of its
        #: screen-resolution variants
        self._grouping: Dict[Attribute, List[Tuple[object, List]]] = {}

    # -- public API -----------------------------------------------------------

    def is_pair_consistent(
        self,
        attribute_a: Attribute,
        value_a: object,
        attribute_b: Attribute,
        value_b: object,
    ) -> Optional[bool]:
        """Three-way consistency judgement for one value pair.

        The check is symmetric in its two arguments.  ``None`` values are
        always "unknown" (some browsers legitimately omit attributes).
        """

        if value_a is None or value_b is None:
            return None
        result = self._judge(attribute_a, value_a, attribute_b, value_b)
        if result is not None:
            return result
        return self._judge(attribute_b, value_b, attribute_a, value_a)

    # -- dispatch -------------------------------------------------------------

    def _judge(
        self, attribute_a: Attribute, value_a: object, attribute_b: Attribute, value_b: object
    ) -> Optional[bool]:
        if attribute_a is Attribute.UA_DEVICE:
            return self._judge_ua_device(str(value_a), attribute_b, value_b)
        if attribute_a is Attribute.UA_BROWSER:
            return self._judge_ua_browser(str(value_a), attribute_b, value_b)
        if attribute_a is Attribute.PLATFORM:
            return self._judge_platform(str(value_a), attribute_b, value_b)
        if attribute_a is Attribute.UA_OS:
            return self._judge_ua_os(str(value_a), attribute_b, value_b)
        if attribute_a is Attribute.IP_COUNTRY:
            return self._judge_ip_country(str(value_a), attribute_b, value_b)
        return None

    # -- UA device rules ----------------------------------------------------------

    def _judge_ua_device(
        self, device: str, attribute: Attribute, value: object
    ) -> Optional[bool]:
        if attribute is Attribute.SCREEN_RESOLUTION:
            try:
                resolution = parse_resolution(value)
            except ValueError:
                return False
            return is_real_resolution_for_device(device, resolution)

        if attribute is Attribute.TOUCH_SUPPORT:
            has_touch = str(value) not in ("", "None")
            if device in _APPLE_MOBILE:
                return has_touch
            if device == "Mac":
                return not has_touch
            if _is_android_model(device):
                return has_touch
            return None  # Windows / Linux PCs may or may not have touch screens.

        if attribute is Attribute.MAX_TOUCH_POINTS:
            points = int(value)
            if device in _APPLE_MOBILE:
                return points == 5
            if device == "Mac":
                return points == 0
            if _is_android_model(device):
                return points >= 1
            if points < 0 or points > 20:
                return False
            return None

        if attribute is Attribute.COLOR_DEPTH:
            depth = int(value)
            if depth not in (16, 24, 30, 32, 48):
                return False
            if device in _APPLE_DEVICES:
                return depth in (24, 30, 32)
            return None

        if attribute is Attribute.COLOR_GAMUT:
            gamut = str(value)
            if device in _APPLE_DEVICES:
                return gamut in ("srgb", "p3")
            if _is_android_model(device) and "rec2020" in gamut:
                # Consumer Android phones/tablets do not report rec2020.
                return False
            return None

        if attribute is Attribute.HARDWARE_CONCURRENCY:
            cores = int(value)
            if cores < 1:
                return False
            if device == "iPhone":
                return cores in _IPHONE_CORE_COUNTS
            if device == "iPad":
                return cores in _IPAD_CORE_COUNTS
            low, high = _CORE_RANGES.get(
                device, _ANDROID_CORE_RANGE if _is_android_model(device) else (1, 128)
            )
            return low <= cores <= high

        if attribute is Attribute.DEVICE_MEMORY:
            memory = float(value)
            if memory not in _VALID_DEVICE_MEMORY:
                return False
            if _is_android_model(device):
                known = self._catalog_memory_options(device)
                if known is not None:
                    return memory in known
            return None

        if attribute is Attribute.PLUGINS:
            has_plugins = bool(str(value)) and str(value) != "(none)"
            if device in _APPLE_MOBILE or _is_android_model(device):
                # Mobile browsers expose no navigator plugins.
                return not has_plugins
            return None

        if attribute is Attribute.VENDOR:
            vendor = str(value)
            if device in _APPLE_MOBILE:
                return vendor.startswith(_APPLE_VENDOR_PREFIX)
            return None

        if attribute is Attribute.HDR:
            return None
        if attribute is Attribute.CONTRAST:
            return None
        if attribute is Attribute.REDUCED_MOTION:
            return None
        if attribute is Attribute.UA_OS:
            os_name = str(value)
            if device in _APPLE_MOBILE:
                return os_name == "iOS"
            if device == "Mac":
                return os_name == "Mac OS X"
            if device == "Windows PC":
                return os_name == "Windows"
            if _is_android_model(device):
                return os_name == "Android"
            return None
        return None

    # -- UA browser rules -----------------------------------------------------------

    def _judge_ua_browser(
        self, browser: str, attribute: Attribute, value: object
    ) -> Optional[bool]:
        if attribute is Attribute.UA_OS:
            os_name = str(value)
            if browser in ("Safari", "Mobile Safari"):
                return os_name in ("Mac OS X", "iOS")
            if browser in ("Samsung Internet", "MiuiBrowser"):
                return os_name == "Android"
            if browser in ("Chrome Mobile iOS", "Firefox iOS"):
                return os_name == "iOS"
            if browser == "Chrome Mobile":
                return os_name == "Android"
            return None

        if attribute is Attribute.VENDOR:
            vendor = str(value)
            if browser in _SAFARI_BROWSERS:
                return vendor.startswith(_APPLE_VENDOR_PREFIX)
            if browser in ("Chrome", "Chrome Mobile", "Samsung Internet", "MiuiBrowser", "Edge", "Opera"):
                return vendor.startswith(_GOOGLE_VENDOR_PREFIX)
            if browser == "Chrome Mobile iOS":
                # WebKit shell: reports the Apple vendor.
                return vendor.startswith(_APPLE_VENDOR_PREFIX)
            if browser in ("Firefox", "Firefox iOS"):
                return vendor == ""
            return None

        if attribute is Attribute.PLATFORM:
            platform = str(value)
            if browser == "Mobile Safari":
                return platform in ("iPhone", "iPad")
            if browser == "Safari":
                return platform in _APPLE_PLATFORMS
            if browser == "Chrome Mobile iOS":
                return platform in ("iPhone", "iPad")
            if browser == "Chrome Mobile":
                return platform.startswith("Linux arm") or platform.startswith("Linux aarch")
            if browser in ("Samsung Internet", "MiuiBrowser"):
                return platform.startswith("Linux arm") or platform.startswith("Linux aarch")
            return None

        if attribute is Attribute.PLUGINS:
            has_plugins = bool(str(value)) and str(value) != "(none)"
            if browser in ("Mobile Safari", "Chrome Mobile", "Chrome Mobile iOS", "Samsung Internet", "MiuiBrowser", "Firefox iOS"):
                return not has_plugins
            return None

        if attribute is Attribute.VENDOR_FLAVORS:
            flavors = str(value)
            if browser in _SAFARI_BROWSERS and "chrome" in flavors:
                return False
            if browser in ("Firefox",) and flavors not in ("", "(none)"):
                return False
            return None
        return None

    # -- platform rules ---------------------------------------------------------------

    def _judge_platform(self, platform: str, attribute: Attribute, value: object) -> Optional[bool]:
        if attribute is Attribute.VENDOR:
            vendor = str(value)
            if vendor.startswith(_APPLE_VENDOR_PREFIX):
                return platform in _APPLE_PLATFORMS
            return None
        if attribute is Attribute.UA_OS:
            os_name = str(value)
            if platform == "Win32":
                return os_name == "Windows"
            if platform in ("MacIntel", "MacPPC"):
                return os_name == "Mac OS X"
            if platform in ("iPhone", "iPad"):
                return os_name == "iOS"
            if platform.startswith("Linux arm") or platform.startswith("Linux aarch"):
                return os_name in ("Android", "Linux")
            if platform.startswith("Linux"):
                return os_name in ("Linux", "Android", "Chrome OS")
            return None
        return None

    # -- UA OS rules -----------------------------------------------------------------------

    def _judge_ua_os(self, os_name: str, attribute: Attribute, value: object) -> Optional[bool]:
        if attribute is Attribute.PLUGINS:
            has_plugins = bool(str(value)) and str(value) != "(none)"
            if os_name in ("iOS", "Android"):
                return not has_plugins
            return None
        if attribute is Attribute.DEVICE_MEMORY:
            # Any spec-valid value is possible for any OS; invalid values
            # (e.g. 3 or 12 GiB) cannot be produced by a real browser.
            return None if float(value) in _VALID_DEVICE_MEMORY else False
        return None

    # -- location rules ---------------------------------------------------------------------

    def _judge_ip_country(self, country: str, attribute: Attribute, value: object) -> Optional[bool]:
        if attribute is Attribute.TIMEZONE:
            timezone = str(value)
            if timezone not in TIMEZONES:
                return None
            country_offsets = offsets_of_country(country)
            if not country_offsets:
                return None
            zone_offsets = set(utc_offsets_of(timezone))
            return bool(zone_offsets & country_offsets)
        return None

    # -- helpers ----------------------------------------------------------------------------------

    def _catalog_memory_options(self, ua_device: str) -> Optional[Tuple[float, ...]]:
        profiles = self._catalog.by_device(ua_device)
        if not profiles:
            return None
        options = set()
        for profile in profiles:
            options.update(profile.device_memory_options)
        return tuple(sorted(options))

    def expected_value_count(
        self, attribute_a: Attribute, value_a: object, attribute_b: Attribute
    ) -> Optional[int]:
        """How many distinct values of *attribute_b* real devices matching
        ``attribute_a == value_a`` exhibit in the catalogue.

        Used by the spatial miner's configuration-count inflation test.
        Returns ``None`` when the catalogue has no matching profile.  The
        miner asks about every ranked value of every attribute pair, so
        each pair's answers come from one index (:meth:`_pair_index`).
        """

        index = self._expected_index.get((attribute_a, attribute_b))
        if index is None:
            index = self._expected_index[(attribute_a, attribute_b)] = self._pair_index(
                attribute_a, attribute_b
            )
        try:
            values = index.get(value_a)
        except TypeError:  # unhashable: compared with every indexed value
            matched = [bucket for key, bucket in index.items() if key == value_a]
            values = set().union(*matched) if matched else None
        return None if values is None else len(values)

    def _pair_index(self, attribute_a: Attribute, attribute_b: Attribute) -> Dict[object, Set]:
        """Each *attribute_a* value a profile carries → the *attribute_b*
        values of its screen-resolution variants, unioned over the
        profiles sharing the value."""

        index: Dict[object, Set] = {}
        for (value_a, _variants_a), (_value_b, variants_b) in zip(
            self._grouping_column(attribute_a), self._grouping_column(attribute_b)
        ):
            index.setdefault(value_a, set()).update(variants_b)
        return index

    def _grouping_column(self, attribute: Attribute) -> List[Tuple[object, List]]:
        """Per profile, its *attribute* grouping value and its variants'."""

        column = self._grouping.get(attribute)
        if column is None:
            column = self._grouping[attribute] = [
                (
                    fingerprint.value_for_grouping(attribute),
                    [variant.value_for_grouping(attribute) for variant in variants],
                )
                for fingerprint, variants in self._profile_fingerprints
            ]
        return column

    @functools.cached_property
    def _profile_fingerprints(self) -> List[Tuple[Fingerprint, List[Fingerprint]]]:
        """One catalogue pass: per profile, its fingerprint and one per
        screen resolution."""

        return [
            (
                profile.fingerprint(),
                [
                    profile.fingerprint(screen_resolution=resolution)
                    for resolution in profile.screen_resolutions
                ],
            )
            for profile in self._catalog
        ]
