"""Catalogue of real device configurations.

The catalogue is the library's model of the *limited* hardware/software
configuration space that real devices occupy (the central premise of
FP-Inconsistent, Section 7.1).  Profiles cover the device families that
appear in the paper's dataset: iPhones, iPads, Macs, Windows PCs, Linux
desktops and a selection of Android phones and tablets named in Table 6.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.profiles import (
    CHROMIUM_PDF_PLUGINS,
    DeviceProfile,
    TOUCH_EVENTS,
    TOUCH_NONE,
)

_APPLE_VENDOR = "Apple Computer, Inc."
_GOOGLE_VENDOR = "Google Inc."
_EMPTY_VENDOR = ""

_IPHONE_RESOLUTIONS: Tuple[Tuple[int, int], ...] = (
    (390, 844),
    (393, 852),
    (375, 812),
    (414, 896),
    (428, 926),
    (430, 932),
    (375, 667),
    (320, 568),
)

_IPAD_RESOLUTIONS: Tuple[Tuple[int, int], ...] = (
    (768, 1024),
    (810, 1080),
    (820, 1180),
    (834, 1194),
    (1024, 1366),
)


def _iphone(name: str, os_version: str, resolutions: Sequence[Tuple[int, int]], weight: float) -> DeviceProfile:
    return DeviceProfile(
        name=name,
        ua_device="iPhone",
        ua_os="iOS",
        ua_browser="Mobile Safari",
        platform="iPhone",
        vendor=_APPLE_VENDOR,
        vendor_flavors=("safari",),
        screen_resolutions=tuple(resolutions),
        color_depth=32,
        color_gamut="p3",
        max_touch_points=5,
        touch_support=TOUCH_EVENTS,
        hardware_concurrency_options=(4, 6),
        device_memory_options=(4.0,),
        plugins=(),
        product_sub="20030107",
        os_version=os_version,
        weight=weight,
        languages_options=(("en-US", "en"), ("fr-FR", "fr"), ("es-MX", "es")),
    )


def _ipad(name: str, os_version: str, resolutions: Sequence[Tuple[int, int]], weight: float) -> DeviceProfile:
    return DeviceProfile(
        name=name,
        ua_device="iPad",
        ua_os="iOS",
        ua_browser="Mobile Safari",
        platform="iPad",
        vendor=_APPLE_VENDOR,
        vendor_flavors=("safari",),
        screen_resolutions=tuple(resolutions),
        color_depth=32,
        color_gamut="p3",
        max_touch_points=5,
        touch_support=TOUCH_EVENTS,
        hardware_concurrency_options=(4, 8),
        device_memory_options=(4.0, 8.0),
        plugins=(),
        product_sub="20030107",
        os_version=os_version,
        weight=weight,
    )


def _android_phone(
    name: str,
    model: str,
    browser: str,
    resolutions: Sequence[Tuple[int, int]],
    cores: Sequence[int],
    memory: Sequence[float],
    weight: float,
    platform: str = "Linux armv8l",
) -> DeviceProfile:
    vendor = _GOOGLE_VENDOR if browser in ("Chrome Mobile", "Samsung Internet", "MiuiBrowser") else _EMPTY_VENDOR
    return DeviceProfile(
        name=name,
        ua_device=model,
        ua_os="Android",
        ua_browser=browser,
        platform=platform,
        vendor=vendor,
        vendor_flavors=("chrome",) if vendor == _GOOGLE_VENDOR else (),
        screen_resolutions=tuple(resolutions),
        color_depth=24,
        color_gamut="srgb",
        max_touch_points=5,
        touch_support=TOUCH_EVENTS,
        hardware_concurrency_options=tuple(cores),
        device_memory_options=tuple(memory),
        plugins=(),
        product_sub="20030107",
        os_version="13",
        model=model,
        weight=weight,
    )


def build_default_catalog() -> Tuple[DeviceProfile, ...]:
    """Build the default catalogue of real device profiles."""

    profiles: List[DeviceProfile] = []

    # ------------------------------------------------------------------ iOS
    profiles.append(_iphone("iphone-14", "16_6", _IPHONE_RESOLUTIONS[:6], weight=5.0))
    profiles.append(_iphone("iphone-se", "15_7", ((375, 667), (320, 568)), weight=1.5))
    profiles.append(_ipad("ipad-air", "16_6", _IPAD_RESOLUTIONS[:4], weight=2.0))
    profiles.append(_ipad("ipad-pro-12", "16_6", ((1024, 1366),), weight=1.0))

    # ------------------------------------------------------------------ Mac
    profiles.append(
        DeviceProfile(
            name="macbook-pro-safari",
            ua_device="Mac",
            ua_os="Mac OS X",
            ua_browser="Safari",
            platform="MacIntel",
            vendor=_APPLE_VENDOR,
            vendor_flavors=("safari",),
            screen_resolutions=((1512, 982), (1728, 1117), (1440, 900), (2560, 1440)),
            color_depth=30,
            color_gamut="p3",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(8, 10, 12),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            os_version="10_15_7",
            weight=3.0,
        )
    )
    profiles.append(
        DeviceProfile(
            name="macbook-pro-chrome",
            ua_device="Mac",
            ua_os="Mac OS X",
            ua_browser="Chrome",
            platform="MacIntel",
            vendor=_GOOGLE_VENDOR,
            vendor_flavors=("chrome",),
            screen_resolutions=((1512, 982), (1728, 1117), (1680, 1050), (2560, 1600), (1920, 1080)),
            color_depth=30,
            color_gamut="p3",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(8, 10, 12),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            os_version="10_15_7",
            weight=3.0,
        )
    )

    # ------------------------------------------------------------------ Windows
    profiles.append(
        DeviceProfile(
            name="windows-desktop-chrome",
            ua_device="Windows PC",
            ua_os="Windows",
            ua_browser="Chrome",
            platform="Win32",
            vendor=_GOOGLE_VENDOR,
            vendor_flavors=("chrome",),
            screen_resolutions=((1920, 1080), (1366, 768), (2560, 1440), (1536, 864), (1600, 900)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(4, 6, 8, 12, 16),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            weight=6.0,
        )
    )
    profiles.append(
        DeviceProfile(
            name="windows-laptop-edge",
            ua_device="Windows PC",
            ua_os="Windows",
            ua_browser="Edge",
            platform="Win32",
            vendor=_GOOGLE_VENDOR,
            vendor_flavors=("chrome", "edge"),
            screen_resolutions=((1920, 1080), (1366, 768), (1536, 864)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(4, 8, 12),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            weight=2.0,
        )
    )
    profiles.append(
        DeviceProfile(
            name="windows-desktop-firefox",
            ua_device="Windows PC",
            ua_os="Windows",
            ua_browser="Firefox",
            platform="Win32",
            vendor=_EMPTY_VENDOR,
            vendor_flavors=(),
            screen_resolutions=((1920, 1080), (2560, 1440), (1366, 768)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(4, 8, 16),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20100101",
            weight=1.5,
        )
    )
    profiles.append(
        DeviceProfile(
            name="surface-touch-chrome",
            ua_device="Windows PC",
            ua_os="Windows",
            ua_browser="Chrome",
            platform="Win32",
            vendor=_GOOGLE_VENDOR,
            vendor_flavors=("chrome",),
            screen_resolutions=((1280, 853), (1368, 912), (1920, 1280)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=10,
            touch_support=TOUCH_EVENTS,
            hardware_concurrency_options=(4, 8),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            weight=0.5,
        )
    )

    # ------------------------------------------------------------------ Linux
    profiles.append(
        DeviceProfile(
            name="linux-desktop-chrome",
            ua_device="Linux PC",
            ua_os="Linux",
            ua_browser="Chrome",
            platform="Linux x86_64",
            vendor=_GOOGLE_VENDOR,
            vendor_flavors=("chrome",),
            screen_resolutions=((1920, 1080), (2560, 1440), (1680, 1050)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(4, 8, 12, 16),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20030107",
            weight=1.0,
        )
    )
    profiles.append(
        DeviceProfile(
            name="linux-desktop-firefox",
            ua_device="Linux PC",
            ua_os="Linux",
            ua_browser="Firefox",
            platform="Linux x86_64",
            vendor=_EMPTY_VENDOR,
            vendor_flavors=(),
            screen_resolutions=((1920, 1080), (2560, 1440)),
            color_depth=24,
            color_gamut="srgb",
            max_touch_points=0,
            touch_support=TOUCH_NONE,
            hardware_concurrency_options=(4, 8, 16),
            device_memory_options=(8.0,),
            plugins=CHROMIUM_PDF_PLUGINS,
            product_sub="20100101",
            weight=0.5,
        )
    )

    # ------------------------------------------------------------------ Android
    profiles.append(
        _android_phone(
            "pixel-7",
            "Pixel 7",
            "Chrome Mobile",
            ((412, 915),),
            cores=(8,),
            memory=(8.0,),
            weight=2.0,
        )
    )
    profiles.append(
        _android_phone(
            "samsung-s906n",
            "SM-S906N",
            "Samsung Internet",
            ((360, 780),),
            cores=(8,),
            memory=(8.0,),
            weight=2.0,
        )
    )
    profiles.append(
        _android_phone(
            "samsung-a515f",
            "SM-A515F",
            "Chrome Mobile",
            ((412, 892),),
            cores=(8,),
            memory=(4.0,),
            weight=2.0,
        )
    )
    profiles.append(
        _android_phone(
            "samsung-a127f",
            "SM-A127F",
            "Chrome Mobile",
            ((412, 915),),
            cores=(8,),
            memory=(4.0,),
            weight=1.0,
        )
    )
    profiles.append(
        _android_phone(
            "redmi-9c",
            "M2006C3MG",
            "MiuiBrowser",
            ((360, 800),),
            cores=(8,),
            memory=(2.0,),
            weight=1.0,
            platform="Linux armv7l",
        )
    )
    profiles.append(
        _android_phone(
            "redmi-note-9",
            "M2004J19C",
            "Chrome Mobile",
            ((393, 851),),
            cores=(8,),
            memory=(4.0,),
            weight=1.0,
        )
    )
    profiles.append(
        _android_phone(
            "infinix-x652b",
            "Infinix X652B",
            "Chrome Mobile",
            ((393, 851),),
            cores=(8,),
            memory=(4.0,),
            weight=0.5,
        )
    )
    profiles.append(
        _android_phone(
            "galaxy-tab-s7",
            "SM-T875",
            "Samsung Internet",
            ((753, 1205), (800, 1280)),
            cores=(8,),
            memory=(4.0, 8.0),
            weight=0.5,
        )
    )
    return tuple(profiles)


class DeviceCatalog:
    """Queryable collection of real device profiles."""

    def __init__(self, profiles: Optional[Iterable[DeviceProfile]] = None):
        self._profiles: Tuple[DeviceProfile, ...] = (
            tuple(profiles) if profiles is not None else build_default_catalog()
        )
        if not self._profiles:
            raise ValueError("device catalogue cannot be empty")
        self._by_name: Dict[str, DeviceProfile] = {p.name: p for p in self._profiles}
        if len(self._by_name) != len(self._profiles):
            raise ValueError("device profile names must be unique")

    def __iter__(self):
        return iter(self._profiles)

    def get(self, name: str) -> DeviceProfile:
        """Return the profile called *name*.

        Raises
        ------
        KeyError
            If no profile with that name exists.
        """

        return self._by_name[name]

    def by_device(self, ua_device: str) -> Tuple[DeviceProfile, ...]:
        """Return every profile whose UA device family equals *ua_device*."""

        return tuple(p for p in self._profiles if p.ua_device == ua_device)

    def sample(self, rng: np.random.Generator) -> DeviceProfile:
        """Sample a profile proportionally to its market-share weight."""

        weights = np.array([p.weight for p in self._profiles], dtype=float)
        weights /= weights.sum()
        index = int(rng.choice(len(self._profiles), p=weights))
        return self._profiles[index]

    def sample_fingerprint(
        self,
        rng: np.random.Generator,
        *,
        timezone: str = "America/Los_Angeles",
    ):
        """Sample a profile and build one of its consistent fingerprints."""

        profile = self.sample(rng)
        resolution = profile.screen_resolutions[int(rng.integers(len(profile.screen_resolutions)))]
        cores = profile.hardware_concurrency_options[
            int(rng.integers(len(profile.hardware_concurrency_options)))
        ]
        memory = profile.device_memory_options[
            int(rng.integers(len(profile.device_memory_options)))
        ]
        languages = profile.languages_options[int(rng.integers(len(profile.languages_options)))]
        return profile, profile.fingerprint(
            screen_resolution=resolution,
            hardware_concurrency=cores,
            device_memory=memory,
            timezone=timezone,
            languages=languages,
        )
