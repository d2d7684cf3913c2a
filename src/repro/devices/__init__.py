"""Catalogue of real hardware/software configurations."""

from repro.devices.catalog import DeviceCatalog, build_default_catalog
from repro.devices.profiles import (
    CHROMIUM_PDF_PLUGINS,
    DeviceProfile,
    TOUCH_EVENTS,
    TOUCH_NONE,
)
from repro.devices.screens import (
    ANDROID_PHONE_RESOLUTIONS,
    ANDROID_TABLET_RESOLUTIONS,
    DESKTOP_RESOLUTIONS,
    IPAD_RESOLUTIONS,
    IPHONE_RESOLUTIONS,
    MAC_RESOLUTIONS,
    is_real_iphone_resolution,
    is_real_resolution_for_device,
)

__all__ = [
    "ANDROID_PHONE_RESOLUTIONS",
    "ANDROID_TABLET_RESOLUTIONS",
    "CHROMIUM_PDF_PLUGINS",
    "DESKTOP_RESOLUTIONS",
    "DeviceCatalog",
    "DeviceProfile",
    "IPAD_RESOLUTIONS",
    "IPHONE_RESOLUTIONS",
    "MAC_RESOLUTIONS",
    "TOUCH_EVENTS",
    "TOUCH_NONE",
    "build_default_catalog",
    "is_real_iphone_resolution",
    "is_real_resolution_for_device",
]
