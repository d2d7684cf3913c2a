"""Real-world screen geometry knowledge.

Section 6.1 of the paper keys on the fact that iPhones ship with a fixed,
small set of screen resolutions (12 at the time of the study, citing the
iOS Ref catalogue) and that 9 of the top-10 "iPhone" resolutions observed
from evasive bots do not exist in the real world.  This module records the
real resolution sets per device family and exposes validity checks used by
both the device knowledge base and the Figure 7 analysis.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

Resolution = Tuple[int, int]

#: Logical (CSS-pixel) portrait resolutions of real iPhones — the "fixed set
#: of 12 resolutions" referenced in Section 6.1.
IPHONE_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (320, 480),   # iPhone 4 family
        (320, 568),   # iPhone 5 / SE (1st gen)
        (375, 667),   # iPhone 6/7/8 / SE (2nd, 3rd gen)
        (375, 812),   # iPhone X / XS / 11 Pro / 13 mini
        (360, 780),   # iPhone 12 mini
        (390, 844),   # iPhone 12 / 13 / 14
        (393, 852),   # iPhone 14 Pro / 15
        (414, 736),   # iPhone 6/7/8 Plus
        (414, 896),   # iPhone XR / XS Max / 11
        (428, 926),   # iPhone 12/13 Pro Max / 14 Plus
        (430, 932),   # iPhone 14 Pro Max / 15 Plus
        (402, 874),   # iPhone 16 Pro class
    }
)

#: Logical portrait resolutions of real iPads.
IPAD_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (768, 1024),
        (744, 1133),
        (810, 1080),
        (820, 1180),
        (834, 1112),
        (834, 1194),
        (954, 1373),  # iPad Pro 11" (M4)
        (1024, 1366),
    }
)

#: Common Mac display logical resolutions (scaled retina "looks-like" sizes
#: plus common external monitors).
MAC_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (1280, 800),
        (1440, 900),
        (1512, 982),
        (1536, 960),
        (1680, 1050),
        (1728, 1117),
        (1792, 1120),
        (1920, 1080),
        (1920, 1200),
        (2560, 1440),
        (2560, 1600),
        (3008, 1692),
        (3440, 1440),
        (3840, 2160),
    }
)

#: Common Windows / Linux desktop and laptop resolutions (including the 3:2
#: Surface line).
DESKTOP_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (1280, 720),
        (1280, 800),
        (1280, 853),
        (1280, 1024),
        (1368, 912),
        (1920, 1280),
        (1366, 768),
        (1440, 900),
        (1536, 864),
        (1600, 900),
        (1680, 1050),
        (1920, 1080),
        (1920, 1200),
        (2560, 1080),
        (2560, 1440),
        (3440, 1440),
        (3840, 2160),
    }
)

#: Common Android phone logical resolutions (portrait).
ANDROID_PHONE_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (320, 640),
        (320, 693),
        (360, 640),
        (360, 740),
        (360, 760),
        (360, 780),
        (360, 800),
        (384, 832),
        (393, 786),
        (393, 851),
        (411, 731),
        (411, 823),
        (412, 883),
        (412, 892),
        (412, 915),
        (414, 896),
        (480, 854),
    }
)

#: Common Android tablet logical resolutions (portrait).
ANDROID_TABLET_RESOLUTIONS: FrozenSet[Resolution] = frozenset(
    {
        (600, 960),
        (602, 962),
        (712, 1138),
        (753, 1205),
        (768, 1024),
        (800, 1280),
        (962, 601),
        (1280, 800),
    }
)


def _normalise(resolution: Resolution) -> Resolution:
    """Return the portrait orientation of *resolution* (shorter side first)."""

    width, height = resolution
    return (width, height) if width <= height else (height, width)


def is_real_iphone_resolution(resolution: Resolution) -> bool:
    """``True`` when *resolution* (either orientation) exists on a real iPhone."""

    return _normalise(resolution) in IPHONE_RESOLUTIONS


def is_real_resolution_for_device(ua_device: str, resolution: Resolution) -> Optional[bool]:
    """Whether *resolution* is plausible for the device family *ua_device*.

    Returns ``None`` when the library has no authoritative resolution list
    for the device family (Android models are too numerous to enumerate, so
    only a plausibility band is applied there); the spatial miner treats
    ``None`` as "unknown — do not flag".
    """

    normalised = _normalise(resolution)
    if ua_device == "iPhone":
        return normalised in IPHONE_RESOLUTIONS
    if ua_device == "iPad":
        return normalised in IPAD_RESOLUTIONS
    if ua_device == "Mac":
        return resolution in MAC_RESOLUTIONS or normalised in MAC_RESOLUTIONS
    if ua_device in ("Windows PC", "Linux PC", "Chromebook"):
        return resolution in DESKTOP_RESOLUTIONS or normalised in DESKTOP_RESOLUTIONS
    width, height = normalised
    if width <= 0 or height <= 0:
        return False
    # Android phones/tablets: accept anything inside a generous plausibility
    # band (portrait logical widths up to ~1000 CSS px exist on tablets);
    # reject desktop-like geometries reported by "phones".
    if width < 300 or width > 1000:
        return False
    return None
