"""Browser fingerprint attribute registry.

The paper instruments its honey site with FingerprintJS and HTTP headers,
collecting roughly 30 attributes per request (Section 4.4).  This module
defines the canonical attribute names used throughout the library, the type
of value each attribute carries, and whether the attribute is *immutable*
for a given physical device (the property exploited by the temporal
inconsistency analysis in Section 7.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


class Attribute(str, enum.Enum):
    """Canonical fingerprint attribute names.

    The member value is the snake_case key used when a fingerprint is
    serialised to a dictionary.  Members are grouped to mirror the sources
    the paper reads them from (User-Agent, FingerprintJS APIs, HTTP/IP).
    """

    # -- User-Agent derived -------------------------------------------------
    USER_AGENT = "user_agent"
    UA_DEVICE = "ua_device"
    UA_OS = "ua_os"
    UA_BROWSER = "ua_browser"

    # -- navigator object ---------------------------------------------------
    PLATFORM = "platform"
    VENDOR = "vendor"
    VENDOR_FLAVORS = "vendor_flavors"
    PLUGINS = "plugins"
    HARDWARE_CONCURRENCY = "hardware_concurrency"
    DEVICE_MEMORY = "device_memory"
    LANGUAGES = "languages"
    WEBDRIVER = "webdriver"
    PRODUCT_SUB = "product_sub"
    MAX_TOUCH_POINTS = "max_touch_points"

    # -- screen -------------------------------------------------------------
    SCREEN_RESOLUTION = "screen_resolution"
    SCREEN_FRAME = "screen_frame"
    COLOR_DEPTH = "color_depth"
    COLOR_GAMUT = "color_gamut"
    TOUCH_SUPPORT = "touch_support"
    HDR = "hdr"
    CONTRAST = "contrast"
    FORCED_COLORS = "forced_colors"
    REDUCED_MOTION = "reduced_motion"
    INVERTED_COLORS = "inverted_colors"
    MONOCHROME = "monochrome"

    # -- rendering / misc FingerprintJS attributes ---------------------------
    CANVAS = "canvas"
    AUDIO = "audio"
    FONTS = "fonts"
    FONT_PREFERENCES = "font_preferences"
    TIMEZONE = "timezone"
    TIMEZONE_OFFSET = "timezone_offset"
    SESSION_STORAGE = "session_storage"
    LOCAL_STORAGE = "local_storage"
    INDEXED_DB = "indexed_db"
    OPEN_DATABASE = "open_database"
    COOKIES_ENABLED = "cookies_enabled"
    PDF_VIEWER_ENABLED = "pdf_viewer_enabled"
    MONOSPACE_WIDTH = "monospace_width"

    # -- network / transport --------------------------------------------------
    IP_ADDRESS = "ip_address"
    IP_COUNTRY = "ip_country"
    IP_REGION = "ip_region"
    ASN = "asn"
    ACCEPT_LANGUAGE = "accept_language"


class ValueKind(enum.Enum):
    """Kind of value an attribute carries."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    STRING_LIST = "string_list"
    RESOLUTION = "resolution"


@dataclass(frozen=True)
class AttributeSpec:
    """Metadata describing one fingerprint attribute.

    Attributes
    ----------
    attribute:
        The canonical :class:`Attribute` member.
    kind:
        The :class:`ValueKind` of the values carried by the attribute.
    immutable:
        ``True`` when the value cannot change for a given physical device
        without deliberate tampering (e.g. ``platform``, CPU core count).
        Immutable attributes are the ones the temporal inconsistency
        detector tracks per cookie.
    source:
        Short description of the browser API or channel the attribute is
        read from, mirroring Table 5 of the paper.
    """

    attribute: Attribute
    kind: ValueKind
    immutable: bool
    source: str


_SPECS: Tuple[AttributeSpec, ...] = (
    AttributeSpec(Attribute.USER_AGENT, ValueKind.STRING, False, "navigator.userAgent"),
    AttributeSpec(Attribute.UA_DEVICE, ValueKind.STRING, True, "parsed from User-Agent"),
    AttributeSpec(Attribute.UA_OS, ValueKind.STRING, True, "parsed from User-Agent"),
    AttributeSpec(Attribute.UA_BROWSER, ValueKind.STRING, False, "parsed from User-Agent"),
    AttributeSpec(Attribute.PLATFORM, ValueKind.STRING, True, "navigator.platform"),
    AttributeSpec(Attribute.VENDOR, ValueKind.STRING, True, "navigator.vendor"),
    AttributeSpec(Attribute.VENDOR_FLAVORS, ValueKind.STRING_LIST, False, "vendor-specific window properties"),
    AttributeSpec(Attribute.PLUGINS, ValueKind.STRING_LIST, False, "navigator.plugins"),
    AttributeSpec(Attribute.HARDWARE_CONCURRENCY, ValueKind.INTEGER, True, "navigator.hardwareConcurrency"),
    AttributeSpec(Attribute.DEVICE_MEMORY, ValueKind.FLOAT, True, "navigator.deviceMemory"),
    AttributeSpec(Attribute.LANGUAGES, ValueKind.STRING_LIST, False, "navigator.languages"),
    AttributeSpec(Attribute.WEBDRIVER, ValueKind.BOOLEAN, False, "navigator.webdriver"),
    AttributeSpec(Attribute.PRODUCT_SUB, ValueKind.STRING, True, "navigator.productSub"),
    AttributeSpec(Attribute.MAX_TOUCH_POINTS, ValueKind.INTEGER, True, "navigator.maxTouchPoints"),
    AttributeSpec(Attribute.SCREEN_RESOLUTION, ValueKind.RESOLUTION, True, "window.screen"),
    AttributeSpec(Attribute.SCREEN_FRAME, ValueKind.INTEGER, False, "screen frame (available vs full screen)"),
    AttributeSpec(Attribute.COLOR_DEPTH, ValueKind.INTEGER, True, "window.screen.colorDepth"),
    AttributeSpec(Attribute.COLOR_GAMUT, ValueKind.STRING, True, "CSS media query color-gamut"),
    AttributeSpec(Attribute.TOUCH_SUPPORT, ValueKind.STRING, True, "ontouchstart / TouchEvent"),
    AttributeSpec(Attribute.HDR, ValueKind.BOOLEAN, True, "CSS media query dynamic-range"),
    AttributeSpec(Attribute.CONTRAST, ValueKind.INTEGER, False, "CSS media query prefers-contrast"),
    AttributeSpec(Attribute.FORCED_COLORS, ValueKind.BOOLEAN, False, "CSS media query forced-colors"),
    AttributeSpec(Attribute.REDUCED_MOTION, ValueKind.BOOLEAN, False, "CSS media query prefers-reduced-motion"),
    AttributeSpec(Attribute.INVERTED_COLORS, ValueKind.BOOLEAN, False, "CSS media query inverted-colors"),
    AttributeSpec(Attribute.MONOCHROME, ValueKind.INTEGER, True, "CSS media query monochrome"),
    AttributeSpec(Attribute.CANVAS, ValueKind.STRING, False, "HTMLCanvasElement.getContext"),
    AttributeSpec(Attribute.AUDIO, ValueKind.FLOAT, False, "OfflineAudioContext"),
    AttributeSpec(Attribute.FONTS, ValueKind.STRING_LIST, False, "font enumeration via measurement"),
    AttributeSpec(Attribute.FONT_PREFERENCES, ValueKind.STRING, False, "default font metrics"),
    AttributeSpec(Attribute.TIMEZONE, ValueKind.STRING, False, "Intl.DateTimeFormat / getTimezoneOffset"),
    AttributeSpec(Attribute.TIMEZONE_OFFSET, ValueKind.INTEGER, False, "Date.prototype.getTimezoneOffset"),
    AttributeSpec(Attribute.SESSION_STORAGE, ValueKind.BOOLEAN, False, "window.sessionStorage"),
    AttributeSpec(Attribute.LOCAL_STORAGE, ValueKind.BOOLEAN, False, "window.localStorage"),
    AttributeSpec(Attribute.INDEXED_DB, ValueKind.BOOLEAN, False, "window.indexedDB"),
    AttributeSpec(Attribute.OPEN_DATABASE, ValueKind.BOOLEAN, False, "window.openDatabase"),
    AttributeSpec(Attribute.COOKIES_ENABLED, ValueKind.BOOLEAN, False, "navigator.cookieEnabled"),
    AttributeSpec(Attribute.PDF_VIEWER_ENABLED, ValueKind.BOOLEAN, False, "navigator.pdfViewerEnabled"),
    AttributeSpec(Attribute.MONOSPACE_WIDTH, ValueKind.FLOAT, False, "measured monospace glyph width"),
    AttributeSpec(Attribute.IP_ADDRESS, ValueKind.STRING, False, "connection source address"),
    AttributeSpec(Attribute.IP_COUNTRY, ValueKind.STRING, False, "GeoLite2 lookup of source address"),
    AttributeSpec(Attribute.IP_REGION, ValueKind.STRING, False, "GeoLite2 lookup of source address"),
    AttributeSpec(Attribute.ASN, ValueKind.INTEGER, False, "GeoLite2 ASN lookup of source address"),
    AttributeSpec(Attribute.ACCEPT_LANGUAGE, ValueKind.STRING, False, "Accept-Language header"),
)

ATTRIBUTE_SPECS: Dict[Attribute, AttributeSpec] = {spec.attribute: spec for spec in _SPECS}

#: Attributes whose value cannot change for one physical device.  These are
#: the attributes the temporal inconsistency detector monitors per cookie.
IMMUTABLE_ATTRIBUTES: Tuple[Attribute, ...] = tuple(
    spec.attribute for spec in _SPECS if spec.immutable
)


def coerce_value(attribute: Attribute, value: Any) -> Any:
    """Coerce *value* to the canonical Python type for *attribute*.

    The honey-site collector receives attribute values as strings or JSON
    scalars; this normalises them so that downstream grouping (the spatial
    miner buckets on exact values) is stable.

    Raises
    ------
    ValueError
        If the value cannot be represented in the attribute's kind.
    """

    if value is None:
        return None
    kind = ATTRIBUTE_SPECS[attribute].kind
    if kind is ValueKind.STRING:
        return str(value)
    if kind is ValueKind.INTEGER:
        return int(value)
    if kind is ValueKind.FLOAT:
        return float(value)
    if kind is ValueKind.BOOLEAN:
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no", ""):
                return False
            raise ValueError(f"cannot interpret {value!r} as a boolean for {attribute}")
        return bool(value)
    if kind is ValueKind.STRING_LIST:
        if isinstance(value, str):
            return tuple(part for part in (p.strip() for p in value.split(",")) if part)
        return tuple(str(item) for item in value)
    if kind is ValueKind.RESOLUTION:
        return parse_resolution(value)
    raise ValueError(f"unsupported value kind {kind}")  # pragma: no cover - defensive


def parse_resolution(value: Any) -> Tuple[int, int]:
    """Parse a screen resolution into a ``(width, height)`` tuple.

    Accepts ``(w, h)`` sequences or strings such as ``"390x844"``.
    """

    if isinstance(value, (tuple, list)) and len(value) == 2:
        return int(value[0]), int(value[1])
    if isinstance(value, str):
        for separator in ("x", "X", "×"):
            if separator in value:
                width_text, height_text = value.split(separator, 1)
                return int(width_text.strip()), int(height_text.strip())
    raise ValueError(f"cannot parse screen resolution from {value!r}")


def format_resolution(resolution: Optional[Tuple[int, int]]) -> Optional[str]:
    """Format a ``(width, height)`` tuple as the conventional ``WxH`` string."""

    if resolution is None:
        return None
    return f"{resolution[0]}x{resolution[1]}"
