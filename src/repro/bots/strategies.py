"""Fingerprint-alteration strategies used by evasive bots.

Section 6 of the paper establishes that evasive bots do not operate real
consumer devices; they run automation stacks (typically headless Chromium
on cloud servers) and *alter* fingerprint attributes to mimic real users.
Each ``*_changes`` function below returns the attribute changes of one
family of alteration observed in the measurement (the traffic generator
applies them to a session's values; the object-at-a-time ``apply_*``
forms are in ``tests/reference/generation.py``):

* spoofing a popular device's User-Agent (Figures 6, 7),
* injecting PDF plugins or claiming touch support to hit BotD's blind
  spots (Figure 4, Section 5.3.3),
* reporting a low ``hardwareConcurrency`` to hit DataDome's blind spot
  (Figure 5),
* spoofing geolocation to fulfil "traffic from region X" promises
  (Figure 8), and
* rotating attributes across requests to fake a large device pool
  (Figures 9, 10).

Strategies deliberately do **not** repair the attributes correlated with
the ones they alter — that is precisely the behaviour FP-Inconsistent
exploits.  The ``consistency`` knob controls how often a bot happens to
pick a value that is actually consistent.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.devices.profiles import CHROMIUM_PDF_PLUGINS, TOUCH_EVENTS, TOUCH_NONE
from repro.devices.screens import IPHONE_RESOLUTIONS
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.useragent import build_user_agent

#: Platform strings rotated by bots (Figure 10 shows all of these reported
#: for a single cookie).
ROTATED_PLATFORMS: Tuple[str, ...] = (
    "Win32",
    "MacIntel",
    "iPhone",
    "Linux armv7l",
    "Linux armv8l",
    "Linux armv5tejl",
    "iPad",
    "Linux x86_64",
    "Linux aarch64",
    "Linux i686",
)

#: Device families bots like to impersonate, weighted toward the ones with
#: the highest evasion probability in Figure 6.
SPOOF_TARGET_WEIGHTS: Dict[str, float] = {
    "iPhone": 0.45,
    "iPad": 0.15,
    "Mac": 0.25,
    "Android": 0.15,
}

_ANDROID_MODELS: Tuple[str, ...] = (
    "SM-S906N",
    "SM-A515F",
    "SM-A127F",
    "M2006C3MG",
    "M2004J19C",
    "Pixel 7",
    "Pixel 2",
    "Infinix X652B",
    "XiaoMi Redmi Go",
    "SM-T387W",
)

_REAL_IPHONE_RESOLUTIONS: Tuple[Tuple[int, int], ...] = tuple(sorted(IPHONE_RESOLUTIONS))


def _pick(rng: np.random.Generator, pool: Tuple) -> object:
    """Draw one element of *pool*, consuming the stream exactly like
    ``rng.choice(pool)``.

    ``Generator.choice`` without probabilities draws a single bounded
    integer from the bit stream, then pays array-conversion and shape
    bookkeeping on every call; indexing the tuple with ``rng.integers``
    consumes the same stream and returns the same element at a fraction of
    the cost (``tests/test_vectorized.py`` pins the equivalence).
    """

    return pool[int(rng.integers(0, len(pool)))]


def _pick_weighted(rng: np.random.Generator, names, probabilities: np.ndarray) -> object:
    """Draw one of *names* under *probabilities*, stream-identical to
    ``rng.choice(len(names), p=probabilities)``.

    Replicates the Generator's own algorithm — normalised cumulative
    probabilities, one uniform draw, right-sided ``searchsorted`` — without
    re-validating and re-accumulating the probability vector per call.
    """

    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return names[int(cdf.searchsorted(rng.random(), side="right"))]


def _base_bot_template() -> Dict[Attribute, object]:
    """The canonical (coerced) attribute values of an unmodified worker."""

    return dict(
        Fingerprint(
            {
                Attribute.USER_AGENT: build_user_agent("Linux PC", "Linux", "Chrome"),
                Attribute.UA_DEVICE: "Linux PC",
                Attribute.UA_OS: "Linux",
                Attribute.UA_BROWSER: "Chrome",
                Attribute.PLATFORM: "Linux x86_64",
                Attribute.VENDOR: "Google Inc.",
                Attribute.VENDOR_FLAVORS: (),
                Attribute.PLUGINS: (),
                Attribute.HARDWARE_CONCURRENCY: 8,
                Attribute.DEVICE_MEMORY: 4.0,
                Attribute.LANGUAGES: ("en-US", "en"),
                Attribute.WEBDRIVER: False,
                Attribute.PRODUCT_SUB: "20030107",
                Attribute.MAX_TOUCH_POINTS: 0,
                Attribute.SCREEN_RESOLUTION: (1920, 1080),
                Attribute.SCREEN_FRAME: 0,
                Attribute.COLOR_DEPTH: 24,
                Attribute.COLOR_GAMUT: "srgb",
                Attribute.TOUCH_SUPPORT: TOUCH_NONE,
                Attribute.HDR: False,
                Attribute.CONTRAST: 0,
                Attribute.FORCED_COLORS: False,
                Attribute.REDUCED_MOTION: False,
                Attribute.TIMEZONE: "America/Los_Angeles",
                Attribute.COOKIES_ENABLED: True,
                Attribute.PDF_VIEWER_ENABLED: False,
                Attribute.MONOSPACE_WIDTH: 132.5,
            }
        )._values
    )


#: Coerced once at import; :func:`base_bot_values` copies it per session
#: instead of re-coercing all 27 attributes (which dominated generation
#: profiles).  Key order matters: serialized fingerprints preserve it.
_BASE_BOT_VALUES: Dict[Attribute, object] = _base_bot_template()


def base_bot_values(
    rng: np.random.Generator, *, timezone: str = "America/Los_Angeles"
) -> Dict[Attribute, object]:
    """Canonical attribute dict of an unmodified bot worker.

    The template models headless Chromium running on a Linux cloud server
    with the automation tell (`navigator.webdriver`) already patched out —
    the starting point every commercial "undetectable traffic" stack uses.
    Consumes the stream exactly like the historical template construction
    (one core-count draw, one memory draw, in that order).
    """

    cores = int(_pick(rng, (8, 12, 16)))
    memory = float(_pick(rng, (4.0, 8.0)))
    values = dict(_BASE_BOT_VALUES)
    values[Attribute.HARDWARE_CONCURRENCY] = cores
    values[Attribute.DEVICE_MEMORY] = memory
    values[Attribute.TIMEZONE] = str(timezone)
    return values


def low_concurrency_changes(rng: np.random.Generator) -> Dict[str, object]:
    """Report a consumer-grade CPU core count (DataDome blind spot, Figure 5)."""

    return {"hardware_concurrency": int(_pick(rng, (2, 4, 6)))}


def server_concurrency_changes(rng: np.random.Generator) -> Dict[str, object]:
    """Report the worker's true server-grade CPU core count."""

    return {"hardware_concurrency": int(_pick(rng, (8, 12, 16, 24, 32)))}


def plugin_injection_changes(rng: np.random.Generator) -> Dict[str, object]:
    """Expose one or more PDF plugins (BotD blind spot, Figure 4)."""

    count = int(rng.integers(1, len(CHROMIUM_PDF_PLUGINS) + 1))
    order = rng.permutation(len(CHROMIUM_PDF_PLUGINS))[:count]
    plugins = tuple(CHROMIUM_PDF_PLUGINS[int(index)] for index in sorted(order))
    if "Chrome PDF Viewer" not in plugins:
        plugins = ("Chrome PDF Viewer",) + plugins
    return {"plugins": plugins, "pdf_viewer_enabled": True}


def touch_spoof_changes(
    rng: np.random.Generator, *, consistency: float = 0.2
) -> Dict[str, object]:
    """Claim touch-event support (BotD blind spot, Section 5.3.3).

    With probability ``consistency`` the bot also reports a plausible
    ``maxTouchPoints`` of 5; otherwise it leaves the value at whatever the
    automation stack exposes (0, or an implausible figure), producing the
    (device, Max Touch Points) inconsistencies of Table 6.
    """

    changes: Dict[str, object] = {"touch_support": TOUCH_EVENTS}
    if rng.random() < consistency:
        changes["max_touch_points"] = 5
    else:
        changes["max_touch_points"] = int(_pick(rng, (0, 1, 2, 3, 9, 10)))
    return changes


_SPOOF_TARGET_NAMES: Tuple[str, ...] = tuple(SPOOF_TARGET_WEIGHTS)
_SPOOF_TARGET_PROBABILITIES: np.ndarray = np.array(
    [SPOOF_TARGET_WEIGHTS[name] for name in _SPOOF_TARGET_NAMES], dtype=float
)
_SPOOF_TARGET_PROBABILITIES /= _SPOOF_TARGET_PROBABILITIES.sum()


def choose_spoof_target(rng: np.random.Generator, weights: Optional[Dict[str, float]] = None) -> str:
    """Pick a device family to impersonate (Figure 6 distribution)."""

    if weights is None:
        return str(_pick_weighted(rng, _SPOOF_TARGET_NAMES, _SPOOF_TARGET_PROBABILITIES))
    names = list(weights)
    probabilities = np.array([weights[name] for name in names], dtype=float)
    probabilities /= probabilities.sum()
    return str(_pick_weighted(rng, names, probabilities))


def device_spoof_changes(
    rng: np.random.Generator,
    *,
    target: Optional[str] = None,
    consistency: float = 0.15,
) -> Dict[str, object]:
    """Impersonate a popular consumer device through the User-Agent (Section 6.1).

    Only the User-Agent-derived attributes are rewritten reliably.  Every
    correlated attribute (platform, vendor, screen resolution, touch
    points) is fixed up only with probability ``consistency`` each,
    reproducing the partially altered fingerprints of Section 6.1.
    """

    target = target or choose_spoof_target(rng)
    changes: Dict[str, object] = {}

    if target == "iPhone":
        changes.update(
            user_agent=build_user_agent("iPhone", "iOS", "Mobile Safari"),
            ua_device="iPhone",
            ua_os="iOS",
            ua_browser="Mobile Safari",
        )
        _maybe(changes, rng, consistency, "platform", "iPhone")
        _maybe(changes, rng, consistency, "vendor", "Apple Computer, Inc.")
        _maybe(changes, rng, consistency, "max_touch_points", 5)
        if rng.random() < consistency:
            changes["screen_resolution"] = _REAL_IPHONE_RESOLUTIONS[
                int(rng.integers(len(_REAL_IPHONE_RESOLUTIONS)))
            ]
        else:
            changes["screen_resolution"] = random_resolution(rng)
    elif target == "iPad":
        changes.update(
            user_agent=build_user_agent("iPad", "iOS", "Mobile Safari"),
            ua_device="iPad",
            ua_os="iOS",
            ua_browser="Mobile Safari",
        )
        _maybe(changes, rng, consistency, "platform", "iPad")
        _maybe(changes, rng, consistency, "vendor", "Apple Computer, Inc.")
        _maybe(changes, rng, consistency, "max_touch_points", 5)
        if rng.random() >= consistency:
            changes["screen_resolution"] = random_resolution(rng)
        else:
            changes["screen_resolution"] = (810, 1080)
    elif target == "Mac":
        changes.update(
            user_agent=build_user_agent("Mac", "Mac OS X", "Safari"),
            ua_device="Mac",
            ua_os="Mac OS X",
            ua_browser="Safari",
        )
        _maybe(changes, rng, consistency, "platform", "MacIntel")
        _maybe(changes, rng, consistency, "vendor", "Apple Computer, Inc.")
    else:  # Android model
        model = _ANDROID_MODELS[int(rng.integers(len(_ANDROID_MODELS)))]
        changes.update(
            user_agent=build_user_agent(model, "Android", "Chrome Mobile", model=model),
            ua_device=model,
            ua_os="Android",
            ua_browser="Chrome Mobile",
        )
        _maybe(changes, rng, consistency, "platform", "Linux armv8l")
        _maybe(changes, rng, consistency, "max_touch_points", 5)
        if rng.random() >= consistency:
            changes["screen_resolution"] = random_resolution(rng)

    return changes


def _maybe(changes: Dict[str, object], rng: np.random.Generator, probability: float, key: str, value) -> None:
    if rng.random() < probability:
        changes[key] = value


#: Pool of screen resolutions shipped with commodity spoofing stacks.  Most
#: of these geometries exist on no real device; the pool includes the exact
#: resolutions called out in Figure 7 of the paper (873x393, 847x476, ...).
FAKE_RESOLUTION_POOL: Tuple[Tuple[int, int], ...] = (
    (873, 393), (640, 360), (4096, 1440), (3840, 1080), (2778, 1284),
    (1900, 1080), (693, 320), (780, 360), (847, 476), (568, 320),
    (1920, 1080), (1366, 768), (800, 360), (900, 1600), (656, 1364),
    (1280, 720), (1024, 600), (960, 540), (854, 480), (750, 1334),
    (720, 1280), (1080, 1920), (540, 960), (480, 800), (600, 1024),
    (820, 360), (915, 412), (892, 412), (851, 393), (740, 360),
    (736, 414), (667, 375), (812, 375), (844, 390), (926, 428),
    (1112, 834), (1194, 834), (1366, 1024), (962, 601), (1138, 712),
    (877, 395), (869, 391), (823, 411), (731, 411), (640, 384),
    (592, 360), (570, 320), (533, 320), (511, 320), (488, 320),
    (1600, 757), (1680, 1050), (1440, 803), (1536, 824), (1280, 1024),
    (2560, 1440), (2048, 1152), (1920, 975), (1856, 1392), (1792, 1344),
    (360, 640), (360, 720), (360, 760), (375, 667), (375, 812),
    (390, 844), (393, 852), (412, 915), (414, 896), (428, 926),
    (820, 1180), (768, 1024), (810, 1080), (834, 1194), (1024, 1366),
    (500, 888), (520, 924), (555, 986), (585, 1040), (610, 1084),
    (630, 1120), (645, 1146), (660, 1172), (675, 1200), (690, 1226),
)


def random_resolution(rng: np.random.Generator) -> Tuple[int, int]:
    """A screen resolution drawn from the spoofing-stack pool.

    The pool is finite (as observed in the paper: 83 distinct resolutions
    across all "iPhone" requests) and dominated by geometries that no
    shipping device uses, which is how the non-existent iPhone resolutions
    of Figure 7 arise.
    """

    return FAKE_RESOLUTION_POOL[int(rng.integers(len(FAKE_RESOLUTION_POOL)))]


def consistent_device_spoof_changes(
    rng: np.random.Generator, *, has_touch: bool
) -> Dict[str, object]:
    """Impersonate a device *consistently* (a well-configured spoofing profile).

    Some bot stacks ship curated emulation profiles whose correlated
    attributes all agree; these spoofs introduce no spatial inconsistency.
    The target family is chosen so the attributes that drive detector
    calibration (plugins, touch support, hardware concurrency) stay
    untouched: a fingerprint that claims touch support (*has_touch*)
    becomes a phone, one that exposes plugins (or neither) a desktop.
    """

    if has_touch:
        if rng.random() < 0.7:
            changes = dict(
                user_agent=build_user_agent("iPhone", "iOS", "Mobile Safari"),
                ua_device="iPhone",
                ua_os="iOS",
                ua_browser="Mobile Safari",
                platform="iPhone",
                vendor="Apple Computer, Inc.",
                vendor_flavors=("safari",),
                max_touch_points=5,
                screen_resolution=_REAL_IPHONE_RESOLUTIONS[
                    int(rng.integers(len(_REAL_IPHONE_RESOLUTIONS)))
                ],
                color_depth=32,
                color_gamut="p3",
            )
        else:
            model = "SM-S906N"
            changes = dict(
                user_agent=build_user_agent(model, "Android", "Chrome Mobile", model=model),
                ua_device=model,
                ua_os="Android",
                ua_browser="Chrome Mobile",
                platform="Linux armv8l",
                vendor="Google Inc.",
                vendor_flavors=("chrome",),
                max_touch_points=5,
                screen_resolution=(360, 780),
                color_depth=24,
                color_gamut="srgb",
            )
    else:
        if rng.random() < 0.5:
            changes = dict(
                user_agent=build_user_agent("Mac", "Mac OS X", "Safari"),
                ua_device="Mac",
                ua_os="Mac OS X",
                ua_browser="Safari",
                platform="MacIntel",
                vendor="Apple Computer, Inc.",
                vendor_flavors=("safari",),
                max_touch_points=0,
                screen_resolution=(1512, 982),
                color_depth=30,
                color_gamut="p3",
            )
        else:
            changes = dict(
                user_agent=build_user_agent("Windows PC", "Windows", "Chrome"),
                ua_device="Windows PC",
                ua_os="Windows",
                ua_browser="Chrome",
                platform="Win32",
                vendor="Google Inc.",
                vendor_flavors=("chrome",),
                max_touch_points=0,
                screen_resolution=(1920, 1080),
                color_depth=24,
                color_gamut="srgb",
            )
    return changes


def platform_rotation_changes(rng: np.random.Generator) -> Dict[str, object]:
    """Report a platform value drawn from the rotation pool (Figure 10)."""

    return {"platform": ROTATED_PLATFORMS[int(rng.integers(len(ROTATED_PLATFORMS)))]}


def memory_rotation_changes(rng: np.random.Generator) -> Dict[str, object]:
    """Report a freshly drawn deviceMemory value (temporal inconsistency)."""

    return {"device_memory": float(_pick(rng, (0.5, 1.0, 2.0, 4.0, 8.0)))}
