"""Shared detection signals and the Table 5 API inventory.

The signal helpers answer simple questions about a request ("is the
User-Agent an automation UA?", "does the fingerprint expose any plugin?")
and are shared by both detector models.  ``API_ACCESS`` reproduces Table 5:
which browser APIs each service's client-side script reads.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.network.request import WebRequest

#: Automation markers that appear in User-Agents of unmodified automation
#: stacks (headless browsers, HTTP libraries, scripted clients).
AUTOMATION_UA_MARKERS: Tuple[str, ...] = (
    "HeadlessChrome",
    "PhantomJS",
    "Electron",
    "python-requests",
    "curl/",
    "wget/",
    "Selenium",
    "Playwright",
    "Puppeteer",
)


def has_webdriver_flag(fingerprint: Fingerprint) -> bool:
    """``navigator.webdriver`` is ``True`` — the canonical automation tell."""

    return bool(fingerprint.get(Attribute.WEBDRIVER, False))


def has_automation_user_agent(request: WebRequest) -> bool:
    """The User-Agent contains a known automation marker."""

    user_agent = request.user_agent or ""
    return any(marker in user_agent for marker in AUTOMATION_UA_MARKERS)


def plugin_count(fingerprint: Fingerprint) -> int:
    """Number of navigator plugins exposed by the fingerprint."""

    plugins = fingerprint.get(Attribute.PLUGINS) or ()
    return len(plugins)


def has_any_plugin(fingerprint: Fingerprint) -> bool:
    """Whether at least one navigator plugin is exposed (Figure 4 signal)."""

    return plugin_count(fingerprint) > 0


def reports_touch_support(fingerprint: Fingerprint) -> bool:
    """Whether the fingerprint claims touch-event support."""

    touch = fingerprint.get(Attribute.TOUCH_SUPPORT)
    if touch is None:
        return False
    return str(touch) not in ("", "None")


def hardware_concurrency(fingerprint: Fingerprint) -> Optional[int]:
    """The reported number of logical CPU cores, when present."""

    value = fingerprint.get(Attribute.HARDWARE_CONCURRENCY)
    return int(value) if value is not None else None


def forced_colors_active(fingerprint: Fingerprint) -> bool:
    """Whether the forced-colors accessibility mode is reported active."""

    return bool(fingerprint.get(Attribute.FORCED_COLORS, False))


def screen_frame(fingerprint: Fingerprint) -> Optional[int]:
    """The reported screen-frame size, when present."""

    value = fingerprint.get(Attribute.SCREEN_FRAME)
    return int(value) if value is not None else None


def missing_languages(fingerprint: Fingerprint) -> bool:
    """No browser languages reported — common in stripped automation."""

    languages = fingerprint.get(Attribute.LANGUAGES)
    return not languages


#: Table 5 — browser APIs read by each service's client-side script.
API_ACCESS: Dict[str, Dict[str, bool]] = {
    "window.screen.colorDepth": {"DataDome": True, "BotD": False},
    "HTMLCanvasElement.getContext": {"DataDome": True, "BotD": False},
    "window.navigator.webdriver": {"DataDome": True, "BotD": True},
    "window.navigator.vendor": {"DataDome": True, "BotD": True},
    "window.navigator.userAgent": {"DataDome": True, "BotD": True},
    "window.navigator.serviceWorker": {"DataDome": True, "BotD": False},
    "window.navigator.productSub": {"DataDome": True, "BotD": True},
    "window.navigator.plugins": {"DataDome": True, "BotD": True},
    "window.navigator.platform": {"DataDome": True, "BotD": True},
    "window.navigator.permissions": {"DataDome": True, "BotD": True},
    "window.navigator.oscpu": {"DataDome": True, "BotD": False},
    "window.navigator.mimeTypes": {"DataDome": True, "BotD": False},
    "window.navigator.mediaDevices": {"DataDome": True, "BotD": False},
    "window.navigator.maxTouchPoints": {"DataDome": True, "BotD": False},
    "window.navigator.languages": {"DataDome": True, "BotD": True},
    "window.navigator.language": {"DataDome": True, "BotD": True},
    "window.navigator.hardwareConcurrency": {"DataDome": True, "BotD": False},
    "window.navigator.buildID": {"DataDome": True, "BotD": False},
    "window.navigator.appVersion": {"DataDome": True, "BotD": True},
    "window.navigator.__proto__": {"DataDome": False, "BotD": True},
    "window.sessionStorage": {"DataDome": True, "BotD": False},
    "window.localStorage": {"DataDome": True, "BotD": False},
    "window.document.cookie": {"DataDome": True, "BotD": False},
    "MouseEvent.type": {"DataDome": True, "BotD": False},
    "MouseEvent.timeStamp": {"DataDome": True, "BotD": False},
    "MouseEvent.clientY": {"DataDome": True, "BotD": False},
    "MouseEvent.clientX": {"DataDome": True, "BotD": False},
    "addEventListener: mouseup": {"DataDome": True, "BotD": False},
    "addEventListener: mousemove": {"DataDome": True, "BotD": False},
    "addEventListener: mousedown": {"DataDome": True, "BotD": False},
    "addEventListener: asyncChallengeFinished": {"DataDome": True, "BotD": False},
    "addEventListener: pagehide": {"DataDome": True, "BotD": False},
    "Performance.now": {"DataDome": False, "BotD": True},
}
