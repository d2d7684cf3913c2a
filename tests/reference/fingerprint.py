"""Oracles over the fingerprint object model.

``repro`` synthesises User-Agent strings (``build_user_agent``) and
counts distinct fingerprints from code rows (Figure 9's canonical rows in
``repro.analysis.figures``); it never parses a User-Agent nor hashes a
:class:`~repro.fingerprint.fingerprint.Fingerprint` object.  The
object-level forms here are what those paths are checked against:

* :func:`parse_user_agent` — the round-trip oracle of
  ``build_user_agent`` (device / OS / browser families back out);
* :func:`stable_hash` — the FingerprintJS-style ``visitorId`` of one
  fingerprint, the oracle behind Figure 9's canonical rows;
* :func:`fingerprint_dict` — a fingerprint as a plain dict, for
  byte-comparing record objects, and :func:`without`, a copy with
  attributes removed (a fixture builder).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint


@dataclass(frozen=True)
class ParsedUserAgent:
    """Device, operating system and browser family parsed from a User-Agent."""

    device: str
    os: str
    browser: str

    def as_tuple(self) -> tuple:
        return (self.device, self.os, self.browser)


_MODEL_PATTERN = re.compile(r"Android [\d.]+; ([^);]+)")


def parse_user_agent(user_agent: Optional[str]) -> ParsedUserAgent:
    """Parse *user_agent* into coarse device / OS / browser families.

    The granularity matches what the paper reports: device values such as
    ``iPhone``, ``iPad``, ``Mac``, ``Windows PC`` or an Android model
    string; OS values such as ``iOS``, ``Mac OS X``, ``Windows``,
    ``Android``, ``Linux``; browser values such as ``Mobile Safari``,
    ``Chrome``, ``Chrome Mobile``, ``Chrome Mobile iOS``, ``Firefox``,
    ``Samsung Internet``, ``MiuiBrowser``.
    """

    if not user_agent:
        return ParsedUserAgent(device="Other", os="Other", browser="Other")
    device = _parse_device(user_agent)
    return ParsedUserAgent(
        device=device, os=_parse_os(user_agent), browser=_parse_browser(user_agent, device)
    )


def _parse_device(ua: str) -> str:
    if "iPhone" in ua:
        return "iPhone"
    if "iPad" in ua:
        return "iPad"
    if "Macintosh" in ua or "Mac OS X" in ua and "like Mac OS X" not in ua:
        return "Mac"
    if "Android" in ua:
        match = _MODEL_PATTERN.search(ua)
        if match:
            # Strip build identifiers, e.g. "SM-A515F Build/RP1A" -> "SM-A515F".
            model = match.group(1).strip().split(" Build")[0].strip()
            if model and model.lower() not in ("mobile", "tablet"):
                return model
        return "Android Device"
    if "Windows" in ua:
        return "Windows PC"
    if "CrOS" in ua:
        return "Chromebook"
    if "Linux" in ua or "X11" in ua:
        return "Linux PC"
    return "Other"


def _parse_os(ua: str) -> str:
    if "iPhone" in ua or "iPad" in ua or "like Mac OS X" in ua:
        return "iOS"
    if "Macintosh" in ua or "Mac OS X" in ua:
        return "Mac OS X"
    if "Android" in ua:
        return "Android"
    if "Windows" in ua:
        return "Windows"
    if "CrOS" in ua:
        return "Chrome OS"
    if "Linux" in ua or "X11" in ua:
        return "Linux"
    return "Other"


def _parse_browser(ua: str, device: str) -> str:
    if "SamsungBrowser" in ua:
        return "Samsung Internet"
    if "MiuiBrowser" in ua:
        return "MiuiBrowser"
    if "Edg/" in ua or "EdgA/" in ua or "EdgiOS/" in ua:
        return "Edge"
    if "OPR/" in ua or "Opera" in ua:
        return "Opera"
    if "CriOS" in ua:
        return "Chrome Mobile iOS"
    if "FxiOS" in ua:
        return "Firefox iOS"
    if "Firefox/" in ua:
        return "Firefox"
    if "Chrome/" in ua:
        return "Chrome Mobile" if "Mobile" in ua else "Chrome"
    if "Safari/" in ua:
        if device in ("iPhone", "iPad") or "Mobile" in ua:
            return "Mobile Safari"
        return "Safari"
    if "HeadlessChrome" in ua:
        return "Headless Chrome"
    return "Other"


#: Transport-level attributes a FingerprintJS ``visitorId`` leaves out.
TRANSPORT_ATTRIBUTES = (
    Attribute.IP_ADDRESS,
    Attribute.IP_COUNTRY,
    Attribute.IP_REGION,
    Attribute.ASN,
)


def json_default(value: Any) -> Any:
    """``json.dumps`` fallback for fingerprint values: tuples as lists."""

    if isinstance(value, tuple):
        return list(value)
    return str(value)


def stable_hash(fingerprint: Fingerprint) -> str:
    """A deterministic hex digest of *fingerprint*'s browser-side values.

    This plays the role of the FingerprintJS ``visitorId``: requests whose
    collected attributes are identical hash to the same value.
    Transport-level attributes (IP address, geolocation, ASN) are
    excluded, matching FingerprintJS, which only hashes browser-side
    signals.
    """

    browser_side = {
        attribute.value: value
        for attribute, value in fingerprint._values.items()
        if attribute not in TRANSPORT_ATTRIBUTES
    }
    payload = json.dumps(browser_side, sort_keys=True, default=json_default, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_dict(fingerprint: Fingerprint) -> Dict[str, Any]:
    """*fingerprint* as a plain dict keyed by attribute name (lists for tuples)."""

    return {
        attribute.value: list(value) if isinstance(value, tuple) else value
        for attribute, value in fingerprint._values.items()
    }


def without(fingerprint: Fingerprint, *attributes: Attribute) -> Fingerprint:
    """A copy of *fingerprint* with *attributes* removed (order kept)."""

    return Fingerprint._from_coerced(
        {key: value for key, value in fingerprint._values.items() if key not in attributes}
    )


def differing_attributes(left: Fingerprint, right: Fingerprint) -> set:
    """Attributes whose values differ; one missing on one side counts."""

    return {key for key in set(left) | set(right) if left.get(key) != right.get(key)}
