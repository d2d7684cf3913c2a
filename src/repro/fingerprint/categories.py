"""Attribute categories used for spatial inconsistency mining (Table 7).

The paper groups attributes by the kind of device information they convey
so that the spatial miner only compares attribute *pairs within a group*
(Section 7.1).  This module reproduces Table 7 and offers helpers to
enumerate candidate pairs.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterator, List, Tuple

from repro.fingerprint.attributes import Attribute


class AttributeCategory(str, enum.Enum):
    """Categories of attributes (Table 7 of the paper)."""

    SCREEN = "Screen"
    DEVICE = "Device"
    BROWSER = "Browser"
    LOCATION = "Location"


#: Table 7 — the attributes belonging to each category.  An attribute may
#: belong to multiple categories (e.g. ``UA Device`` informs both screen and
#: device characteristics), exactly as in the paper.
CATEGORY_ATTRIBUTES: Dict[AttributeCategory, Tuple[Attribute, ...]] = {
    AttributeCategory.SCREEN: (
        Attribute.UA_DEVICE,
        Attribute.COLOR_DEPTH,
        Attribute.SCREEN_RESOLUTION,
        Attribute.TOUCH_SUPPORT,
        Attribute.MAX_TOUCH_POINTS,
        Attribute.HDR,
        Attribute.CONTRAST,
        Attribute.REDUCED_MOTION,
        Attribute.COLOR_GAMUT,
    ),
    AttributeCategory.DEVICE: (
        Attribute.UA_DEVICE,
        Attribute.DEVICE_MEMORY,
        Attribute.HARDWARE_CONCURRENCY,
        Attribute.UA_OS,
    ),
    AttributeCategory.BROWSER: (
        Attribute.UA_BROWSER,
        Attribute.PLUGINS,
        Attribute.PLATFORM,
        Attribute.UA_OS,
        Attribute.VENDOR,
        Attribute.VENDOR_FLAVORS,
    ),
    AttributeCategory.LOCATION: (
        Attribute.IP_COUNTRY,
        Attribute.IP_REGION,
        Attribute.TIMEZONE,
        Attribute.LANGUAGES,
    ),
}


def category_pairs(category: AttributeCategory) -> Iterator[Tuple[Attribute, Attribute]]:
    """Yield every unordered attribute pair within *category*.

    These are the candidate pairs examined by the spatial miner
    (Algorithm 1, line 3).
    """

    return itertools.combinations(CATEGORY_ATTRIBUTES[category], 2)


def all_candidate_pairs() -> List[Tuple[AttributeCategory, Attribute, Attribute]]:
    """Return ``(category, attribute_a, attribute_b)`` for every candidate pair."""

    pairs: List[Tuple[AttributeCategory, Attribute, Attribute]] = []
    for category in AttributeCategory:
        for left, right in category_pairs(category):
            pairs.append((category, left, right))
    return pairs
