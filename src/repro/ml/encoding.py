"""Fingerprint → feature-matrix encoding.

The Section 5.2 classifiers consume fingerprint attributes as features.
This encoder maps the heterogeneous attribute values (strings, lists,
booleans, resolutions) into a numeric matrix and keeps human-readable
feature names matching the labels the paper prints in Table 2
("Vendor Flavors", "Plugins", "Screen Frame", "Hardware Concurrency", ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import grouping_value
from repro.honeysite.storage import RecordColumns

#: Display names for attributes, matching the paper's tables.
DISPLAY_NAMES: Dict[Attribute, str] = {
    Attribute.UA_DEVICE: "UA Device",
    Attribute.UA_OS: "UA OS",
    Attribute.UA_BROWSER: "UA Browser",
    Attribute.VENDOR: "Vendor",
    Attribute.VENDOR_FLAVORS: "Vendor Flavors",
    Attribute.PLUGINS: "Plugins",
    Attribute.PLATFORM: "Platform",
    Attribute.HARDWARE_CONCURRENCY: "Hardware Concurrency",
    Attribute.DEVICE_MEMORY: "Device Memory",
    Attribute.SCREEN_RESOLUTION: "Screen Resolution",
    Attribute.SCREEN_FRAME: "Screen Frame",
    Attribute.COLOR_DEPTH: "Color Depth",
    Attribute.COLOR_GAMUT: "Color Gamut",
    Attribute.TOUCH_SUPPORT: "Touch Support",
    Attribute.MAX_TOUCH_POINTS: "Max Touch Points",
    Attribute.FORCED_COLORS: "Forced Colors",
    Attribute.CONTRAST: "Contrast",
    Attribute.HDR: "HDR",
    Attribute.REDUCED_MOTION: "Reduced Motion",
    Attribute.TIMEZONE: "Timezone",
    Attribute.LANGUAGES: "Languages",
    Attribute.WEBDRIVER: "Webdriver",
    Attribute.PRODUCT_SUB: "Product Sub",
    Attribute.MONOSPACE_WIDTH: "Monospace Width",
    Attribute.MONOCHROME: "Monochrome",
    Attribute.INVERTED_COLORS: "Inverted Colors",
    Attribute.PDF_VIEWER_ENABLED: "PDF Viewer Enabled",
    Attribute.COOKIES_ENABLED: "Cookies Enabled",
}

#: Default feature set for the evasion classifiers: the FingerprintJS
#: attributes the paper lists plus the screen/device ones in Table 2.
DEFAULT_FEATURE_ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute.UA_DEVICE,
    Attribute.UA_OS,
    Attribute.UA_BROWSER,
    Attribute.VENDOR,
    Attribute.VENDOR_FLAVORS,
    Attribute.PLUGINS,
    Attribute.PLATFORM,
    Attribute.HARDWARE_CONCURRENCY,
    Attribute.DEVICE_MEMORY,
    Attribute.SCREEN_RESOLUTION,
    Attribute.SCREEN_FRAME,
    Attribute.COLOR_DEPTH,
    Attribute.COLOR_GAMUT,
    Attribute.TOUCH_SUPPORT,
    Attribute.MAX_TOUCH_POINTS,
    Attribute.FORCED_COLORS,
    Attribute.CONTRAST,
    Attribute.HDR,
    Attribute.REDUCED_MOTION,
    Attribute.TIMEZONE,
    Attribute.LANGUAGES,
    Attribute.WEBDRIVER,
    Attribute.PRODUCT_SUB,
    Attribute.MONOSPACE_WIDTH,
)

_NUMERIC_ATTRIBUTES = {
    Attribute.HARDWARE_CONCURRENCY,
    Attribute.DEVICE_MEMORY,
    Attribute.SCREEN_FRAME,
    Attribute.COLOR_DEPTH,
    Attribute.MAX_TOUCH_POINTS,
    Attribute.CONTRAST,
    Attribute.MONOSPACE_WIDTH,
    Attribute.MONOCHROME,
}

_BOOLEAN_ATTRIBUTES = {
    Attribute.FORCED_COLORS,
    Attribute.HDR,
    Attribute.REDUCED_MOTION,
    Attribute.WEBDRIVER,
    Attribute.INVERTED_COLORS,
    Attribute.PDF_VIEWER_ENABLED,
    Attribute.COOKIES_ENABLED,
}


def display_name(attribute: Attribute) -> str:
    """Human-readable name for *attribute* (Table 2 style)."""

    return DISPLAY_NAMES.get(attribute, attribute.value.replace("_", " ").title())


@dataclass
class FingerprintEncoder:
    """Ordinal/numeric encoder from fingerprints to a feature matrix.

    Categorical attributes are mapped to dense integer codes learned from
    the fitting corpus (unseen categories encode as ``-1``); numeric and
    boolean attributes pass through.  One fingerprint attribute maps to
    exactly one feature column, which keeps Table 2's per-attribute
    importances directly readable.
    """

    attributes: Tuple[Attribute, ...] = DEFAULT_FEATURE_ATTRIBUTES

    def __post_init__(self) -> None:
        self._category_codes: Dict[Attribute, Dict[object, int]] = {}
        self._fitted = False

    # -- helpers --------------------------------------------------------------

    @property
    def feature_names(self) -> List[str]:
        """Display name of each feature column."""

        return [display_name(attribute) for attribute in self.attributes]

    def _encode_value(self, attribute: Attribute, value: object) -> float:
        if value is None:
            return -1.0
        if attribute in _NUMERIC_ATTRIBUTES:
            return float(value)
        if attribute in _BOOLEAN_ATTRIBUTES:
            return 1.0 if value else 0.0
        codes = self._category_codes.get(attribute, {})
        return float(codes.get(value, -1))

    # -- API -----------------------------------------------------------------

    def fit_transform(self, columns: RecordColumns) -> np.ndarray:
        """Fit the code books and encode in one pass, one matrix row per
        record row of *columns*.

        No fingerprint is decoded: each distinct raw value of an attribute
        is grouped and encoded once, then gathered to the rows.  The
        fingerprint-object twin in ``tests/reference/ml.py`` gives the same
        matrix and code books for the same rows.
        """

        if not columns.n_rows:
            raise ValueError("cannot fit the encoder on an empty corpus")
        self._category_codes = {}
        matrix = np.empty((columns.n_rows, len(self.attributes)), dtype=float)
        for position, attribute in enumerate(self.attributes):
            rows, raw_values = columns.attribute_rows(attribute)
            keys = [grouping_value(attribute, value) for value in raw_values]
            if attribute not in _NUMERIC_ATTRIBUTES and attribute not in _BOOLEAN_ATTRIBUTES:
                # The code book in first-seen row order; raw values that
                # group alike share the first one's code.
                present, first_row = np.unique(rows, return_index=True)
                seen: Dict[object, int] = {}
                for raw in present[np.argsort(first_row)].tolist():
                    if raw >= 0 and keys[raw] is not None:
                        seen.setdefault(keys[raw], len(seen))
                self._category_codes[attribute] = seen
            # The last slot encodes a missing attribute: rows code it as -1.
            table = np.empty(len(keys) + 1, dtype=float)
            table[:-1] = [self._encode_value(attribute, key) for key in keys]
            table[-1] = -1.0
            matrix[:, position] = table[rows]
        self._fitted = True
        return matrix

    def categories_of(self, attribute: Attribute) -> Dict[object, int]:
        """The learned category → code mapping for *attribute*."""

        if not self._fitted:
            raise RuntimeError("encoder has not been fitted")
        return dict(self._category_codes.get(attribute, {}))
