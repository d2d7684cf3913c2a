"""The :class:`Fingerprint` record and its grouping values.

A fingerprint is the set of attribute values collected for one request by
the honey site's FingerprintJS-style collector plus the values derived from
the transport layer (IP geolocation, ASN).  Fingerprints are immutable
mappings from :class:`~repro.fingerprint.attributes.Attribute` to values;
the device catalogue and the privacy-technology models derive *altered*
copies via :meth:`Fingerprint.replace`.  The FingerprintJS-style
``visitorId`` of a fingerprint object (``stable_hash``) is a test oracle in
``tests/reference/fingerprint.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping

from repro.fingerprint.attributes import (
    Attribute,
    coerce_value,
    format_resolution,
)


class Fingerprint(Mapping[Attribute, Any]):
    """An immutable collection of fingerprint attribute values.

    Parameters
    ----------
    values:
        Mapping from :class:`Attribute` (or its string value) to the raw
        attribute value.  Values are coerced to their canonical types.

    Missing attributes read as ``None``.
    """

    __slots__ = ("_values", "_grouping")

    def __init__(self, values: Mapping[Any, Any]):
        coerced: Dict[Attribute, Any] = {}
        for key, value in values.items():
            attribute = key if isinstance(key, Attribute) else Attribute(str(key))
            coerced_value = coerce_value(attribute, value)
            if isinstance(coerced_value, list):
                coerced_value = tuple(coerced_value)
            coerced[attribute] = coerced_value
        self._values: Dict[Attribute, Any] = coerced
        self._grouping: Dict[Attribute, Any] = {}

    @classmethod
    def _from_coerced(cls, values: Dict[Attribute, Any]) -> "Fingerprint":
        """Wrap a dict whose values are already canonical, skipping coercion.

        Only for :meth:`replace` and the honey site's enrichment, whose
        inputs come from an existing fingerprint (coercion is idempotent on
        canonical values, so re-running it is pure overhead — and it
        dominated corpus-generation profiles).
        """

        instance = cls.__new__(cls)
        instance._values = values
        instance._grouping = {}
        return instance

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, key: Attribute) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- convenience accessors -------------------------------------------------

    def get(self, key: Attribute, default: Any = None) -> Any:
        return self._values.get(key, default)

    def value_for_grouping(self, attribute: Attribute) -> Any:
        """Return a hashable, human-readable value used by grouping code.

        Screen resolutions become ``"WxH"`` strings and attribute lists
        become comma-joined strings so that grouping keys are printable in
        tables exactly as the paper renders them.

        Grouping values are memoized per fingerprint: the miner, the filter
        list matcher and the temporal tracker all re-read the same handful
        of attributes, and the string formatting dominated their profiles.
        """

        try:
            return self._grouping[attribute]
        except KeyError:
            pass
        grouped = grouping_value(attribute, self.get(attribute))
        self._grouping[attribute] = grouped
        return grouped

    # -- derivation -------------------------------------------------------------

    def replace(self, **changes: Any) -> "Fingerprint":
        """Return a copy with attribute values replaced.

        Keyword names are the snake_case attribute keys (``Attribute``
        member values), e.g. ``fp.replace(hardware_concurrency=4)``.
        """

        updated: Dict[Attribute, Any] = dict(self._values)
        for key, value in changes.items():
            attribute = Attribute(key)
            coerced = coerce_value(attribute, value)
            if isinstance(coerced, list):
                coerced = tuple(coerced)
            updated[attribute] = coerced
        return Fingerprint._from_coerced(updated)


def grouping_value(attribute: Attribute, value: Any) -> Any:
    """The grouping form of one raw attribute *value*.

    The single source of truth behind
    :meth:`Fingerprint.value_for_grouping`; the columnar extractor calls it
    once per *distinct* raw value instead of once per request.
    """

    if value is None:
        return None
    if attribute is Attribute.SCREEN_RESOLUTION:
        return format_resolution(value)
    if isinstance(value, tuple):
        return ", ".join(str(item) for item in value) or "(none)"
    return value

