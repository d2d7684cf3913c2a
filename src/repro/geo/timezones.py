"""Timezone ↔ UTC-offset ↔ region knowledge.

Section 6.2 of the paper compares the location implied by a request's IP
address against the location implied by the browser's timezone, using a
conservative "same UTC offset" match.  This module records, for the regions
used in the study (and a few extra), the IANA timezones observed there and
the UTC offsets each of those zones can take, and exposes the conservative
matching predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class TimezoneInfo:
    """An IANA timezone with the UTC offsets (minutes) it can exhibit."""

    name: str
    offsets_minutes: Tuple[int, ...]
    country: str


_TZ = TimezoneInfo

#: Registry of IANA timezones used by the traffic generators and analyses.
TIMEZONES: Dict[str, TimezoneInfo] = {
    tz.name: tz
    for tz in (
        _TZ("America/Los_Angeles", (-480, -420), "United States of America"),
        _TZ("America/Denver", (-420, -360), "United States of America"),
        _TZ("America/Chicago", (-360, -300), "United States of America"),
        _TZ("America/New_York", (-300, -240), "United States of America"),
        _TZ("America/Phoenix", (-420,), "United States of America"),
        _TZ("America/Toronto", (-300, -240), "Canada"),
        _TZ("America/Vancouver", (-480, -420), "Canada"),
        _TZ("America/Winnipeg", (-360, -300), "Canada"),
        _TZ("America/Halifax", (-240, -180), "Canada"),
        _TZ("America/Mexico_City", (-360,), "Mexico"),
        _TZ("America/Sao_Paulo", (-180,), "Brazil"),
        _TZ("Europe/London", (0, 60), "United Kingdom"),
        _TZ("Europe/Paris", (60, 120), "France"),
        _TZ("Europe/Berlin", (60, 120), "Germany"),
        _TZ("Europe/Madrid", (60, 120), "Spain"),
        _TZ("Europe/Rome", (60, 120), "Italy"),
        _TZ("Europe/Amsterdam", (60, 120), "Netherlands"),
        _TZ("Europe/Warsaw", (60, 120), "Poland"),
        _TZ("Europe/Kyiv", (120, 180), "Ukraine"),
        _TZ("Europe/Moscow", (180,), "Russia"),
        _TZ("Asia/Shanghai", (480,), "China"),
        _TZ("Asia/Singapore", (480,), "Singapore"),
        _TZ("Asia/Tokyo", (540,), "Japan"),
        _TZ("Asia/Kolkata", (330,), "India"),
        _TZ("Asia/Karachi", (300,), "Pakistan"),
        _TZ("Asia/Dubai", (240,), "United Arab Emirates"),
        _TZ("Australia/Sydney", (600, 660), "Australia"),
        _TZ("Pacific/Auckland", (720, 780), "New Zealand"),
        # Tor Browser standardises the reported zone to UTC; no country.
        _TZ("UTC", (0,), ""),
    )
}

#: Countries → the IANA timezones observed in that country (derived view).
COUNTRY_TIMEZONES: Dict[str, Tuple[str, ...]] = {}
for _tz_info in TIMEZONES.values():
    COUNTRY_TIMEZONES.setdefault(_tz_info.country, ())
    COUNTRY_TIMEZONES[_tz_info.country] = COUNTRY_TIMEZONES[_tz_info.country] + (_tz_info.name,)

#: Coarse advertised regions used by bot services (Section 6.2) → countries.
ADVERTISED_REGIONS: Dict[str, FrozenSet[str]] = {
    "United States": frozenset({"United States of America"}),
    "Canada": frozenset({"Canada"}),
    "France": frozenset({"France"}),
    "Europe": frozenset(
        {
            "United Kingdom",
            "France",
            "Germany",
            "Spain",
            "Italy",
            "Netherlands",
            "Poland",
            "Ukraine",
        }
    ),
    "Mexico": frozenset({"Mexico"}),
    "Asia": frozenset({"China", "Singapore", "Japan", "India", "Pakistan", "United Arab Emirates"}),
}


def utc_offsets_of(timezone_name: str) -> Tuple[int, ...]:
    """UTC offsets (minutes east of UTC) zone *timezone_name* can take."""

    return TIMEZONES[timezone_name].offsets_minutes


def country_of_timezone(timezone_name: str) -> Optional[str]:
    """Country a timezone is observed in, or ``None`` if unknown."""

    info = TIMEZONES.get(timezone_name)
    return info.country if info else None


def offsets_of_region(region: str) -> FrozenSet[int]:
    """Every UTC offset that occurs inside an advertised *region*."""

    countries = ADVERTISED_REGIONS.get(region)
    if countries is None:
        raise KeyError(f"unknown advertised region {region!r}")
    offsets = set()
    for country in countries:
        for zone_name in COUNTRY_TIMEZONES.get(country, ()):
            offsets.update(TIMEZONES[zone_name].offsets_minutes)
    return frozenset(offsets)


def offsets_of_country(country: str) -> FrozenSet[int]:
    """Every UTC offset that occurs inside *country* (empty if unknown)."""

    offsets = set()
    for zone_name in COUNTRY_TIMEZONES.get(country, ()):
        offsets.update(TIMEZONES[zone_name].offsets_minutes)
    return frozenset(offsets)


def offset_matches_region(offset_minutes: int, region: str) -> bool:
    """Conservative match used in Section 6.2.

    A UTC offset is considered to "match" an advertised region when any
    location inside that region can exhibit the offset (e.g. Europe/Berlin
    overlaps France).
    """

    return offset_minutes in offsets_of_region(region)


def timezone_matches_region(timezone_name: str, region: str) -> bool:
    """Whether any offset of *timezone_name* overlaps the region's offsets."""

    region_offsets = offsets_of_region(region)
    return any(offset in region_offsets for offset in utc_offsets_of(timezone_name))


def country_matches_region(country: str, region: str) -> bool:
    """Conservative country-vs-region match via overlapping UTC offsets."""

    region_offsets = offsets_of_region(region)
    return any(offset in region_offsets for offset in offsets_of_country(country))


def offsets_overlap(timezone_a: str, timezone_b: str) -> bool:
    """Whether two IANA zones can ever share a UTC offset."""

    return bool(set(utc_offsets_of(timezone_a)) & set(utc_offsets_of(timezone_b)))
