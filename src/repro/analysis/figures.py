"""Per-figure analyses (Figures 4–10).

Each function returns the data series behind one figure of the paper, in a
plain structure (labels + values) that the reporting module can render as a
text chart or CSV.

Every figure answers a :class:`~repro.honeysite.storage.RequestStore`
straight from its :class:`~repro.honeysite.storage.RecordColumns` arrays.
The record-iterating oracle each one is pinned
against (value-identical, ``tests/test_report.py``) lives in
``tests/reference/analysis.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.profiles import CHROMIUM_PDF_PLUGINS
from repro.devices.screens import is_real_iphone_resolution
from repro.fingerprint.attributes import Attribute, parse_resolution
from repro.fingerprint.fingerprint import grouping_value
from repro.honeysite.storage import (
    SECONDS_PER_DAY,
    RecordColumns,
    RequestStore,
    first_occurrence_recode,
)


# ---------------------------------------------------------------------------
# Shared columnar helpers
# ---------------------------------------------------------------------------


def _grouping_rows(
    columns: RecordColumns, attribute: Attribute
) -> Tuple[np.ndarray, List]:
    """Per-row codes over *grouping* values, in row first-occurrence order.

    The decode list holds the distinct non-``None`` grouping values in the
    order they first appear in row order — the key order of a grouping-value
    histogram accumulated row by row, with its ``None`` bucket dropped.
    ``grouping_value`` runs once per distinct raw value, not once per row.
    """

    raw_rows, raw_values = columns.attribute_rows(attribute)
    keys = [grouping_value(attribute, value) for value in raw_values]
    return first_occurrence_recode(raw_rows, keys)


def _value_flags(values: Sequence, predicate) -> np.ndarray:
    """``predicate`` evaluated once per distinct decoded value."""

    return np.fromiter(
        (bool(predicate(value)) for value in values), dtype=bool, count=len(values)
    )


# ---------------------------------------------------------------------------
# Figure 4 — probability of evading BotD per PDF plugin
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluginEvasionPoint:
    """One bar of Figure 4."""

    plugin: str
    requests: int
    evasion_probability: float


def figure4_plugin_evasion(
    store: RequestStore, *, plugins: Sequence[str] = CHROMIUM_PDF_PLUGINS
) -> Tuple[PluginEvasionPoint, ...]:
    """P(evading BotD | plugin present) for each common PDF plugin.

    Plugin membership is decided once per distinct plugin tuple; row
    totals come from two bincounts.
    """

    columns = store.columns
    rows, values = columns.attribute_rows(Attribute.PLUGINS)
    valid = rows >= 0
    counts = np.bincount(rows[valid], minlength=len(values))
    evaded_counts = np.bincount(
        rows[valid & columns.evaded_rows("BotD")], minlength=len(values)
    )
    points = []
    for plugin in plugins:
        member = _value_flags(values, lambda value, p=plugin: p in (value or ()))
        requests = int(counts[member].sum())
        evaded = int(evaded_counts[member].sum())
        points.append(
            PluginEvasionPoint(
                plugin=plugin,
                requests=requests,
                evasion_probability=evaded / requests if requests else 0.0,
            )
        )
    points.sort(key=lambda point: point.evasion_probability, reverse=True)
    return tuple(points)


# ---------------------------------------------------------------------------
# Figure 5 — CDF of CPU core counts, high vs low DataDome evasion cohorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreCountCdf:
    """One CDF curve of Figure 5."""

    label: str
    core_counts: Tuple[int, ...]
    cumulative_probability: Tuple[float, ...]


def _core_cdf(columns: RecordColumns, label: str) -> CoreCountCdf:
    """One CDF curve: decode once per distinct core count, sort the
    gathered ``int64`` column."""

    rows, values = columns.attribute_rows(Attribute.HARDWARE_CONCURRENCY)
    present = _value_flags(values, lambda value: value is not None)
    decoded = np.fromiter(
        (0 if value is None else int(value) for value in values),
        dtype=np.int64,
        count=len(values),
    )
    valid = rows >= 0
    valid[valid] = present[rows[valid]]
    if not valid.any():
        return CoreCountCdf(label=label, core_counts=(), cumulative_probability=())
    array = np.sort(decoded[rows[valid]])
    unique, counts = np.unique(array, return_counts=True)
    cumulative = np.cumsum(counts) / array.size
    return CoreCountCdf(
        label=label,
        core_counts=tuple(int(value) for value in unique),
        cumulative_probability=tuple(float(value) for value in cumulative),
    )


def figure5_core_cdfs(
    store: RequestStore,
    high_evasion_services: Sequence[str],
    low_evasion_services: Sequence[str],
) -> Tuple[CoreCountCdf, CoreCountCdf]:
    """The two CDF curves of Figure 5 (high- and low-evasion cohorts)."""

    high = store.by_sources(tuple(high_evasion_services))
    low = store.by_sources(tuple(low_evasion_services))
    return (
        _core_cdf(high.columns, "High evasion rate"),
        _core_cdf(low.columns, "Low evasion rate"),
    )


# ---------------------------------------------------------------------------
# Figure 6 — probability of evading DataDome per UA device type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceEvasionPoint:
    """One bar of Figure 6."""

    device: str
    requests: int
    evasion_probability: float


def figure6_device_evasion(
    store: RequestStore, *, detector: str = "DataDome", top: int = 4, min_requests: int = 50
) -> Tuple[DeviceEvasionPoint, ...]:
    """The UA device families with the highest probability of evading
    *detector* (Figure 6 uses DataDome and the top 4), counted over the
    grouped UA-device code column."""

    columns = store.columns
    rows, devices = _grouping_rows(columns, Attribute.UA_DEVICE)
    valid = rows >= 0
    counts = np.bincount(rows[valid], minlength=len(devices))
    evaded_counts = np.bincount(
        rows[valid & columns.evaded_rows(detector)], minlength=len(devices)
    )
    points = []
    for code, device in enumerate(devices):
        count = int(counts[code])
        if count < min_requests:
            continue
        points.append(
            DeviceEvasionPoint(
                device=str(device),
                requests=count,
                evasion_probability=int(evaded_counts[code]) / count,
            )
        )
    points.sort(key=lambda point: point.evasion_probability, reverse=True)
    return tuple(points[:top])


# ---------------------------------------------------------------------------
# Figure 7 — top iPhone screen resolutions by DataDome evasion probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionEvasionPoint:
    """One bar of Figure 7."""

    resolution: str
    requests: int
    evasion_probability: float
    exists_on_real_iphone: bool


@dataclass(frozen=True)
class IphoneResolutionAnalysis:
    """Figure 7 plus the Section 6.1 unique-resolution counts."""

    unique_resolutions: int
    unique_resolutions_among_evading: int
    top_points: Tuple[ResolutionEvasionPoint, ...]

    @property
    def nonexistent_in_top(self) -> int:
        """How many of the top resolutions do not exist on real iPhones."""

        return sum(1 for point in self.top_points if not point.exists_on_real_iphone)


def figure7_iphone_resolutions(
    store: RequestStore, *, detector: str = "DataDome", top: int = 10, min_requests: int = 10
) -> IphoneResolutionAnalysis:
    """Resolution spread of requests claiming to be iPhones (Section 6.1).

    The iPhone subset is a row slice; both resolution histograms are
    bincounts over the grouped code column.
    """

    columns = store.columns
    device_rows, devices = _grouping_rows(columns, Attribute.UA_DEVICE)
    try:
        iphone_code = devices.index("iPhone")
    except ValueError:
        iphone_rows = np.empty(0, dtype=np.int64)
    else:
        iphone_rows = np.nonzero(device_rows == iphone_code)[0]
    iphone = columns.take(iphone_rows)
    rows, resolutions = _grouping_rows(iphone, Attribute.SCREEN_RESOLUTION)
    valid = rows >= 0
    counts = np.bincount(rows[valid], minlength=len(resolutions))
    evaded_valid = valid & iphone.evaded_rows(detector)
    evaded_counts = np.bincount(rows[evaded_valid], minlength=len(resolutions))
    points = []
    for code, resolution in enumerate(resolutions):
        count = int(counts[code])
        if count < min_requests:
            continue
        points.append(
            ResolutionEvasionPoint(
                resolution=str(resolution),
                requests=count,
                evasion_probability=int(evaded_counts[code]) / count,
                exists_on_real_iphone=is_real_iphone_resolution(parse_resolution(resolution)),
            )
        )
    points.sort(key=lambda point: (point.evasion_probability, point.requests), reverse=True)
    return IphoneResolutionAnalysis(
        unique_resolutions=len(resolutions),
        unique_resolutions_among_evading=int(np.unique(rows[evaded_valid]).size),
        top_points=tuple(points[:top]),
    )


# ---------------------------------------------------------------------------
# Figure 8 / Section 6.2 — location inferred from timezone vs IP address
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoMismatchSummary:
    """Per-service location match rates (Section 6.2) and the Figure 8 data."""

    service: str
    advertised_region: str
    requests: int
    ip_match_rate: float
    timezone_match_rate: float


def _timezone_matches_value(value, region, matcher) -> bool:
    """Whether one decoded timezone value lies in *region* (unknown zones
    and missing values do not)."""

    if not value:
        return False
    try:
        return bool(matcher(str(value), region))
    except KeyError:
        return False


def section62_geo_match(
    store: RequestStore,
    services_with_regions: Dict[str, str],
) -> Tuple[GeoMismatchSummary, ...]:
    """Match rates of the advertised region via IP vs via browser timezone."""

    from repro.geo.timezones import country_matches_region, timezone_matches_region

    summaries = []
    for service, region in services_with_regions.items():
        service_store = store.by_source(service)
        requests = len(service_store)
        if requests == 0:
            continue
        columns = service_store.columns
        country_rows, countries = columns.attribute_rows(Attribute.IP_COUNTRY)
        country_ok = _value_flags(
            countries,
            lambda value: bool(value) and country_matches_region(str(value), region),
        )
        country_valid = country_rows >= 0
        ip_matches = int(np.count_nonzero(country_ok[country_rows[country_valid]]))
        tz_rows, timezones = columns.attribute_rows(Attribute.TIMEZONE)
        tz_ok = _value_flags(
            timezones,
            lambda value: _timezone_matches_value(value, region, timezone_matches_region),
        )
        tz_valid = tz_rows >= 0
        timezone_matches = int(np.count_nonzero(tz_ok[tz_rows[tz_valid]]))
        summaries.append(
            GeoMismatchSummary(
                service=service,
                advertised_region=region,
                requests=requests,
                ip_match_rate=ip_matches / requests,
                timezone_match_rate=timezone_matches / requests,
            )
        )
    return tuple(summaries)


def figure8_location_histograms(
    store: RequestStore,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """The two Figure 8 heatmaps flattened to per-country request counts.

    Returns ``(by_timezone_country, by_ip_country)``.
    """

    from repro.geo.timezones import country_of_timezone

    columns = store.columns

    def histogram(attribute: Attribute, key_of) -> Dict[str, int]:
        raw_rows, raw_values = columns.attribute_rows(attribute)
        codes, keys = first_occurrence_recode(raw_rows, [key_of(value) for value in raw_values])
        counts = np.bincount(codes[codes >= 0], minlength=len(keys))
        return {str(key): int(count) for key, count in zip(keys, counts)}

    by_timezone = histogram(
        Attribute.TIMEZONE,
        lambda value: (country_of_timezone(str(value)) or "Unknown") if value else None,
    )
    by_ip = histogram(Attribute.IP_COUNTRY, lambda value: str(value) if value else None)
    return by_timezone, by_ip


# ---------------------------------------------------------------------------
# Figure 9 — temporal distribution of traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DailySeries:
    """The four Figure 9 series."""

    days: Tuple[int, ...]
    requests: Tuple[int, ...]
    unique_ips: Tuple[int, ...]
    unique_cookies: Tuple[int, ...]
    unique_fingerprints: Tuple[int, ...]


#: Transport-level attributes a FingerprintJS ``visitorId`` leaves out (the
#: ``stable_hash`` oracle in ``tests/reference/fingerprint.py`` drops the same).
_TRANSPORT_ATTRIBUTES = (
    Attribute.IP_ADDRESS,
    Attribute.IP_COUNTRY,
    Attribute.IP_REGION,
    Attribute.ASN,
)


def canonical_fingerprint_rows(columns: RecordColumns) -> np.ndarray:
    """Per-row fingerprint codes: the first session with the same
    FingerprintJS-style ``visitorId`` (``stable_hash`` in
    ``tests/reference/fingerprint.py``, the oracle these rows are checked
    against).

    The hash serialises the browser-side attributes with ``sort_keys``, so
    two sessions hash alike when every attribute's value serialises to the
    same JSON.  Each attribute's distinct values get one id per distinct
    JSON fragment (a list and a tuple share one); the ids fill a
    ``(session, attribute)`` matrix, ``-1`` where absent or transport-level,
    and identical rows share a code.  That needs each attribute at most
    once per session, which is checked.  The SHA-256 oracle is
    ``canonical_fingerprint_rows`` in ``tests/reference/analysis.py``.
    """

    sessions = columns.sessions
    names = sessions.fp_attribute_names
    excluded = {attribute.value for attribute in _TRANSPORT_ATTRIBUTES}
    fragment_ids: List[int] = []  # flat, attribute by attribute
    for code, name in enumerate(names):
        values = sessions.fp_values[code]
        if name in excluded:
            fragment_ids.extend([0] * len(values))
            continue
        ids: Dict[str, int] = {}
        # Tuples serialise as JSON arrays; any other non-JSON value as its str.
        fragment_ids.extend(
            ids.setdefault(
                json.dumps(value, sort_keys=True, default=str, separators=(",", ":")),
                len(ids),
            )
            for value in values
        )
    bases = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum([len(values) for values in sessions.fp_values], out=bases[1:])
    attr_codes = np.asarray(sessions.fp_attr_codes, dtype=np.int64)
    value_codes = np.asarray(sessions.fp_value_codes, dtype=np.int64)
    offsets = np.asarray(sessions.fp_offsets, dtype=np.int64)
    owners = np.repeat(np.arange(columns.n_sessions, dtype=np.int64), np.diff(offsets))
    pair_ids = np.array(fragment_ids, dtype=np.int32)[bases[attr_codes] + value_codes]
    matrix = np.full((columns.n_sessions, len(names)), -1, dtype=np.int32)
    matrix[owners, attr_codes] = pair_ids
    if np.count_nonzero(matrix >= 0) != attr_codes.size or len(set(names)) != len(names):
        raise ValueError("a session carries a fingerprint attribute more than once")
    matrix[:, [code for code, name in enumerate(names) if name in excluded]] = -1

    canonical: Dict[bytes, int] = {}
    data, width = matrix.tobytes(), matrix.itemsize * len(names)
    session_canon = np.fromiter(
        (
            canonical.setdefault(data[session * width : (session + 1) * width], session)
            for session in range(columns.n_sessions)
        ),
        dtype=np.int64,
        count=columns.n_sessions,
    )
    return session_canon[columns.session_codes]


def _row_days(columns: RecordColumns) -> np.ndarray:
    return (columns.timestamps // SECONDS_PER_DAY).astype(np.int64)


def figure9_daily_series(
    store: RequestStore, *, fingerprint_rows: Optional[np.ndarray] = None
) -> DailySeries:
    """Per-day request / unique-IP / unique-cookie / unique-fingerprint counts,
    from the store's per-row code arrays.

    *fingerprint_rows* is :func:`canonical_fingerprint_rows` of the store's
    columns (computed when omitted), so a caller that also needs
    :func:`new_fingerprints_over_time` canonicalises once for both.
    """

    columns = store.columns
    if columns.n_rows == 0:
        return DailySeries(days=(), requests=(), unique_ips=(), unique_cookies=(),
                           unique_fingerprints=())
    if fingerprint_rows is None:
        fingerprint_rows = canonical_fingerprint_rows(columns)
    unique_days, day_rank = np.unique(_row_days(columns), return_inverse=True)
    requests = np.bincount(day_rank, minlength=unique_days.size)

    def distinct_per_day(row_codes: np.ndarray, n_codes: int) -> np.ndarray:
        # The first key of each sorted run: NumPy 2's hash-based
        # ``np.unique`` is ~20x slower on these int64 keys than one sort.
        keys = np.sort(day_rank.astype(np.int64) * n_codes + row_codes)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        return np.bincount(keys // n_codes, minlength=unique_days.size)

    # Any code that equal values share counts them; Figure 10 alone needs
    # first-seen order.
    ip_rows = columns.sessions.canonical_ips()[columns.session_codes]
    cookie_rows = columns.canonical_cookies()[columns.served_codes]
    return DailySeries(
        days=tuple(int(day) for day in unique_days),
        requests=tuple(int(count) for count in requests),
        unique_ips=tuple(
            int(count) for count in distinct_per_day(ip_rows, len(columns.session_ips))
        ),
        unique_cookies=tuple(
            int(count) for count in distinct_per_day(cookie_rows, len(columns.cookie_values))
        ),
        unique_fingerprints=tuple(
            int(count)
            for count in distinct_per_day(fingerprint_rows, columns.n_sessions)
        ),
    )


def new_fingerprints_over_time(
    store: RequestStore, *, fingerprint_rows: Optional[np.ndarray] = None
) -> Tuple[int, ...]:
    """Per-day count of never-before-seen fingerprints (Section 6.3).

    Like :func:`figure9_daily_series` this answers from the store's arrays
    (vectorized first-occurrence scan) and takes the same optional
    *fingerprint_rows*.
    """

    columns = store.columns
    if columns.n_rows == 0:
        return ()
    if fingerprint_rows is None:
        fingerprint_rows = canonical_fingerprint_rows(columns)
    unique_days, day_rank = np.unique(_row_days(columns), return_inverse=True)
    order = np.argsort(columns.timestamps, kind="stable")
    # First time-ordered occurrence of each distinct fingerprint, and the
    # day it landed on.
    _unique, first_positions = np.unique(fingerprint_rows[order], return_index=True)
    per_day = np.bincount(day_rank[order][first_positions], minlength=unique_days.size)
    return tuple(int(count) for count in per_day)


# ---------------------------------------------------------------------------
# Figure 10 — platform values reported under one cookie
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CookiePlatformSpread:
    """Figure 10: platform distribution of the busiest cookie."""

    cookie: str
    requests: int
    platform_percentages: Dict[str, float]

    @property
    def distinct_platforms(self) -> int:
        return len(self.platform_percentages)


def figure10_platform_spread(store: RequestStore) -> Optional[CookiePlatformSpread]:
    """Platform values reported by the device with the busiest cookie.

    The busiest cookie comes from a bincount and a first-max argmax (ties
    go to the cookie seen first); the platform spread from one more
    bincount over its row slice.
    """

    columns = store.columns
    if not columns.n_rows:
        return None
    cookie_rows, cookies = first_occurrence_recode(columns.served_codes, columns.cookie_values)
    cookie_counts = np.bincount(cookie_rows, minlength=len(cookies))
    busiest = int(np.argmax(cookie_counts))
    subset = np.nonzero(cookie_rows == busiest)[0]
    platform_raw, platform_values = columns.attribute_rows(Attribute.PLATFORM)
    codes, platforms = first_occurrence_recode(
        platform_raw[subset],
        [None if value is None else str(value) for value in platform_values],
    )
    counts = np.bincount(codes[codes >= 0], minlength=len(platforms))
    total = int(counts.sum())
    if total == 0:
        return None
    order = sorted(
        range(len(platforms)), key=lambda code: int(counts[code]), reverse=True
    )
    return CookiePlatformSpread(
        cookie=cookies[busiest],
        requests=int(cookie_counts[busiest]),
        platform_percentages={
            platforms[code]: 100.0 * int(counts[code]) / total for code in order
        },
    )
