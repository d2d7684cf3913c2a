"""Object-at-a-time reference analyses.

``repro.analysis`` answers every paper table and figure from a store's
code arrays without building a record object.  The functions here are
the record-iterating implementations of the same analyses, kept as the
oracle the columnar ones are pinned against (``tests/test_report.py``,
``tests/test_payload.py``).  Each takes an object
:class:`reference.store.RequestStore` — e.g. ``object_store(store)`` — and
must return exactly what its ``repro.analysis`` namesake returns for the
columnar store.  The store helpers
only these references use (``unique_values``, ``daily_series``, …) live
here too.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.attributes import (
    CombinationRuleResult,
    EvasionClassifierResult,
    _fit_evasion_classifiers,
)
from repro.analysis.evasion import (
    CohortComparison,
    DualEvaderSummary,
    ServiceEvasionRow,
    _has_plugins_value,
    _has_touch_value,
    _low_cores_value,
    _no_plugins_value,
    overall_detection_rates,
    top_and_bottom_services,
)
from repro.analysis.figures import (
    CookiePlatformSpread,
    CoreCountCdf,
    DailySeries,
    DeviceEvasionPoint,
    GeoMismatchSummary,
    IphoneResolutionAnalysis,
    PluginEvasionPoint,
    ResolutionEvasionPoint,
    _timezone_matches_value,
    _TRANSPORT_ATTRIBUTES,
)
from repro.analysis.ip_analysis import AsnBlocklistAnalysis, IpBlocklistAnalysis
from repro.devices.profiles import CHROMIUM_PDF_PLUGINS
from repro.devices.screens import is_real_iphone_resolution
from repro.fingerprint.attributes import Attribute, parse_resolution
from repro.fingerprint.fingerprint import _json_default
from repro.geo.asn import AsnBlocklist, IpBlocklist
from repro.geo.geolite import GeoDatabase, build_ip_blocklist
from repro.honeysite.storage import RecordColumns

from reference.store import RecordedRequest, RequestStore

__all__ = [
    "analyze_asn_blocklist",
    "analyze_ip_blocklist",
    "appendix_c_combination",
    "canonical_fingerprint_rows",
    "cohort_comparison",
    "daily_series",
    "dual_evader_summary",
    "figure10_platform_spread",
    "figure4_plugin_evasion",
    "figure5_core_cdfs",
    "figure6_device_evasion",
    "figure7_iphone_resolutions",
    "figure8_location_histograms",
    "figure9_daily_series",
    "group_by_cookie",
    "new_fingerprints_over_time",
    "overall_detection_rates",
    "section62_geo_match",
    "sorted_by_time",
    "table1_rows",
    "table2",
    "train_evasion_classifier",
    "unique_values",
]


# ---------------------------------------------------------------------------
# Store helpers
# ---------------------------------------------------------------------------


def unique_values(store: RequestStore, attribute: Attribute) -> Dict[object, int]:
    """Histogram of grouping values of *attribute*, in first-seen order."""

    histogram: Dict[object, int] = {}
    for record in store:
        value = record.request.fingerprint.value_for_grouping(attribute)
        histogram[value] = histogram.get(value, 0) + 1
    return histogram


def sorted_by_time(store: RequestStore) -> RequestStore:
    """New store with records ordered by timestamp (stable)."""

    return RequestStore(sorted(store, key=lambda record: record.timestamp))


def group_by_cookie(store: RequestStore) -> Dict[str, List[RecordedRequest]]:
    """Records grouped by first-party cookie value."""

    groups: Dict[str, List[RecordedRequest]] = {}
    for record in store:
        groups.setdefault(record.cookie, []).append(record)
    return groups


def daily_series(store: RequestStore) -> Dict[int, Dict[str, int]]:
    """``{day: {"requests", "unique_ips", "unique_cookies",
    "unique_fingerprints"}}`` per day index (Figure 9)."""

    per_day: Dict[int, List[RecordedRequest]] = {}
    for record in store:
        per_day.setdefault(record.day, []).append(record)
    return {
        day: {
            "requests": len(records),
            "unique_ips": len({r.request.ip_address for r in records}),
            "unique_cookies": len({r.cookie for r in records}),
            "unique_fingerprints": len({r.request.fingerprint.stable_hash() for r in records}),
        }
        for day, records in sorted(per_day.items())
    }


# ---------------------------------------------------------------------------
# Table 1 and the Section 5.3 cohorts
# ---------------------------------------------------------------------------


def table1_rows(
    store: RequestStore, *, services: Optional[Sequence[str]] = None
) -> Tuple[ServiceEvasionRow, ...]:
    totals: Dict[str, int] = {}
    datadome_evaded: Dict[str, int] = {}
    botd_evaded: Dict[str, int] = {}
    for record in store:
        source = record.source
        totals[source] = totals.get(source, 0) + 1
        if record.datadome.evaded:
            datadome_evaded[source] = datadome_evaded.get(source, 0) + 1
        if record.botd.evaded:
            botd_evaded[source] = botd_evaded.get(source, 0) + 1
    if services is None:
        services = store.sources()
    rows = [
        ServiceEvasionRow(
            service=service,
            num_requests=totals[service],
            datadome_evasion_rate=datadome_evaded.get(service, 0) / totals[service],
            botd_evasion_rate=botd_evaded.get(service, 0) / totals[service],
        )
        for service in services
        if totals.get(service, 0)
    ]
    rows.sort(key=lambda row: row.num_requests, reverse=True)
    return tuple(rows)


def _attribute_fraction(store: RequestStore, attribute: Attribute, value_predicate) -> float:
    if len(store) == 0:
        return 0.0
    return sum(1 for record in store if value_predicate(record.attribute(attribute))) / len(
        store
    )


def cohort_comparison(store: RequestStore, detector: str, *, count: int = 3) -> CohortComparison:
    top, bottom = top_and_bottom_services(table1_rows(store), detector, count=count)
    top_store = store.by_sources(top)
    bottom_store = store.by_sources(bottom)
    return CohortComparison(
        detector=detector,
        top_services=top,
        bottom_services=bottom,
        top_requests=len(top_store),
        bottom_requests=len(bottom_store),
        top_evasion_rate=top_store.evasion_rate(detector),
        bottom_evasion_rate=bottom_store.evasion_rate(detector),
        top_with_plugins=_attribute_fraction(top_store, Attribute.PLUGINS, _has_plugins_value),
        bottom_with_plugins=_attribute_fraction(bottom_store, Attribute.PLUGINS, _has_plugins_value),
        top_with_touch=_attribute_fraction(top_store, Attribute.TOUCH_SUPPORT, _has_touch_value),
        bottom_with_touch=_attribute_fraction(bottom_store, Attribute.TOUCH_SUPPORT, _has_touch_value),
        top_low_cores=_attribute_fraction(top_store, Attribute.HARDWARE_CONCURRENCY, _low_cores_value),
        bottom_low_cores=_attribute_fraction(
            bottom_store, Attribute.HARDWARE_CONCURRENCY, _low_cores_value
        ),
    )


def dual_evader_summary(store: RequestStore, *, threshold: float = 0.8) -> DualEvaderSummary:
    services = tuple(
        row.service
        for row in table1_rows(store)
        if row.datadome_evasion_rate > threshold and row.botd_evasion_rate > threshold
    )
    cohort = store.by_sources(services)
    return DualEvaderSummary(
        services=services,
        num_requests=len(cohort),
        datadome_evasion_rate=cohort.evasion_rate("DataDome"),
        botd_evasion_rate=cohort.evasion_rate("BotD"),
        low_cores_fraction=_attribute_fraction(cohort, Attribute.HARDWARE_CONCURRENCY, _low_cores_value),
        no_plugins_fraction=_attribute_fraction(cohort, Attribute.PLUGINS, _no_plugins_value),
        touch_support_fraction=_attribute_fraction(cohort, Attribute.TOUCH_SUPPORT, _has_touch_value),
    )


# ---------------------------------------------------------------------------
# Table 2 and Appendix C
# ---------------------------------------------------------------------------


def train_evasion_classifier(
    store: RequestStore,
    detector: str,
    *,
    test_fraction: float = 0.1,
    max_samples: int = 60_000,
    seed: int = 0,
    permutation: bool = False,
) -> EvasionClassifierResult:
    """Subsample records, read fingerprint + label, then the shared fit."""

    if len(store) < 20:
        raise ValueError("need at least 20 requests to train a classifier")
    rng = np.random.default_rng(seed)
    records = list(store)
    if len(records) > max_samples:
        indices = rng.choice(len(records), size=max_samples, replace=False)
        records = [records[int(index)] for index in indices]
    fingerprints = [record.request.fingerprint for record in records]
    labels = np.array([1 if record.evaded(detector) else 0 for record in records], dtype=float)
    return _fit_evasion_classifiers(
        (detector,),
        fingerprints,
        labels[:, None],
        rng,
        seed=seed,
        test_fraction=test_fraction,
        permutation=permutation,
    )[detector]


def table2(
    store: RequestStore, *, top_k: int = 5, max_samples: int = 40_000, seed: int = 0
) -> Dict[str, List[str]]:
    return {
        detector: train_evasion_classifier(
            store, detector, max_samples=max_samples, seed=seed
        ).top_attributes(top_k)
        for detector in ("DataDome", "BotD")
    }


def appendix_c_combination(store: RequestStore) -> CombinationRuleResult:
    def matches(record) -> bool:
        frame = record.attribute(Attribute.SCREEN_FRAME)
        plugins = record.attribute(Attribute.PLUGINS) or ()
        memory = record.attribute(Attribute.DEVICE_MEMORY)
        cores = record.attribute(Attribute.HARDWARE_CONCURRENCY)
        monospace = record.attribute(Attribute.MONOSPACE_WIDTH)
        return (
            frame is not None
            and frame < 20
            and "Chrome PDF Viewer" not in plugins
            and memory is not None
            and memory > 0.25
            and cores is not None
            and cores < 14
            and monospace is not None
            and monospace > 131.5
        )

    matching = store.filter(matches)
    return CombinationRuleResult(
        matching_requests=len(matching),
        matching_datadome_evasion=matching.evasion_rate("DataDome"),
        overall_datadome_evasion=store.evasion_rate("DataDome"),
    )


# ---------------------------------------------------------------------------
# Figures 4–10 and Section 6.2
# ---------------------------------------------------------------------------


def figure4_plugin_evasion(
    store: RequestStore, *, plugins: Sequence[str] = CHROMIUM_PDF_PLUGINS
) -> Tuple[PluginEvasionPoint, ...]:
    requests = {plugin: 0 for plugin in plugins}
    evaded = {plugin: 0 for plugin in plugins}
    for record in store:
        present = record.attribute(Attribute.PLUGINS) or ()
        if not present:
            continue
        record_evaded = record.evaded("BotD")
        for plugin in plugins:
            if plugin in present:
                requests[plugin] += 1
                if record_evaded:
                    evaded[plugin] += 1
    points = [
        PluginEvasionPoint(
            plugin=plugin,
            requests=requests[plugin],
            evasion_probability=evaded[plugin] / requests[plugin] if requests[plugin] else 0.0,
        )
        for plugin in plugins
    ]
    points.sort(key=lambda point: point.evasion_probability, reverse=True)
    return tuple(points)


def _core_cdf(store: RequestStore, label: str) -> CoreCountCdf:
    values = [
        int(record.attribute(Attribute.HARDWARE_CONCURRENCY))
        for record in store
        if record.attribute(Attribute.HARDWARE_CONCURRENCY) is not None
    ]
    if not values:
        return CoreCountCdf(label=label, core_counts=(), cumulative_probability=())
    array = np.sort(np.array(values))
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
    high = store.filter(lambda record: record.source in tuple(high_evasion_services))
    low = store.filter(lambda record: record.source in tuple(low_evasion_services))
    return (_core_cdf(high, "High evasion rate"), _core_cdf(low, "Low evasion rate"))


def figure6_device_evasion(
    store: RequestStore, *, detector: str = "DataDome", top: int = 4, min_requests: int = 50
) -> Tuple[DeviceEvasionPoint, ...]:
    points = []
    for device, count in unique_values(store, Attribute.UA_DEVICE).items():
        if device is None or count < min_requests:
            continue
        subset = store.filter(
            lambda record, d=device: record.request.fingerprint.value_for_grouping(
                Attribute.UA_DEVICE
            )
            == d
        )
        points.append(
            DeviceEvasionPoint(
                device=str(device),
                requests=count,
                evasion_probability=subset.evasion_rate(detector),
            )
        )
    points.sort(key=lambda point: point.evasion_probability, reverse=True)
    return tuple(points[:top])


def figure7_iphone_resolutions(
    store: RequestStore, *, detector: str = "DataDome", top: int = 10, min_requests: int = 10
) -> IphoneResolutionAnalysis:
    iphone_store = store.filter(
        lambda record: record.request.fingerprint.value_for_grouping(Attribute.UA_DEVICE)
        == "iPhone"
    )
    histogram = unique_values(iphone_store, Attribute.SCREEN_RESOLUTION)
    histogram.pop(None, None)
    evading_histogram = unique_values(
        iphone_store.evading(detector), Attribute.SCREEN_RESOLUTION
    )
    evading_histogram.pop(None, None)

    points = []
    for resolution, count in histogram.items():
        if count < min_requests:
            continue
        subset = iphone_store.filter(
            lambda record, r=resolution: record.request.fingerprint.value_for_grouping(
                Attribute.SCREEN_RESOLUTION
            )
            == r
        )
        points.append(
            ResolutionEvasionPoint(
                resolution=str(resolution),
                requests=count,
                evasion_probability=subset.evasion_rate(detector),
                exists_on_real_iphone=is_real_iphone_resolution(parse_resolution(resolution)),
            )
        )
    points.sort(key=lambda point: (point.evasion_probability, point.requests), reverse=True)
    return IphoneResolutionAnalysis(
        unique_resolutions=len(histogram),
        unique_resolutions_among_evading=len(evading_histogram),
        top_points=tuple(points[:top]),
    )


def section62_geo_match(
    store: RequestStore, services_with_regions: Dict[str, str]
) -> Tuple[GeoMismatchSummary, ...]:
    from repro.geo.timezones import country_matches_region, timezone_matches_region

    summaries = []
    for service, region in services_with_regions.items():
        service_store = store.by_source(service)
        if len(service_store) == 0:
            continue
        ip_matches = 0
        timezone_matches = 0
        for record in service_store:
            country = record.attribute(Attribute.IP_COUNTRY)
            if country and country_matches_region(str(country), region):
                ip_matches += 1
            if _timezone_matches_value(
                record.attribute(Attribute.TIMEZONE), region, timezone_matches_region
            ):
                timezone_matches += 1
        summaries.append(
            GeoMismatchSummary(
                service=service,
                advertised_region=region,
                requests=len(service_store),
                ip_match_rate=ip_matches / len(service_store),
                timezone_match_rate=timezone_matches / len(service_store),
            )
        )
    return tuple(summaries)


def figure8_location_histograms(store: RequestStore) -> Tuple[Dict[str, int], Dict[str, int]]:
    from repro.geo.timezones import country_of_timezone

    by_timezone: Dict[str, int] = {}
    by_ip: Dict[str, int] = {}
    for record in store:
        timezone = record.attribute(Attribute.TIMEZONE)
        if timezone:
            country = country_of_timezone(str(timezone)) or "Unknown"
            by_timezone[country] = by_timezone.get(country, 0) + 1
        ip_country = record.attribute(Attribute.IP_COUNTRY)
        if ip_country:
            by_ip[str(ip_country)] = by_ip.get(str(ip_country), 0) + 1
    return by_timezone, by_ip


def canonical_fingerprint_rows(columns: RecordColumns) -> np.ndarray:
    """Per-row fingerprint codes canonicalised by one SHA-256 per session.

    The oracle of :func:`repro.analysis.figures.canonical_fingerprint_rows`,
    which takes the same :class:`~repro.honeysite.storage.RecordColumns`.
    :meth:`~repro.fingerprint.fingerprint.Fingerprint.stable_hash`
    serialises the browser-side attributes with ``sort_keys=True``, so its
    payload is assembled from per-distinct-``(attribute, value)`` JSON
    fragments joined in attribute-name order and hashed; a session's code
    is the first session with the same digest.
    """

    sessions = columns.sessions
    n_sessions = columns.n_sessions
    names = sessions.fp_attribute_names
    excluded = {attribute.value for attribute in _TRANSPORT_ATTRIBUTES}
    # One JSON fragment (the payload minus its braces) per distinct pair.
    fragments: List[List[str]] = []
    for code, name in enumerate(names):
        if name in excluded:
            fragments.append([])
            continue
        fragments.append(
            [
                json.dumps(
                    {name: value},
                    sort_keys=True,
                    default=_json_default,
                    separators=(",", ":"),
                )[1:-1]
                for value in sessions.fp_values[code]
            ]
        )

    attr_codes = np.asarray(sessions.fp_attr_codes, dtype=np.int64)
    value_codes = np.asarray(sessions.fp_value_codes, dtype=np.int64)
    offsets = np.asarray(sessions.fp_offsets, dtype=np.int64)
    owners = np.repeat(np.arange(n_sessions, dtype=np.int64), np.diff(offsets))
    keep = np.fromiter(
        (name not in excluded for name in names), dtype=bool, count=len(names)
    )[attr_codes] if len(names) else np.zeros(0, dtype=bool)
    # ``sort_keys`` orders by attribute name; rank codes the same way.
    name_rank = np.empty(len(names), dtype=np.int64)
    name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((name_rank[attr_codes[keep]], owners[keep]))
    kept_attrs = attr_codes[keep][order]
    kept_values = value_codes[keep][order]
    bounds = np.searchsorted(owners[keep][order], np.arange(n_sessions + 1)).tolist()

    # One flat fragment pool, gathered per pair in a single fancy index.
    bases = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum([len(table) for table in fragments], out=bases[1:])
    pool = np.array(
        [fragment for table in fragments for fragment in table] or [""], dtype=object
    )
    pair_fragments = pool[bases[kept_attrs] + kept_values].tolist()

    canonical: Dict[str, int] = {}
    session_canon = np.empty(n_sessions, dtype=np.int64)
    for session in range(n_sessions):
        payload = (
            "{" + ",".join(pair_fragments[bounds[session] : bounds[session + 1]]) + "}"
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        session_canon[session] = canonical.setdefault(digest, session)
    return session_canon[columns.session_codes]


def figure9_daily_series(store: RequestStore) -> DailySeries:
    series = daily_series(store)
    days = tuple(sorted(series))
    return DailySeries(
        days=days,
        requests=tuple(series[day]["requests"] for day in days),
        unique_ips=tuple(series[day]["unique_ips"] for day in days),
        unique_cookies=tuple(series[day]["unique_cookies"] for day in days),
        unique_fingerprints=tuple(series[day]["unique_fingerprints"] for day in days),
    )


def new_fingerprints_over_time(store: RequestStore) -> Tuple[int, ...]:
    seen = set()
    per_day: Dict[int, int] = {}
    for record in sorted_by_time(store):
        digest = record.request.fingerprint.stable_hash()
        if digest not in seen:
            seen.add(digest)
            per_day[record.day] = per_day.get(record.day, 0) + 1
    return tuple(per_day.get(day, 0) for day in sorted({record.day for record in store}))


def figure10_platform_spread(store: RequestStore) -> Optional[CookiePlatformSpread]:
    groups = group_by_cookie(store)
    if not groups:
        return None
    cookie, records = max(groups.items(), key=lambda item: len(item[1]))
    histogram: Dict[str, int] = {}
    for record in records:
        platform = record.attribute(Attribute.PLATFORM)
        if platform is None:
            continue
        histogram[str(platform)] = histogram.get(str(platform), 0) + 1
    total = sum(histogram.values())
    if total == 0:
        return None
    return CookiePlatformSpread(
        cookie=cookie,
        requests=len(records),
        platform_percentages={
            platform: 100.0 * count / total
            for platform, count in sorted(histogram.items(), key=lambda item: item[1], reverse=True)
        },
    )


# ---------------------------------------------------------------------------
# Section 5.1 block lists
# ---------------------------------------------------------------------------


def analyze_asn_blocklist(
    store: RequestStore, geo: GeoDatabase, *, blocklist: Optional[AsnBlocklist] = None
) -> AsnBlocklistAnalysis:
    blocklist = blocklist if blocklist is not None else AsnBlocklist()
    flagged = store.filter(
        lambda record: blocklist.is_blocked(geo.asn_of(record.request.ip_address))
    )
    total = len(store)
    return AsnBlocklistAnalysis(
        total_requests=total,
        flagged_requests=len(flagged),
        flagged_fraction=len(flagged) / total if total else 0.0,
        flagged_datadome_evasion=flagged.evasion_rate("DataDome"),
        flagged_botd_evasion=flagged.evasion_rate("BotD"),
    )


def analyze_ip_blocklist(
    store: RequestStore,
    *,
    blocklist: Optional[IpBlocklist] = None,
    coverage: float = 0.1586,
    seed: int = 0,
) -> IpBlocklistAnalysis:
    if blocklist is None:
        addresses = {record.request.ip_address for record in store}
        blocklist = build_ip_blocklist(addresses, np.random.default_rng(seed), coverage)
    covered = store.filter(lambda record: blocklist.is_blocked(record.request.ip_address))
    total = len(store)
    return IpBlocklistAnalysis(
        total_requests=total,
        covered_requests=len(covered),
        coverage=len(covered) / total if total else 0.0,
        covered_datadome_evasion=covered.evasion_rate("DataDome"),
        covered_botd_evasion=covered.evasion_rate("BotD"),
    )
