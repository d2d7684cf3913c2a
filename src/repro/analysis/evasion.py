"""Evasion-rate analyses (Table 1, Sections 5.3.1–5.3.3).

Like the figure analyses, every function answers a
:class:`~repro.honeysite.storage.RequestStore` from its code arrays; the
record-iterating oracle they are pinned against lives in
``tests/reference/analysis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.attributes import Attribute
from repro.honeysite.storage import RequestStore


@dataclass(frozen=True)
class ServiceEvasionRow:
    """One row of Table 1."""

    service: str
    num_requests: int
    datadome_evasion_rate: float
    botd_evasion_rate: float


def table1_rows(
    store: RequestStore, *, services: Optional[Sequence[str]] = None
) -> Tuple[ServiceEvasionRow, ...]:
    """Per-service request volumes and evasion rates (Table 1).

    Rows are ordered by descending request count, like the paper.
    """

    totals, datadome_evaded, botd_evaded = _table1_counts(store)
    if services is None:
        services = store.sources()
    rows = []
    for service in services:
        num_requests = totals.get(service, 0)
        if num_requests == 0:
            continue
        rows.append(
            ServiceEvasionRow(
                service=service,
                num_requests=num_requests,
                datadome_evasion_rate=datadome_evaded.get(service, 0) / num_requests,
                botd_evasion_rate=botd_evaded.get(service, 0) / num_requests,
            )
        )
    rows.sort(key=lambda row: row.num_requests, reverse=True)
    return tuple(rows)


def _table1_counts(
    store: RequestStore,
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """Per-source request and evasion counts: three bincounts over the
    source-code column."""

    columns = store.columns
    codes = columns.source_codes
    names = columns.sources
    counts = np.bincount(codes, minlength=len(names))
    datadome = np.bincount(
        codes[columns.evaded_rows("DataDome")], minlength=len(names)
    )
    botd = np.bincount(codes[columns.evaded_rows("BotD")], minlength=len(names))
    totals = {name: int(counts[code]) for code, name in enumerate(names) if counts[code]}
    datadome_evaded = {
        name: int(datadome[code]) for code, name in enumerate(names) if datadome[code]
    }
    botd_evaded = {
        name: int(botd[code]) for code, name in enumerate(names) if botd[code]
    }
    return totals, datadome_evaded, botd_evaded


def overall_detection_rates(store: RequestStore) -> Dict[str, float]:
    """Overall DataDome / BotD detection rates (the 55.44% / 47.07% numbers)."""

    return {
        "DataDome": store.detection_rate("DataDome"),
        "BotD": store.detection_rate("BotD"),
    }


def top_and_bottom_services(
    rows: Sequence[ServiceEvasionRow], detector: str, count: int = 3
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Service names with the highest / lowest evasion rate against *detector*.

    Reproduces the cohort selection of Sections 5.3.1 and 5.3.2 (e.g. S15,
    S18, S19 as the top BotD evaders).
    """

    if detector == "DataDome":
        def key(row):
            return row.datadome_evasion_rate
    elif detector == "BotD":
        def key(row):
            return row.botd_evasion_rate
    else:
        raise KeyError(f"unknown detector {detector!r}")
    ordered = sorted(rows, key=key)
    bottom = tuple(row.service for row in ordered[:count])
    top = tuple(row.service for row in ordered[-count:][::-1])
    return top, bottom


@dataclass(frozen=True)
class CohortComparison:
    """Attribute statistics for a high- vs low-evasion cohort (Section 5.3)."""

    detector: str
    top_services: Tuple[str, ...]
    bottom_services: Tuple[str, ...]
    top_requests: int
    bottom_requests: int
    top_evasion_rate: float
    bottom_evasion_rate: float
    #: fraction of cohort requests exposing at least one plugin
    top_with_plugins: float
    bottom_with_plugins: float
    #: fraction of cohort requests claiming touch support
    top_with_touch: float
    bottom_with_touch: float
    #: fraction of cohort requests reporting fewer than 8 CPU cores
    top_low_cores: float
    bottom_low_cores: float


def _attribute_fraction(store: RequestStore, attribute: Attribute, value_predicate) -> float:
    """Fraction of requests whose *attribute* value satisfies the predicate.

    The predicate runs once per distinct decoded value (plus once for
    ``None``, covering rows missing the attribute) and rows are counted
    with a gather — integer counts, so the fraction is bit-identical to a
    per-record loop's.
    """

    if len(store) == 0:
        return 0.0
    rows, values = store.columns.attribute_rows(attribute)
    flags = np.fromiter(
        (bool(value_predicate(value)) for value in values),
        dtype=bool,
        count=len(values),
    )
    valid = rows >= 0
    matches = int(np.count_nonzero(flags[rows[valid]]))
    if value_predicate(None):
        matches += int(np.count_nonzero(~valid))
    return matches / len(store)


def _has_plugins_value(value) -> bool:
    return bool(value)


def _no_plugins_value(value) -> bool:
    return not value


def _has_touch_value(value) -> bool:
    return str(value) not in ("", "None")


def _low_cores_value(value) -> bool:
    return value is not None and int(value) < 8


def cohort_comparison(store: RequestStore, detector: str, *, count: int = 3) -> CohortComparison:
    """Compare the top/bottom evasion cohorts against *detector* (Section 5.3)."""

    rows = table1_rows(store)
    top, bottom = top_and_bottom_services(rows, detector, count=count)
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
        bottom_low_cores=_attribute_fraction(bottom_store, Attribute.HARDWARE_CONCURRENCY, _low_cores_value),
    )


@dataclass(frozen=True)
class DualEvaderSummary:
    """Section 5.3.3: services with >80% evasion against both detectors."""

    services: Tuple[str, ...]
    num_requests: int
    datadome_evasion_rate: float
    botd_evasion_rate: float
    low_cores_fraction: float
    no_plugins_fraction: float
    touch_support_fraction: float


def dual_evader_summary(store: RequestStore, *, threshold: float = 0.8) -> DualEvaderSummary:
    """Characterise the services evading both DataDome and BotD."""

    rows = table1_rows(store)
    services = tuple(
        row.service
        for row in rows
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
