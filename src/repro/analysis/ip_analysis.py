"""IP address and ASN block-list analysis (Section 5.1).

Stores are answered from their first-occurrence IP code column: the
block-list lookup runs once per *distinct* address and the evasion counts
come from boolean gathers.  The
record-iterating oracle lives in ``tests/reference/analysis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geo.asn import AsnBlocklist, IpBlocklist
from repro.geo.geolite import GeoDatabase, build_ip_blocklist
from repro.honeysite.storage import RequestStore


def _blocked_analysis(store: RequestStore, is_blocked):
    """(total, blocked, blocked DataDome evaded, blocked BotD evaded) row
    counts with *is_blocked* evaluated once per distinct address."""

    columns = store.columns
    ip_rows, ip_values = columns.ip_columns()
    blocked_values = np.fromiter(
        (bool(is_blocked(address)) for address in ip_values),
        dtype=bool,
        count=len(ip_values),
    )
    blocked = blocked_values[ip_rows] if ip_rows.size else np.zeros(0, dtype=bool)
    n_blocked = int(np.count_nonzero(blocked))
    datadome = int(np.count_nonzero(blocked & columns.evaded_rows("DataDome")))
    botd = int(np.count_nonzero(blocked & columns.evaded_rows("BotD")))
    return columns.n_rows, n_blocked, datadome, botd


@dataclass(frozen=True)
class AsnBlocklistAnalysis:
    """How much bot traffic comes from flagged ASNs, and whether flagged
    traffic still evades the anti-bot services."""

    total_requests: int
    flagged_requests: int
    flagged_fraction: float
    flagged_datadome_evasion: float
    flagged_botd_evasion: float


def analyze_asn_blocklist(
    store: RequestStore,
    geo: GeoDatabase,
    *,
    blocklist: Optional[AsnBlocklist] = None,
) -> AsnBlocklistAnalysis:
    """Reproduce the ASN part of Section 5.1.

    The paper found 82.54% of requests originated from flagged ASNs, among
    which 52.93% evaded DataDome and 43.17% evaded BotD.
    """

    blocklist = blocklist if blocklist is not None else AsnBlocklist()
    total, flagged, datadome, botd = _blocked_analysis(
        store, lambda address: blocklist.is_blocked(geo.asn_of(address))
    )
    return AsnBlocklistAnalysis(
        total_requests=total,
        flagged_requests=flagged,
        flagged_fraction=flagged / total if total else 0.0,
        flagged_datadome_evasion=(datadome / flagged) if flagged else 0.0,
        flagged_botd_evasion=(botd / flagged) if flagged else 0.0,
    )


@dataclass(frozen=True)
class IpBlocklistAnalysis:
    """Coverage of an IP-level block list and evasion among covered requests."""

    total_requests: int
    covered_requests: int
    coverage: float
    covered_datadome_evasion: float
    covered_botd_evasion: float


def analyze_ip_blocklist(
    store: RequestStore,
    *,
    blocklist: Optional[IpBlocklist] = None,
    coverage: float = 0.1586,
    seed: int = 0,
) -> IpBlocklistAnalysis:
    """Reproduce the minFraud part of Section 5.1.

    The real minFraud list is proprietary; by default a synthetic list
    covering the paper's measured 15.86% of distinct bot addresses is
    sampled, and the evasion rates among covered requests are computed from
    the corpus (the paper reports 48.1% DataDome / 68.85% BotD evasion).
    """

    if blocklist is None:
        # The distinct-address set off the IP code column; the builder
        # sorts it, so the draw does not depend on code order.
        addresses = set(store.columns.ip_columns()[1])
        blocklist = build_ip_blocklist(addresses, np.random.default_rng(seed), coverage)
    total, covered, datadome, botd = _blocked_analysis(store, blocklist.is_blocked)
    return IpBlocklistAnalysis(
        total_requests=total,
        covered_requests=covered,
        coverage=covered / total if total else 0.0,
        covered_datadome_evasion=(datadome / covered) if covered else 0.0,
        covered_botd_evasion=(botd / covered) if covered else 0.0,
    )
