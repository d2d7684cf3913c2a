"""IP address and ASN block-list analysis (Section 5.1).

A store's rows take their source address from their session, so each
block list is evaluated once per session that has rows and gathered back
to the rows; the evasion counts come from boolean gathers.  The ASN list
resolves each distinct /16 prefix once (:meth:`GeoDatabase.asns_of`).  The
record-iterating oracle lives in ``tests/reference/analysis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.geo.asn import AsnBlocklist, IpBlocklist
from repro.geo.geolite import GeoDatabase, build_ip_blocklist
from repro.honeysite.storage import RequestStore


def _blocked_analysis(store: RequestStore, blocked_of: Callable[[List[str]], np.ndarray]):
    """(total, blocked, blocked DataDome evaded, blocked BotD evaded) row
    counts; *blocked_of* flags the source address of each session that has
    rows, and the flags are gathered back to the rows."""

    columns = store.columns
    sessions = np.nonzero(np.bincount(columns.session_codes, minlength=columns.n_sessions))[0]
    session_ips = columns.session_ips
    session_blocked = np.zeros(columns.n_sessions, dtype=bool)
    session_blocked[sessions] = blocked_of([session_ips[session] for session in sessions.tolist()])
    rows = session_blocked[columns.session_codes]
    n_blocked = int(np.count_nonzero(rows))
    datadome = int(np.count_nonzero(rows & columns.evaded_rows("DataDome")))
    botd = int(np.count_nonzero(rows & columns.evaded_rows("BotD")))
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

    def flagged_of(addresses: List[str]) -> np.ndarray:
        asns, rows = np.unique(geo.asns_of(addresses), return_inverse=True)
        # ``-1`` is outside the address space: no ASN, so not blocked.
        flagged = [asn >= 0 and blocklist.is_blocked(asn) for asn in asns.tolist()]
        return np.array(flagged, dtype=bool)[rows]

    total, flagged, datadome, botd = _blocked_analysis(store, flagged_of)
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

    def covered_of(addresses: List[str]) -> np.ndarray:
        listed = blocklist
        if listed is None:
            # The builder sorts the distinct addresses, so the draw does
            # not depend on session order.
            listed = build_ip_blocklist(addresses, np.random.default_rng(seed), coverage)
        return np.fromiter(map(listed.is_blocked, addresses), dtype=bool, count=len(addresses))

    total, covered, datadome, botd = _blocked_analysis(store, covered_of)
    return IpBlocklistAnalysis(
        total_requests=total,
        covered_requests=covered,
        coverage=covered / total if total else 0.0,
        covered_datadome_evasion=(datadome / covered) if covered else 0.0,
        covered_botd_evasion=(botd / covered) if covered else 0.0,
    )
