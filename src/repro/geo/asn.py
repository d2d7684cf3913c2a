"""Autonomous-system registry and block lists.

Section 5.1 of the paper checks the ASN of every request against public
"datacenter ASN" block lists (82.54% of bot requests originated from
flagged ASNs) and the IP address against MaxMind's minFraud list (15.86%
coverage).  The real lists are proprietary or change over time, so this
module ships a synthetic registry with the same structure: a set of ASNs
split into residential / mobile carriers and cloud or hosting providers,
plus a block list over the hosting ASNs and a partial IP-level block list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple


class AsnKind(enum.Enum):
    """Coarse business category of an autonomous system."""

    RESIDENTIAL_ISP = "residential_isp"
    MOBILE_CARRIER = "mobile_carrier"
    CLOUD_PROVIDER = "cloud_provider"
    HOSTING_PROVIDER = "hosting_provider"


@dataclass(frozen=True)
class AsnRecord:
    """One autonomous system."""

    number: int
    name: str
    kind: AsnKind
    country: str

    @property
    def is_datacenter(self) -> bool:
        """Cloud and hosting ASNs are the ones public block lists flag."""

        return self.kind in (AsnKind.CLOUD_PROVIDER, AsnKind.HOSTING_PROVIDER)


_A = AsnRecord

#: Synthetic but realistically named ASN registry.
ASN_REGISTRY: Dict[int, AsnRecord] = {
    record.number: record
    for record in (
        # Residential ISPs.
        _A(7922, "Comcast Cable", AsnKind.RESIDENTIAL_ISP, "United States of America"),
        _A(701, "Verizon", AsnKind.RESIDENTIAL_ISP, "United States of America"),
        _A(7018, "AT&T", AsnKind.RESIDENTIAL_ISP, "United States of America"),
        _A(812, "Rogers Communications", AsnKind.RESIDENTIAL_ISP, "Canada"),
        _A(577, "Bell Canada", AsnKind.RESIDENTIAL_ISP, "Canada"),
        _A(3215, "Orange", AsnKind.RESIDENTIAL_ISP, "France"),
        _A(12322, "Free SAS", AsnKind.RESIDENTIAL_ISP, "France"),
        _A(3320, "Deutsche Telekom", AsnKind.RESIDENTIAL_ISP, "Germany"),
        _A(12430, "Vodafone Spain", AsnKind.RESIDENTIAL_ISP, "Spain"),
        _A(3269, "Telecom Italia", AsnKind.RESIDENTIAL_ISP, "Italy"),
        _A(1136, "KPN", AsnKind.RESIDENTIAL_ISP, "Netherlands"),
        _A(5089, "Virgin Media", AsnKind.RESIDENTIAL_ISP, "United Kingdom"),
        _A(4134, "China Telecom", AsnKind.RESIDENTIAL_ISP, "China"),
        _A(9808, "China Mobile", AsnKind.MOBILE_CARRIER, "China"),
        _A(45609, "Bharti Airtel", AsnKind.MOBILE_CARRIER, "India"),
        _A(8151, "Telmex", AsnKind.RESIDENTIAL_ISP, "Mexico"),
        _A(28573, "Claro Brasil", AsnKind.RESIDENTIAL_ISP, "Brazil"),
        _A(4773, "Singtel Mobile", AsnKind.MOBILE_CARRIER, "Singapore"),
        _A(2516, "KDDI", AsnKind.RESIDENTIAL_ISP, "Japan"),
        _A(1221, "Telstra", AsnKind.RESIDENTIAL_ISP, "Australia"),
        _A(9500, "Spark New Zealand", AsnKind.RESIDENTIAL_ISP, "New Zealand"),
        _A(12389, "Rostelecom", AsnKind.RESIDENTIAL_ISP, "Russia"),
        _A(13335, "T-Mobile US", AsnKind.MOBILE_CARRIER, "United States of America"),
        # Cloud providers (flagged by ASN block lists).
        _A(16509, "Amazon Web Services", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(14618, "Amazon AES", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(15169, "Google Cloud", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(8075, "Microsoft Azure", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(14061, "DigitalOcean", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(16276, "OVH", AsnKind.CLOUD_PROVIDER, "France"),
        _A(24940, "Hetzner Online", AsnKind.CLOUD_PROVIDER, "Germany"),
        _A(63949, "Linode", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(20473, "Vultr", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(45102, "Alibaba Cloud", AsnKind.CLOUD_PROVIDER, "China"),
        # Hosting / proxy providers (flagged).
        _A(9009, "M247", AsnKind.HOSTING_PROVIDER, "United Kingdom"),
        _A(212238, "Datacamp", AsnKind.HOSTING_PROVIDER, "United Kingdom"),
        _A(60068, "CDN77", AsnKind.HOSTING_PROVIDER, "United Kingdom"),
        _A(206092, "IPXO", AsnKind.HOSTING_PROVIDER, "United States of America"),
        _A(42831, "UK Dedicated Servers", AsnKind.HOSTING_PROVIDER, "United Kingdom"),
        _A(46606, "Unified Layer", AsnKind.HOSTING_PROVIDER, "United States of America"),
        _A(55286, "Server Mania", AsnKind.HOSTING_PROVIDER, "Canada"),
        _A(49981, "WorldStream", AsnKind.HOSTING_PROVIDER, "Netherlands"),
        _A(51167, "Contabo", AsnKind.HOSTING_PROVIDER, "Germany"),
        _A(396982, "Google Cloud Platform", AsnKind.CLOUD_PROVIDER, "United States of America"),
        _A(208323, "Foundation for Applied Privacy (Tor exit)", AsnKind.HOSTING_PROVIDER, "Germany"),
        _A(53667, "FranTech Solutions (Tor exit)", AsnKind.HOSTING_PROVIDER, "United States of America"),
    )
}

#: ASNs that predominantly host Tor exit relays in the synthetic registry.
TOR_EXIT_ASNS: FrozenSet[int] = frozenset({208323, 53667})

#: ASNs present on the public "bad ASN" block lists the paper checks against.
BLOCKED_ASNS: FrozenSet[int] = frozenset(
    number for number, record in ASN_REGISTRY.items() if record.is_datacenter
)


@lru_cache(maxsize=None)
def residential_asns(country: Optional[str] = None) -> Tuple[int, ...]:
    """Residential / mobile ASNs, optionally filtered by *country*.

    Cached: the registry is a module constant and the traffic generators
    call this once per session reset.
    """

    return tuple(
        number
        for number, record in ASN_REGISTRY.items()
        if not record.is_datacenter and (country is None or record.country == country)
    )


@lru_cache(maxsize=None)
def datacenter_asns(country: Optional[str] = None) -> Tuple[int, ...]:
    """Cloud / hosting ASNs, optionally filtered by *country*.

    Cached: the registry is a module constant and the traffic generators
    call this once per session reset.
    """

    return tuple(
        number
        for number, record in ASN_REGISTRY.items()
        if record.is_datacenter and (country is None or record.country == country)
    )


class AsnBlocklist:
    """Block list of autonomous system numbers (bad-ASN list model)."""

    def __init__(self, blocked: Iterable[int] = BLOCKED_ASNS):
        self._blocked: FrozenSet[int] = frozenset(int(number) for number in blocked)

    def is_blocked(self, number: Optional[int]) -> bool:
        """Whether ASN *number* is on the list (``None`` → not blocked)."""

        return number is not None and int(number) in self._blocked


class IpBlocklist:
    """Partial IP-level block list (minFraud model).

    The paper reports that IP-level lists only cover 15.86% of the bot
    requests; the report constructs this list by sampling a
    fraction of the bot IP pool, reproducing the partial-coverage property.
    """

    def __init__(self, addresses: Iterable[str] = ()):
        self._blocked: Set[str] = {str(address) for address in addresses}

    def is_blocked(self, address: Optional[str]) -> bool:
        """Whether *address* is on the list (``None`` → not blocked)."""

        return address is not None and str(address) in self._blocked
