"""GeoLite-style IP intelligence lookups.

Combines the synthetic address space, the ASN registry and the timezone
knowledge into the single lookup interface the analyses consume: given an
IP address, return country, region, primary timezone, ASN and whether the
address sits in datacenter space.  This substitutes MaxMind's GeoLite2 and
minFraud products used in the paper (Sections 5.1 and 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.geo.asn import (
    AsnBlocklist,
    ASN_REGISTRY,
    IpBlocklist,
    TOR_EXIT_ASNS,
    datacenter_asns,
    residential_asns,
)
from repro.geo.ipaddr import GeoRegion, IpAddressSpace, parse_ipv4_octets, regions_of_country


@dataclass(frozen=True)
class GeoRecord:
    """Result of an IP-intelligence lookup."""

    ip_address: str
    country: str
    region: str
    timezone: str
    asn: int
    asn_name: str
    is_datacenter: bool


class GeoDatabase:
    """Synthetic GeoLite2-like database over an :class:`IpAddressSpace`."""

    def __init__(self, space: Optional[IpAddressSpace] = None):
        self._space = space if space is not None else IpAddressSpace()

    @property
    def space(self) -> IpAddressSpace:
        return self._space

    # -- allocation ---------------------------------------------------------

    def allocate_address(
        self,
        rng: np.random.Generator,
        *,
        country: str,
        datacenter: bool = False,
        region_name: Optional[str] = None,
    ) -> str:
        """Allocate an address located in *country*.

        ``datacenter=True`` draws from cloud/hosting ASNs (falling back to
        United States cloud space when the country hosts no datacenter ASN
        in the registry, which mirrors reality for most small countries).
        """

        candidate_asns: Sequence[int]
        if datacenter:
            candidate_asns = datacenter_asns(country) or datacenter_asns("United States of America")
            # Tor exit ASNs live in hosting address space but are not part
            # of the commodity proxy pools bot services rent; Tor traffic is
            # generated explicitly by the privacy-technology models.
            candidate_asns = [asn for asn in candidate_asns if asn not in TOR_EXIT_ASNS] or list(
                candidate_asns
            )
            if country not in {r.country for r in _regions_or_default(country)} and candidate_asns:
                country = ASN_REGISTRY[candidate_asns[0]].country
        else:
            candidate_asns = residential_asns(country) or residential_asns()
        if not candidate_asns:
            raise RuntimeError("no candidate ASNs available")
        asn = int(candidate_asns[int(rng.integers(len(candidate_asns)))])
        regions = _regions_or_default(country)
        if region_name is not None:
            matching = [r for r in regions if r.region == region_name]
            regions = tuple(matching) or regions
        region = regions[int(rng.integers(len(regions)))]
        return self._space.allocate(asn, region, rng)

    # -- lookup ------------------------------------------------------------

    def lookup(self, address: str) -> Optional[GeoRecord]:
        """Look up *address*; ``None`` when the address is outside the space."""

        assignment = self._space.lookup_prefix(address)
        if assignment is None:
            return None
        record = ASN_REGISTRY[assignment.asn]
        return GeoRecord(
            ip_address=address,
            country=assignment.region.country,
            region=assignment.region.region,
            timezone=assignment.region.timezone,
            asn=assignment.asn,
            asn_name=record.name,
            is_datacenter=record.is_datacenter,
        )

    def asn_of(self, address: str) -> Optional[int]:
        """ASN of *address* or ``None`` when unknown."""

        record = self.lookup(address)
        return record.asn if record else None

    def asns_of(self, addresses: Sequence[str]) -> np.ndarray:
        """ASN of each address, ``-1`` outside the space: :meth:`asn_of`
        over many addresses, with the octets parsed in one vectorised pass
        and each distinct /16 prefix looked up once."""

        octets = parse_ipv4_octets(addresses)
        prefixes, rows = np.unique(octets[:, 0] * 256 + octets[:, 1], return_inverse=True)
        owners = [self._space.prefix_assignment(p >> 8, p & 255) for p in prefixes.tolist()]
        asns = [-1 if owner is None else owner.asn for owner in owners]
        return np.array(asns, dtype=np.int64)[rows]


def _regions_or_default(country: str) -> Tuple[GeoRegion, ...]:
    regions = regions_of_country(country)
    if regions:
        return regions
    return regions_of_country("United States of America")


def build_ip_blocklist(
    addresses: Iterable[str],
    rng: np.random.Generator,
    coverage: float,
) -> IpBlocklist:
    """Build a partial IP block list over *addresses*.

    The paper found minFraud covered 15.86% of the bot addresses; the
    report calls this with ``coverage≈0.16`` over the distinct bot IPs.
    """

    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be within [0, 1]")
    unique = sorted(set(addresses))
    count = int(round(len(unique) * coverage))
    if count == 0:
        return IpBlocklist()
    chosen = rng.choice(len(unique), size=count, replace=False)
    return IpBlocklist(unique[int(index)] for index in chosen)


__all__ = [
    "AsnBlocklist",
    "GeoDatabase",
    "GeoRecord",
    "IpBlocklist",
    "build_ip_blocklist",
]
