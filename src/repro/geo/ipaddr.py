"""Synthetic IPv4 address space.

The reproduction needs a deterministic way to hand out IP addresses whose
geolocation and ASN can later be looked up (the honey site stores hashed
addresses, but the analyses in Sections 5.1 and 6.2 rely on the mapping
address → country / region / timezone / ASN).  Address space is organised
as /16 blocks, each owned by one autonomous system and located in one
region, mirroring how GeoLite2 maps prefixes to locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.asn import AsnKind, ASN_REGISTRY


@dataclass(frozen=True)
class GeoRegion:
    """A sub-national region with its primary IANA timezone."""

    country: str
    region: str
    timezone: str


#: Regions used by the traffic generators; the Table 6 location examples
#: (France/Hauts-de-France, Germany/Sachsen, US/California, ...) all appear.
GEO_REGIONS: Tuple[GeoRegion, ...] = (
    GeoRegion("United States of America", "California", "America/Los_Angeles"),
    GeoRegion("United States of America", "Virginia", "America/New_York"),
    GeoRegion("United States of America", "Texas", "America/Chicago"),
    GeoRegion("United States of America", "Oregon", "America/Los_Angeles"),
    GeoRegion("United States of America", "New York", "America/New_York"),
    GeoRegion("Canada", "Ontario", "America/Toronto"),
    GeoRegion("Canada", "British Columbia", "America/Vancouver"),
    GeoRegion("Canada", "Quebec", "America/Toronto"),
    GeoRegion("France", "Hauts-de-France", "Europe/Paris"),
    GeoRegion("France", "Île-de-France", "Europe/Paris"),
    GeoRegion("Germany", "Sachsen", "Europe/Berlin"),
    GeoRegion("Germany", "Hessen", "Europe/Berlin"),
    GeoRegion("United Kingdom", "England", "Europe/London"),
    GeoRegion("Netherlands", "North Holland", "Europe/Amsterdam"),
    GeoRegion("Spain", "Madrid", "Europe/Madrid"),
    GeoRegion("Italy", "Lombardy", "Europe/Rome"),
    GeoRegion("Poland", "Mazovia", "Europe/Warsaw"),
    GeoRegion("Ukraine", "Kyiv", "Europe/Kyiv"),
    GeoRegion("Russia", "Moscow", "Europe/Moscow"),
    GeoRegion("Mexico", "Mexico City", "America/Mexico_City"),
    GeoRegion("Brazil", "São Paulo", "America/Sao_Paulo"),
    GeoRegion("China", "Shanghai", "Asia/Shanghai"),
    GeoRegion("Singapore", "Singapore", "Asia/Singapore"),
    GeoRegion("Japan", "Tokyo", "Asia/Tokyo"),
    GeoRegion("India", "Maharashtra", "Asia/Kolkata"),
    GeoRegion("Pakistan", "Sindh", "Asia/Karachi"),
    GeoRegion("United Arab Emirates", "Dubai", "Asia/Dubai"),
    GeoRegion("Australia", "New South Wales", "Australia/Sydney"),
    GeoRegion("New Zealand", "Auckland", "Pacific/Auckland"),
)

_REGIONS_BY_COUNTRY: Dict[str, Tuple[GeoRegion, ...]] = {}
for _region in GEO_REGIONS:
    _REGIONS_BY_COUNTRY.setdefault(_region.country, ())
    _REGIONS_BY_COUNTRY[_region.country] = _REGIONS_BY_COUNTRY[_region.country] + (_region,)


def regions_of_country(country: str) -> Tuple[GeoRegion, ...]:
    """Regions registered for *country* (empty tuple when unknown)."""

    return _REGIONS_BY_COUNTRY.get(country, ())


@dataclass(frozen=True)
class PrefixAssignment:
    """One /16 prefix with its owner ASN and location."""

    first_octet: int
    second_octet: int
    asn: int
    region: GeoRegion


def format_ipv4(first: int, second: int, third: int, fourth: int) -> str:
    """Format four octets as a dotted-quad string."""

    return f"{first}.{second}.{third}.{fourth}"


def parse_ipv4(address: str) -> Tuple[int, int, int, int]:
    """Parse a dotted-quad IPv4 address into its octets.

    Raises
    ------
    ValueError
        If *address* is not a valid IPv4 dotted quad.
    """

    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {address!r}")
    octets = []
    for part in parts:
        value = int(part)
        if not 0 <= value <= 255:
            raise ValueError(f"invalid IPv4 address {address!r}")
        octets.append(value)
    return octets[0], octets[1], octets[2], octets[3]


def parse_ipv4_octets(addresses: Sequence[str]) -> np.ndarray:
    """:func:`parse_ipv4` over many addresses: an ``(n, 4)`` ``int64`` array.

    Quads of ASCII digits and dots (at most 15 characters; a NUL fails)
    are parsed together from one code-point matrix, a column at a time.
    Anything else goes through :func:`parse_ipv4`, so the same inputs are
    accepted and the same ``ValueError`` raised.
    """

    addresses = list(addresses)
    text = np.array(addresses, dtype=np.str_)
    digits = text.view(np.uint32).reshape(len(addresses), text.itemsize // 4) - np.int64(48)
    lengths = np.fromiter(map(len, addresses), dtype=np.int64, count=len(addresses))
    inside = np.arange(digits.shape[1]) < lengths[:, None]
    digit, dot = inside & (digits >= 0) & (digits <= 9), digits == -2
    field = np.cumsum(dot, axis=1)
    plain = np.all(digit | dot | ~inside, axis=1) & (field[:, -1] == 3) & (lengths <= 15)
    octets = np.zeros((len(addresses), 4), dtype=np.int64)
    counts = np.zeros_like(octets)
    for column in range(digits.shape[1]):
        rows = np.nonzero(plain & digit[:, column])[0]
        at = (rows, field[rows, column])
        octets[at] = octets[at] * 10 + digits[rows, column]
        counts[at] += 1
    plain &= np.all((counts > 0) & (octets <= 255), axis=1)
    for row in np.nonzero(~plain)[0].tolist():
        octets[row] = parse_ipv4(addresses[row])
    return octets


class AddressSpaceExhausted(RuntimeError):
    """A kind's configured first-octet segments are fully allocated."""


#: Default first-octet segments per ASN kind, as ``(base, span)`` pairs
#: (``span`` first octets starting at ``base``).  The *primary* segment of
#: each kind keeps its historical base — residential ``100.x``–``109.x``,
#: mobile ``110.x``–``119.x``, cloud ``34.x``–``44.x``, hosting
#: ``45.x``–``54.x`` — so every address any previous revision allocated is
#: unchanged; the *extension* segments only come into play once the
#: primary segment is full, giving ``--scale`` values well beyond 1.0 (and
#: wider shard fan-outs) 3–4× the historical block capacity per kind.
DEFAULT_KIND_OCTET_RANGES: Dict[AsnKind, Tuple[Tuple[int, int], ...]] = {
    AsnKind.RESIDENTIAL_ISP: ((100, 10), (160, 32)),
    AsnKind.MOBILE_CARRIER: ((110, 10), (192, 32)),
    AsnKind.CLOUD_PROVIDER: ((34, 11), (120, 20)),
    AsnKind.HOSTING_PROVIDER: ((45, 10), (140, 20)),
}


def _validate_kind_ranges(
    kind_ranges: Dict[AsnKind, Tuple[Tuple[int, int], ...]],
) -> Dict[AsnKind, Tuple[Tuple[int, int], ...]]:
    """Check segment sanity and global disjointness across kinds."""

    claimed: Dict[int, AsnKind] = {}
    validated: Dict[AsnKind, Tuple[Tuple[int, int], ...]] = {}
    for kind, segments in kind_ranges.items():
        normalized = tuple((int(base), int(span)) for base, span in segments)
        if not normalized:
            raise ValueError(f"{kind} needs at least one octet segment")
        for base, span in normalized:
            if span < 1 or base < 1 or base + span > 256:
                raise ValueError(
                    f"invalid octet segment ({base}, {span}) for {kind}: "
                    f"need 1 <= base and base + span <= 256"
                )
            for octet in range(base, base + span):
                owner = claimed.get(octet)
                if owner is not None:
                    raise ValueError(
                        f"octet {octet} claimed by both {owner} and {kind}; "
                        f"kind segments must be disjoint"
                    )
                claimed[octet] = kind
        validated[kind] = normalized
    return validated


class IpAddressSpace:
    """Deterministic allocator of synthetic IPv4 addresses.

    The space assigns a distinct /16 to every (ASN, region) combination as
    blocks are requested, drawing from disjoint per-kind first-octet
    segments (:data:`DEFAULT_KIND_OCTET_RANGES`) so that block kinds never
    collide.

    Parameters
    ----------
    partition:
        ``(index, count)`` pair carving the per-kind block sequence into
        ``count`` disjoint interleaved slices.  Shard *index* of a sharded
        corpus build allocates blocks ``index, index + count, ...`` so that
        independently generated shards can later be merged (via
        :meth:`adopt`) into one space without prefix collisions.  The
        default ``(0, 1)`` reproduces the legacy demand-ordered sequence.
    kind_ranges:
        Optional override of the per-kind octet segments (merged over the
        defaults; segments must be disjoint across kinds).  Widening a
        kind's segments never changes already-allocatable addresses — it
        only raises the point at which :class:`AddressSpaceExhausted` is
        raised.
    """

    def __init__(
        self,
        partition: Tuple[int, int] = (0, 1),
        kind_ranges: Optional[Dict[AsnKind, Tuple[Tuple[int, int], ...]]] = None,
    ) -> None:
        index, count = int(partition[0]), int(partition[1])
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"invalid partition {partition!r}; need 0 <= index < count")
        self._partition = (index, count)
        merged = dict(DEFAULT_KIND_OCTET_RANGES)
        if kind_ranges:
            merged.update(kind_ranges)
        self._kind_ranges = _validate_kind_ranges(merged)
        self._assignments: Dict[Tuple[int, str, str], PrefixAssignment] = {}
        self._by_prefix: Dict[Tuple[int, int], PrefixAssignment] = {}
        #: per-kind count of blocks this partition has allocated so far
        self._allocated: Dict[AsnKind, int] = {}

    @property
    def assignments(self) -> List[PrefixAssignment]:
        return list(self._by_prefix.values())

    def _block_octets(self, kind: AsnKind, global_index: int) -> Tuple[int, int]:
        remaining = int(global_index)
        for base, span in self._kind_ranges[kind]:
            segment_blocks = span * 256
            if remaining < segment_blocks:
                return base + remaining // 256, remaining % 256
            remaining -= segment_blocks
        index, count = self._partition
        capacity = sum(span * 256 for _base, span in self._kind_ranges[kind])
        raise AddressSpaceExhausted(
            f"synthetic address space for {kind.value!r} is exhausted: block "
            f"{global_index} requested but the configured segments "
            f"{self._kind_ranges[kind]} hold only {capacity} /16 "
            f"blocks (partition {index}/{count}).  Widen the kind's segments via "
            f"IpAddressSpace(kind_ranges=...) or reduce the shard count / scale."
        )

    def assignment_for(self, asn: int, region: GeoRegion) -> PrefixAssignment:
        """Return (allocating if needed) the /16 owned by *asn* in *region*."""

        key = (asn, region.country, region.region)
        existing = self._assignments.get(key)
        if existing is not None:
            return existing
        record = ASN_REGISTRY.get(asn)
        if record is None:
            raise KeyError(f"ASN {asn} is not in the registry")
        index, count = self._partition
        ordinal = self._allocated.get(record.kind, 0)
        # Skip over blocks already taken by adopted foreign assignments.
        while True:
            first_octet, second_octet = self._block_octets(record.kind, index + ordinal * count)
            ordinal += 1
            if (first_octet, second_octet) not in self._by_prefix:
                break
        self._allocated[record.kind] = ordinal
        assignment = PrefixAssignment(
            first_octet=first_octet,
            second_octet=second_octet,
            asn=asn,
            region=region,
        )
        self._assignments[key] = assignment
        self._by_prefix[(first_octet, second_octet)] = assignment
        return assignment

    def adopt(self, assignment: PrefixAssignment) -> None:
        """Import an assignment allocated by another (shard) space.

        Adopting the same assignment twice is a no-op; adopting a different
        assignment for an already-claimed prefix raises ``ValueError``.
        Several adopted prefixes may share one (ASN, region) pair — shards
        allocate independently, and real autonomous systems announce many
        prefixes per region — so lookups stay prefix-keyed while local
        allocation reuses the first block adopted for a pair.
        """

        key = (assignment.asn, assignment.region.country, assignment.region.region)
        prefix = (assignment.first_octet, assignment.second_octet)
        if self._by_prefix.get(prefix, assignment) != assignment:
            raise ValueError(
                f"prefix {prefix[0]}.{prefix[1]}.0.0/16 already assigned differently"
            )
        self._assignments.setdefault(key, assignment)
        self._by_prefix[prefix] = assignment

    def allocate(self, asn: int, region: GeoRegion, rng: np.random.Generator) -> str:
        """Allocate a random host address inside the (asn, region) block."""

        assignment = self.assignment_for(asn, region)
        third = int(rng.integers(0, 256))
        fourth = int(rng.integers(1, 255))
        return format_ipv4(assignment.first_octet, assignment.second_octet, third, fourth)

    def lookup_prefix(self, address: str) -> Optional[PrefixAssignment]:
        """Find the /16 assignment containing *address* (``None`` if outside)."""

        first, second, _third, _fourth = parse_ipv4(address)
        return self.prefix_assignment(first, second)

    def prefix_assignment(self, first: int, second: int) -> Optional[PrefixAssignment]:
        """The assignment of the /16 ``first.second.0.0`` (``None`` if unassigned)."""

        return self._by_prefix.get((first, second))
