"""Unit tests for the geo substrate (ASNs, IP space, lookups, timezones)."""

import numpy as np
import pytest

from repro.geo.asn import (
    ASN_REGISTRY,
    AsnBlocklist,
    AsnKind,
    BLOCKED_ASNS,
    IpBlocklist,
    TOR_EXIT_ASNS,
    datacenter_asns,
    is_datacenter_asn,
    residential_asns,
)
from repro.geo.geolite import build_ip_blocklist
from repro.geo.ipaddr import (
    IpAddressSpace,
    format_ipv4,
    parse_ipv4,
    parse_ipv4_octets,
    regions_of_country,
)
from repro.geo.timezones import (
    ADVERTISED_REGIONS,
    country_matches_region,
    country_of_timezone,
    offset_matches_region,
    offsets_of_country,
    offsets_of_region,
    offsets_overlap,
    timezone_matches_region,
    utc_offsets_of,
)


# -- ASN registry -----------------------------------------------------------


def test_blocked_asns_are_exactly_datacenter_asns():
    for number in BLOCKED_ASNS:
        assert ASN_REGISTRY[number].is_datacenter
    for number, record in ASN_REGISTRY.items():
        if record.is_datacenter:
            assert number in BLOCKED_ASNS


def test_is_datacenter_asn():
    assert is_datacenter_asn(16509)      # AWS
    assert not is_datacenter_asn(7922)   # Comcast
    assert not is_datacenter_asn(999999)  # unknown


def test_residential_and_datacenter_filters():
    assert 7922 in residential_asns("United States of America")
    assert 16509 in datacenter_asns("United States of America")
    assert 16509 not in residential_asns()


def test_tor_exit_asns_registered_as_hosting():
    for asn in TOR_EXIT_ASNS:
        assert ASN_REGISTRY[asn].kind is AsnKind.HOSTING_PROVIDER


def test_asn_blocklist_membership():
    blocklist = AsnBlocklist()
    assert blocklist.is_blocked(16509)
    assert not blocklist.is_blocked(7922)
    assert not blocklist.is_blocked(None)
    assert 16509 in blocklist


def test_ip_blocklist_coverage():
    blocklist = IpBlocklist(["1.2.3.4"])
    blocklist.add("5.6.7.8")
    assert blocklist.is_blocked("1.2.3.4")
    assert not blocklist.is_blocked("9.9.9.9")
    assert blocklist.coverage(["1.2.3.4", "9.9.9.9"]) == pytest.approx(0.5)
    assert IpBlocklist().coverage([]) == 0.0


# -- IPv4 helpers -----------------------------------------------------------


def test_ipv4_format_parse_round_trip():
    assert parse_ipv4(format_ipv4(100, 2, 3, 4)) == (100, 2, 3, 4)


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "1.2.3.999", "a.b.c.d"])
def test_ipv4_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_ipv4(bad)


MALFORMED = [
    "1.2.3", "1.2.3.256", "a.b.c.d", "1.2.3.4.5", "1..2.3", "1.2.3.4\x00", "", "1.2.3.4567890123456",
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_ipv4_batch_parse_raises_like_parse_ipv4(bad):
    with pytest.raises(ValueError):
        parse_ipv4(bad)
    with pytest.raises(ValueError):
        parse_ipv4_octets(["10.0.0.1", bad])


def test_ipv4_batch_parse_matches_parse_ipv4():
    # Plain quads take the vectorised path; the odd spellings ``int``
    # accepts (space, sign, leading zeros, non-ASCII digits) the fallback.
    addresses = [
        "0.0.0.0", "255.255.255.255", "100.7.42.9", "001.02.3.4", "0001.2.3.4",
        " 1.2.3.4", "+1.2.3.4", "\u0661.2.3.4", "34.200.1.254",
    ]
    octets = parse_ipv4_octets(addresses)
    assert octets.dtype == np.int64 and octets.shape == (len(addresses), 4)
    assert [tuple(row) for row in octets.tolist()] == [parse_ipv4(a) for a in addresses]
    assert parse_ipv4_octets([]).shape == (0, 4)


def test_geo_database_asns_of_matches_asn_of(geo, rng):
    addresses = [
        geo.allocate_address(rng, country=country, datacenter=datacenter)
        for country in ("France", "Canada", "Japan")
        for datacenter in (False, True)
        for _ in range(3)
    ] + ["9.9.9.9", "250.1.2.3"]
    expected = [geo.asn_of(address) for address in addresses]
    assert expected[-2:] == [None, None]
    assert geo.asns_of(addresses).tolist() == [-1 if asn is None else asn for asn in expected]
    assert geo.asns_of([]).size == 0
    with pytest.raises(ValueError):
        geo.asns_of(addresses + ["1.2.3"])


def test_regions_of_country():
    regions = regions_of_country("France")
    assert any(region.region == "Hauts-de-France" for region in regions)
    assert regions_of_country("Atlantis") == ()


# -- address space ------------------------------------------------------------


def test_address_space_assigns_disjoint_prefixes(rng):
    space = IpAddressSpace()
    regions = regions_of_country("United States of America")
    first = space.assignment_for(7922, regions[0])
    second = space.assignment_for(16509, regions[0])
    assert (first.first_octet, first.second_octet) != (second.first_octet, second.second_octet)
    # Residential and cloud ASNs live in different first octets.
    assert first.first_octet != second.first_octet


def test_address_space_allocation_within_prefix(rng):
    space = IpAddressSpace()
    region = regions_of_country("Germany")[0]
    address = space.allocate(24940, region, rng)
    assignment = space.lookup_prefix(address)
    assert assignment is not None
    assert assignment.asn == 24940
    assert assignment.region.country == "Germany"


def test_address_space_reuses_assignment(rng):
    space = IpAddressSpace()
    region = regions_of_country("France")[0]
    assert space.assignment_for(3215, region) is space.assignment_for(3215, region)


def test_address_space_unknown_asn(rng):
    space = IpAddressSpace()
    region = regions_of_country("France")[0]
    with pytest.raises(KeyError):
        space.assignment_for(424242, region)


# -- GeoDatabase ------------------------------------------------------------------


def test_geo_database_residential_lookup(geo, rng):
    address = geo.allocate_address(rng, country="France", datacenter=False)
    record = geo.lookup(address)
    assert record is not None
    assert record.country == "France"
    assert not record.is_datacenter
    assert record.timezone == "Europe/Paris"
    assert record.region in {region.region for region in regions_of_country("France")}


def test_geo_database_datacenter_lookup(geo, rng):
    address = geo.allocate_address(rng, country="United States of America", datacenter=True)
    record = geo.lookup(address)
    assert record is not None
    assert record.is_datacenter
    assert record.asn in BLOCKED_ASNS


def test_geo_database_datacenter_excludes_tor_exits(geo, rng):
    for _ in range(60):
        address = geo.allocate_address(rng, country="United States of America", datacenter=True)
        assert geo.asn_of(address) not in TOR_EXIT_ASNS


def test_geo_database_unknown_address(geo):
    assert geo.lookup("203.0.113.7") is None
    assert geo.asn_of("203.0.113.7") is None


def test_geo_database_region_pinning(geo, rng):
    address = geo.allocate_address(
        rng, country="United States of America", datacenter=False, region_name="California"
    )
    assert geo.lookup(address).region == "California"


def consistent_with_timezone(geo, address, browser_timezone):
    """Whether a browser timezone can coexist with the address's country,
    by the paper's conservative UTC-offset overlap test (``None`` when
    either side is unknown)."""

    record = geo.lookup(address)
    if record is None:
        return None
    try:
        browser_offsets = set(utc_offsets_of(browser_timezone))
    except KeyError:
        return None
    country_offsets = offsets_of_country(record.country)
    return bool(browser_offsets & country_offsets) if country_offsets else None


def test_geo_timezone_consistency_check(geo, rng):
    address = geo.allocate_address(rng, country="France", datacenter=False)
    assert consistent_with_timezone(geo, address, "Europe/Paris") is True
    assert consistent_with_timezone(geo, address, "America/Los_Angeles") is False
    assert consistent_with_timezone(geo, address, "Mars/Olympus") is None
    assert consistent_with_timezone(geo, "203.0.113.7", "Europe/Paris") is None


def test_build_ip_blocklist_coverage(geo, rng):
    addresses = [
        geo.allocate_address(rng, country="United States of America", datacenter=True)
        for _ in range(200)
    ]
    blocklist = build_ip_blocklist(addresses, rng, coverage=0.25)
    observed = blocklist.coverage(set(addresses))
    assert 0.15 < observed < 0.35


def test_build_ip_blocklist_rejects_bad_coverage(rng):
    with pytest.raises(ValueError):
        build_ip_blocklist(["1.1.1.1"], rng, coverage=1.5)


# -- timezones ----------------------------------------------------------------------


def test_utc_offsets_of_known_zone():
    assert -480 in utc_offsets_of("America/Los_Angeles")
    assert utc_offsets_of("Asia/Shanghai") == (480,)


def test_country_of_timezone():
    assert country_of_timezone("Europe/Paris") == "France"
    assert country_of_timezone("Nowhere/Zone") is None


def test_offsets_of_region_and_country():
    assert 60 in offsets_of_region("France")
    assert offsets_of_country("France") == frozenset({60, 120})
    with pytest.raises(KeyError):
        offsets_of_region("Narnia")


def test_offset_matches_region_conservative_rule():
    # Europe/Berlin offsets overlap France (the paper's own example).
    assert timezone_matches_region("Europe/Berlin", "France")
    assert not timezone_matches_region("America/Los_Angeles", "France")
    assert offset_matches_region(60, "Europe")
    assert not offset_matches_region(-480, "Europe")


def test_country_matches_region():
    assert country_matches_region("Germany", "France")  # same UTC offsets
    assert not country_matches_region("China", "France")


def test_offsets_overlap():
    assert offsets_overlap("Europe/Paris", "Europe/Berlin")
    assert not offsets_overlap("Europe/Paris", "Asia/Shanghai")


def test_advertised_regions_cover_study_targets():
    for region in ("United States", "Canada", "Europe", "France"):
        assert region in ADVERTISED_REGIONS
