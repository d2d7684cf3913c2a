"""Object-at-a-time reference generators.

The sharded engine generates every corpus through the vectorized
generators (``run_service_vectorized``, ``run_vectorized``,
``run_technology_vectorized``), which sink rows straight into columnar
payloads.  The generators here are the original request-by-request
implementations: every request is a :class:`WebRequest` submitted to
:func:`handle`, which collects, cookies, evaluates and enriches it one at
a time.  They consume the random streams exactly like the vectorized
generators, so for any shard spec they produce the same records byte for
byte; :func:`reference_shard_store` runs one shard this way, and the
equivalence tests compare it with ``run_shard(spec).store()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.engine import ShardSpec, shard_site
from repro.bots.service import BotDEvasionFlavor, BotServiceProfile
from repro.bots.strategies import (
    apply_consistent_device_spoof,
    apply_device_spoof,
    apply_forced_colors,
    apply_low_concurrency,
    apply_memory_rotation,
    apply_platform_rotation,
    apply_plugin_injection,
    apply_server_concurrency,
    apply_timezone,
    apply_touch_spoof,
    apply_webdriver_leak,
    base_bot_fingerprint,
)
from repro.bots.traffic import (
    _BASE_TIMEZONE,
    _COUNTRY_MIX_NAMES,
    _COUNTRY_MIX_WEIGHTS,
    DEFAULT_CAMPAIGN_DAYS,
    DEFAULT_RENEWAL_DAYS,
    BotTrafficGenerator,
)
from repro.fingerprint.fingerprint import Fingerprint
from repro.geo.timezones import ADVERTISED_REGIONS, COUNTRY_TIMEZONES
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import SECONDS_PER_DAY
from repro.network.cookies import ClientCookieStore
from repro.network.headers import build_headers
from repro.network.request import WebRequest
from repro.users.privacy import (
    PrivacyTechnology,
    PrivacyTrafficGenerator,
    apply_brave,
    apply_fingerprint_spoofer,
    apply_tor,
)
from repro.users.realuser import REAL_USER_SOURCE, RealUserTrafficGenerator

from reference.collector import FingerprintCollector
from reference.store import RecordedRequest, RequestStore, records

_COLLECTOR = FingerprintCollector()


def handle(site: HoneySite, request: WebRequest) -> Optional[RecordedRequest]:
    """Process one incoming request on *site*.

    Returns the stored :class:`RecordedRequest`, or ``None`` when the
    request's URL path carries no known version string (such requests
    are dropped without recording, per Section 4.1).  The cookie the
    server set (new or echoed) is available on the returned record so
    the client model can persist it.  Records land in an object store
    attached to ``site.store`` on first use.
    """

    source = site.urls.source_of(request.url_path)
    if source is None:
        return None

    collected = _COLLECTOR.collect(request.fingerprint)
    cookie = site.cookies.ensure(request.cookie)
    datadome_decision = site.datadome.evaluate(request)
    botd_decision = site.botd.evaluate(request)

    # Enrich the stored fingerprint with the server-side IP intelligence
    # (country, region, ASN) the analyses of Sections 5.1 and 6.2 use.
    geo_record = site.geo.lookup(request.ip_address)
    stored_request = request
    if geo_record is not None:
        enriched = collected.fingerprint.replace(
            ip_country=geo_record.country,
            ip_region=geo_record.region,
            asn=geo_record.asn,
        )
        stored_request = replace(request, fingerprint=enriched)

    record = RecordedRequest(
        request=stored_request,
        source=source,
        cookie=cookie,
        datadome=datadome_decision,
        botd=botd_decision,
    )
    store = site.store
    if not isinstance(store, RequestStore):
        store = site.store = RequestStore()
    store.add(record)
    return record


@dataclass
class _Worker:
    """One automation worker of a bot service and its current session."""

    worker_id: int
    cookie: Optional[str] = None
    fingerprint: Optional[Fingerprint] = None
    ip_address: Optional[str] = None


class ReferenceBotTrafficGenerator(BotTrafficGenerator):
    """Bot traffic built request by request through :func:`handle`."""

    def _choose_country(
        self, profile: BotServiceProfile, rng: np.random.Generator
    ) -> str:
        """Pick the country the session's proxy address will sit in."""

        if profile.advertised_region is not None:
            region_countries = sorted(ADVERTISED_REGIONS[profile.advertised_region])
            if rng.random() < profile.ip_region_match_rate:
                return region_countries[int(rng.integers(len(region_countries)))]
        return _COUNTRY_MIX_NAMES[int(rng.choice(len(_COUNTRY_MIX_NAMES), p=_COUNTRY_MIX_WEIGHTS))]

    def _choose_timezone(
        self, profile: BotServiceProfile, ip_country: str, rng: np.random.Generator
    ) -> str:
        """Pick the browser timezone the session reports."""

        if profile.advertised_region is not None:
            if rng.random() < profile.timezone_region_match_rate:
                region_countries = sorted(ADVERTISED_REGIONS[profile.advertised_region])
                country = region_countries[int(rng.integers(len(region_countries)))]
                zones = COUNTRY_TIMEZONES.get(country, (_BASE_TIMEZONE,))
                return zones[int(rng.integers(len(zones)))]
            return _BASE_TIMEZONE
        # No geographic promise: half the sessions leave the server's zone
        # in place, the rest align the zone with the proxy's country.
        if rng.random() < 0.5:
            zones = COUNTRY_TIMEZONES.get(ip_country, (_BASE_TIMEZONE,))
            return zones[int(rng.integers(len(zones)))]
        return _BASE_TIMEZONE

    def _build_fingerprint(
        self, profile: BotServiceProfile, rng: np.random.Generator
    ) -> Tuple[Fingerprint, bool]:
        """Build one altered fingerprint; returns it plus ``use_datacenter``."""

        fingerprint = base_bot_fingerprint(rng)

        # DataDome branch: adopt (or not) the configuration that its model
        # does not flag — a consumer-grade core count (Figure 5).
        evade_datadome = rng.random() < profile.datadome_evasion_target
        if evade_datadome:
            fingerprint = apply_low_concurrency(fingerprint, rng)
            use_datacenter = rng.random() < profile.datacenter_fraction
        else:
            use_datacenter = True
            if rng.random() < profile.forced_colors_rate:
                # Detected regardless of core count: forced-colors mode is a
                # give-away (Section 5.3.2), so some detected requests still
                # report few cores, matching the CDF of Figure 5.
                fingerprint = apply_low_concurrency(fingerprint, rng)
                fingerprint = apply_forced_colors(fingerprint)
            else:
                fingerprint = apply_server_concurrency(fingerprint, rng)

        # BotD branch: hit one of its blind spots (plugins / touch).
        if rng.random() < profile.botd_evasion_target:
            flavor = profile.botd_flavor
            if flavor is BotDEvasionFlavor.MIXED:
                flavor = (
                    BotDEvasionFlavor.PLUGINS if rng.random() < 0.7 else BotDEvasionFlavor.TOUCH
                )
            if flavor is BotDEvasionFlavor.PLUGINS:
                fingerprint = apply_plugin_injection(fingerprint, rng)
            else:
                fingerprint = apply_touch_spoof(fingerprint, rng, consistency=profile.consistency)

        # Impersonate a popular consumer device (Figures 6 and 7).  Curated
        # profiles spoof consistently; the rest leave correlated attributes
        # only partially repaired (Section 6.1).
        if rng.random() < profile.device_spoof_rate:
            if rng.random() < profile.full_consistency:
                fingerprint = apply_consistent_device_spoof(fingerprint, rng)
            else:
                fingerprint = apply_device_spoof(fingerprint, rng, consistency=profile.consistency)

        # Attribute rotation across sessions (Figures 9 and 10).
        if rng.random() < profile.platform_rotation_rate:
            fingerprint = apply_platform_rotation(fingerprint, rng)
        if rng.random() < profile.memory_rotation_rate:
            fingerprint = apply_memory_rotation(fingerprint, rng)
        if rng.random() < profile.webdriver_leak_rate:
            fingerprint = apply_webdriver_leak(fingerprint)

        return fingerprint, use_datacenter

    def _reset_session(
        self, worker: _Worker, profile: BotServiceProfile, rng: np.random.Generator
    ) -> None:
        """Re-roll a worker's configuration (new session)."""

        fingerprint, use_datacenter = self._build_fingerprint(profile, rng)
        country = self._choose_country(profile, rng)
        timezone = self._choose_timezone(profile, country, rng)
        fingerprint = apply_timezone(fingerprint, timezone)
        worker.fingerprint = fingerprint
        worker.ip_address = self._site.geo.allocate_address(
            rng, country=country, datacenter=use_datacenter
        )
        if worker.cookie is not None and rng.random() > profile.cookie_retention:
            worker.cookie = None

    def run_service(
        self,
        profile: BotServiceProfile,
        *,
        scale: float = 1.0,
        campaign_days: int = DEFAULT_CAMPAIGN_DAYS,
        renewal_days: Sequence[int] = DEFAULT_RENEWAL_DAYS,
        total_requests: Optional[int] = None,
    ) -> int:
        """Generate and submit the whole campaign of *profile*.

        *total_requests* overrides the profile's scaled volume (the corpus
        engine's sub-shards each generate one slice of a big service).
        Returns the number of requests recorded by the honey site.
        """

        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(profile.name)
        total = profile.scaled_requests(scale) if total_requests is None else int(total_requests)
        volumes = self._daily_volumes(
            total, campaign_days, renewal_days, profile.requests_per_day_jitter, rng
        )
        workers = [_Worker(worker_id=index) for index in range(profile.num_workers)]

        recorded = 0
        for day, day_volume in enumerate(volumes):
            if day_volume == 0:
                continue
            offsets = np.sort(rng.random(int(day_volume))) * SECONDS_PER_DAY
            for offset in offsets:
                worker = workers[int(rng.integers(len(workers)))]
                if worker.fingerprint is None or rng.random() < profile.session_reset_rate:
                    self._reset_session(worker, profile, rng)
                request = WebRequest(
                    url_path=url_path,
                    timestamp=day * SECONDS_PER_DAY + float(offset),
                    ip_address=worker.ip_address,
                    fingerprint=worker.fingerprint,
                    cookie=worker.cookie,
                    headers=build_headers(worker.fingerprint),
                )
                record = handle(self._site, request)
                if record is not None:
                    worker.cookie = record.cookie
                    recorded += 1
        return recorded


class ReferenceRealUserTrafficGenerator(RealUserTrafficGenerator):
    """Real-user traffic built request by request through :func:`handle`."""

    def run(
        self,
        *,
        num_requests: int = 2206,
        num_users: int = 350,
        campaign_days: int = 30,
        source: str = REAL_USER_SOURCE,
    ) -> int:
        """Generate *num_requests* real-user requests.

        Returns the number of requests recorded by the honey site.
        """

        if num_requests < 1 or num_users < 1:
            raise ValueError("num_requests and num_users must be positive")
        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(source)
        users = [self._make_user(rng) for _ in range(num_users)]

        recorded = 0
        timestamps = np.sort(rng.random(num_requests)) * campaign_days * SECONDS_PER_DAY
        for timestamp in timestamps:
            user = users[int(rng.integers(len(users)))]
            request = WebRequest(
                url_path=url_path,
                timestamp=float(timestamp),
                ip_address=user.ip_address,
                fingerprint=user.fingerprint,
                cookie=user.cookies.outgoing(),
                headers=build_headers(user.fingerprint),
            )
            record = handle(self._site, request)
            if record is not None:
                user.cookies.receive(record.cookie)
                recorded += 1
        return recorded


class ReferencePrivacyTrafficGenerator(PrivacyTrafficGenerator):
    """Privacy-technology traffic built request by request through :func:`handle`."""

    def run_technology(
        self,
        technology: PrivacyTechnology,
        *,
        num_requests: int = 60,
        campaign_days: int = 5,
    ) -> int:
        """Send *num_requests* requests using *technology*.

        Requests rotate over the four experiment devices; each device keeps
        its cookies (as the paper notes, Brave retains cookies, which is
        what surfaces its temporal inconsistencies).
        """

        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(self.source_label(technology))
        profiles = self._device_profiles()
        cookie_stores = {
            profile.name: ClientCookieStore(
                retention=1.0, rng=np.random.default_rng(rng.integers(0, 2 ** 32))
            )
            for profile in profiles
        }
        home_ips = {
            profile.name: self._site.geo.allocate_address(
                rng, country=self._home_country, datacenter=False
            )
            for profile in profiles
        }

        recorded = 0
        timestamps = np.sort(rng.random(num_requests)) * campaign_days * SECONDS_PER_DAY
        for index, timestamp in enumerate(timestamps):
            profile = profiles[index % len(profiles)]
            fingerprint = profile.fingerprint(timezone=self._home_timezone)
            ip_address = home_ips[profile.name]

            if technology is PrivacyTechnology.BRAVE:
                fingerprint = apply_brave(fingerprint, rng)
            elif technology is PrivacyTechnology.TOR:
                fingerprint = apply_tor(fingerprint)
                ip_address = self._tor_exit_address(rng)
            elif technology is PrivacyTechnology.FINGERPRINT_SPOOFER:
                fingerprint = apply_fingerprint_spoofer(fingerprint, rng)
            # Safari / uBlock Origin / AdBlock Plus: no fingerprint changes.

            cookies = cookie_stores[profile.name]
            request = WebRequest(
                url_path=url_path,
                timestamp=float(timestamp),
                ip_address=ip_address,
                fingerprint=fingerprint,
                cookie=cookies.outgoing(),
                headers=build_headers(fingerprint),
            )
            record = handle(self._site, request)
            if record is not None:
                cookies.receive(record.cookie)
                recorded += 1
        return recorded


def reference_shard_store(spec: ShardSpec) -> RequestStore:
    """Run one shard through the reference generators.

    Same private site and generator seed as ``run_shard`` (see
    :func:`repro.analysis.engine.shard_site`); the records land in the
    site's object store.
    """

    site, generator_seed = shard_site(spec)
    if spec.kind == "bots":
        ReferenceBotTrafficGenerator(site, rng=generator_seed).run_service(
            spec.profile,
            scale=spec.scale,
            campaign_days=spec.campaign_days,
            total_requests=spec.request_budget,
        )
    elif spec.kind == "real_users":
        ReferenceRealUserTrafficGenerator(site, rng=generator_seed).run(
            num_requests=spec.num_requests, source=spec.source
        )
    else:
        ReferencePrivacyTrafficGenerator(site, rng=generator_seed).run_technology(
            spec.technology, num_requests=spec.num_requests
        )
    return site.store


def record_dicts(store, *, renumber: bool = True) -> List[dict]:
    """Every record's ``to_dict()``; request ids renumbered 1..n.

    The reference path draws request ids from a process-global counter,
    so shard-local ids depend on what ran earlier; renumbering in store
    order gives both sides of a comparison the same id sequence.
    """

    out = []
    for position, record in enumerate(records(store), start=1):
        data = record.to_dict()
        if renumber:
            data["request"]["request_id"] = position
        out.append(data)
    return out
