"""Bot traffic engine.

Drives requests from a :class:`~repro.bots.service.BotServiceProfile` to a
:class:`~repro.honeysite.HoneySite`, reproducing the campaign structure of
the paper: a fixed pool of automation workers per service, requests spread
over a three-month campaign with volume spikes at purchase renewals
(Figure 9), session-based fingerprint alteration, proxy IP selection and
cookie (non-)retention.

The worker model is session based.  A worker keeps one altered
configuration (fingerprint + proxy address) for a stretch of requests and
re-rolls it with probability ``session_reset_rate`` before a request.
Whether the honey-site cookie survives a re-roll is governed by
``cookie_retention``; a retained cookie paired with a re-rolled
configuration is exactly what produces the temporal inconsistencies of
Section 6.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bots.service import BotDEvasionFlavor, BotServiceProfile
from repro.bots.strategies import (
    base_bot_values,
    consistent_device_spoof_changes,
    device_spoof_changes,
    low_concurrency_changes,
    memory_rotation_changes,
    platform_rotation_changes,
    plugin_injection_changes,
    server_concurrency_changes,
    touch_spoof_changes,
)
from repro.fingerprint.attributes import Attribute
from repro.geo.timezones import ADVERTISED_REGIONS, COUNTRY_TIMEZONES
from repro.honeysite.site import HoneySite, SessionMaterial, SessionRecorder
from repro.honeysite.storage import SECONDS_PER_DAY
from repro.seeding import derive_rng

#: Country mix used when a service makes no geographic promise.  Weighted
#: toward the United States, where most commodity bot infrastructure sits.
DEFAULT_COUNTRY_MIX: Tuple[Tuple[str, float], ...] = (
    ("United States of America", 0.48),
    ("Germany", 0.10),
    ("France", 0.06),
    ("United Kingdom", 0.06),
    ("Canada", 0.05),
    ("Netherlands", 0.05),
    ("China", 0.05),
    ("India", 0.05),
    ("Russia", 0.04),
    ("Brazil", 0.03),
    ("Singapore", 0.03),
)

#: Default campaign length in days (September–November in the paper).
DEFAULT_CAMPAIGN_DAYS = 90

#: Days on which the honey-site operators renewed their purchases; volume
#: spikes right after each renewal (Figure 9).
DEFAULT_RENEWAL_DAYS: Tuple[int, ...] = (0, 30, 60)

_BASE_TIMEZONE = "America/Los_Angeles"

_COUNTRY_MIX_NAMES: Tuple[str, ...] = tuple(name for name, _weight in DEFAULT_COUNTRY_MIX)
_COUNTRY_MIX_WEIGHTS: np.ndarray = np.array([weight for _name, weight in DEFAULT_COUNTRY_MIX])
_COUNTRY_MIX_WEIGHTS /= _COUNTRY_MIX_WEIGHTS.sum()

#: Normalised cumulative country-mix weights, replicating the
#: normalisation ``Generator.choice`` applies internally so the vectorized
#: planner's ``searchsorted`` draw is bit-identical to the reference
#: generator's ``rng.choice(..., p=_COUNTRY_MIX_WEIGHTS)`` call.
_COUNTRY_MIX_CDF: np.ndarray = _COUNTRY_MIX_WEIGHTS.cumsum()
_COUNTRY_MIX_CDF /= _COUNTRY_MIX_CDF[-1]

#: ``sorted(ADVERTISED_REGIONS[region])``, computed once per region instead
#: of once per session.
_SORTED_REGION_COUNTRIES: Dict[str, Tuple[str, ...]] = {
    region: tuple(sorted(countries)) for region, countries in ADVERTISED_REGIONS.items()
}


class BotTrafficGenerator:
    """Generates and submits bot traffic for one or more services.

    ``rng`` accepts a ``numpy.random.Generator``, a plain seed or a
    ``SeedSequence`` (the sharded engine passes spawned sequences).
    """

    def __init__(self, site: HoneySite, rng=None):
        self._site = site
        self._rng = derive_rng(rng if rng is not None else 0)

    # -- campaign scheduling --------------------------------------------------

    def _daily_volumes(
        self,
        total: int,
        campaign_days: int,
        renewal_days: Sequence[int],
        jitter: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Split *total* requests over the campaign with renewal spikes."""

        days = np.arange(campaign_days, dtype=float)
        weights = np.full(campaign_days, 0.25, dtype=float)
        for renewal in renewal_days:
            delta = days - float(renewal)
            mask = delta >= 0
            weights[mask] += np.exp(-delta[mask] / 9.0)
        weights *= 1.0 + jitter * rng.random(campaign_days)
        weights /= weights.sum()
        return rng.multinomial(total, weights)

    # -- vectorized engine --------------------------------------------------------

    def run_service_vectorized(
        self,
        profile: BotServiceProfile,
        *,
        scale: float = 1.0,
        campaign_days: int = DEFAULT_CAMPAIGN_DAYS,
        renewal_days: Sequence[int] = DEFAULT_RENEWAL_DAYS,
        total_requests: Optional[int] = None,
        recorder: Optional[SessionRecorder] = None,
    ) -> int:
        """Generate and record the whole campaign of *profile*.

        Byte-identical to the request-by-request reference ``run_service``
        (``tests/reference/generation.py``).  *total_requests* overrides
        the profile's scaled volume (the corpus engine's sub-shards each
        generate one slice of a big service); returns the number of
        requests recorded.

        The campaign's randomness is drawn from the exact stream positions
        the reference loop consumes — batched where the reference already
        batches (daily volumes, intra-day offsets) and through cheap
        stream-identical draws where requests interleave with session
        resets on one generator (worker picks and reset checks cannot be
        batched without changing the stream).  Everything *else* is hoisted
        out of the per-request loop: fingerprint assembly works on plain
        coerced dicts, and enrichment, headers and detector decisions are
        materialised once per session through a
        :class:`~repro.honeysite.site.SessionRecorder`.
        """

        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(profile.name)
        total = profile.scaled_requests(scale) if total_requests is None else int(total_requests)
        volumes = self._daily_volumes(
            total, campaign_days, renewal_days, profile.requests_per_day_jitter, rng
        )
        if recorder is None:
            recorder = SessionRecorder(self._site)

        n_workers = profile.num_workers
        materials: List[Optional[SessionMaterial]] = [None] * n_workers
        cookies: List[Optional[str]] = [None] * n_workers
        reset_rate = profile.session_reset_rate
        emit = recorder.emit
        source = profile.name

        recorded = 0
        for day, day_volume in enumerate(volumes):
            if day_volume == 0:
                continue
            offsets = np.sort(rng.random(int(day_volume))) * SECONDS_PER_DAY
            base_timestamp = day * SECONDS_PER_DAY
            for offset in offsets:
                index = int(rng.integers(n_workers))
                material = materials[index]
                if material is None or rng.random() < reset_rate:
                    material, cleared = self._plan_session(
                        profile, rng, recorder, has_cookie=cookies[index] is not None
                    )
                    materials[index] = material
                    if cleared:
                        cookies[index] = None
                cookies[index] = emit(
                    material,
                    url_path=url_path,
                    source=source,
                    timestamp=base_timestamp + float(offset),
                    presented_cookie=cookies[index],
                )
                recorded += 1
        return recorded

    def _plan_session(
        self,
        profile: BotServiceProfile,
        rng: np.random.Generator,
        recorder: SessionRecorder,
        *,
        has_cookie: bool,
    ) -> Tuple[SessionMaterial, bool]:
        """Re-roll a worker's session: the reference draws, dict-based assembly.

        Returns the materialised session plus whether the retained cookie
        was cleared (the reference draws the retention check only when a
        cookie is actually held, which is equivalent to the worker having
        recorded at least one request).
        """

        values, use_datacenter = self._plan_fingerprint(profile, rng)
        country = self._plan_country(profile, rng)
        timezone = self._plan_timezone(profile, country, rng)
        values[Attribute.TIMEZONE] = str(timezone)
        ip_address = self._site.geo.allocate_address(
            rng, country=country, datacenter=use_datacenter
        )
        cleared = bool(has_cookie and rng.random() > profile.cookie_retention)
        return recorder.materialize_values(values, ip_address), cleared

    def _plan_fingerprint(
        self, profile: BotServiceProfile, rng: np.random.Generator
    ) -> Tuple[Dict[Attribute, object], bool]:
        """Build one altered fingerprint as a canonical attribute dict, plus
        ``use_datacenter`` (the reference ``_build_fingerprint`` stream)."""

        values = base_bot_values(rng)

        evade_datadome = rng.random() < profile.datadome_evasion_target
        if evade_datadome:
            _apply_changes(values, low_concurrency_changes(rng))
            use_datacenter = rng.random() < profile.datacenter_fraction
        else:
            use_datacenter = True
            if rng.random() < profile.forced_colors_rate:
                _apply_changes(values, low_concurrency_changes(rng))
                values[Attribute.FORCED_COLORS] = True
            else:
                _apply_changes(values, server_concurrency_changes(rng))

        if rng.random() < profile.botd_evasion_target:
            flavor = profile.botd_flavor
            if flavor is BotDEvasionFlavor.MIXED:
                flavor = (
                    BotDEvasionFlavor.PLUGINS if rng.random() < 0.7 else BotDEvasionFlavor.TOUCH
                )
            if flavor is BotDEvasionFlavor.PLUGINS:
                _apply_changes(values, plugin_injection_changes(rng))
            else:
                _apply_changes(values, touch_spoof_changes(rng, consistency=profile.consistency))

        if rng.random() < profile.device_spoof_rate:
            if rng.random() < profile.full_consistency:
                has_touch = str(values.get(Attribute.TOUCH_SUPPORT)) not in ("", "None")
                _apply_changes(values, consistent_device_spoof_changes(rng, has_touch=has_touch))
            else:
                _apply_changes(values, device_spoof_changes(rng, consistency=profile.consistency))

        if rng.random() < profile.platform_rotation_rate:
            _apply_changes(values, platform_rotation_changes(rng))
        if rng.random() < profile.memory_rotation_rate:
            _apply_changes(values, memory_rotation_changes(rng))
        if rng.random() < profile.webdriver_leak_rate:
            values[Attribute.WEBDRIVER] = True

        return values, use_datacenter

    def _plan_country(self, profile: BotServiceProfile, rng: np.random.Generator) -> str:
        """Pick the country the session's proxy address will sit in."""

        if profile.advertised_region is not None:
            region_countries = _SORTED_REGION_COUNTRIES[profile.advertised_region]
            if rng.random() < profile.ip_region_match_rate:
                return region_countries[int(rng.integers(len(region_countries)))]
        return _COUNTRY_MIX_NAMES[int(_COUNTRY_MIX_CDF.searchsorted(rng.random(), side="right"))]

    def _plan_timezone(
        self, profile: BotServiceProfile, ip_country: str, rng: np.random.Generator
    ) -> str:
        """Pick the browser timezone the session reports."""

        if profile.advertised_region is not None:
            if rng.random() < profile.timezone_region_match_rate:
                region_countries = _SORTED_REGION_COUNTRIES[profile.advertised_region]
                country = region_countries[int(rng.integers(len(region_countries)))]
                zones = COUNTRY_TIMEZONES.get(country, (_BASE_TIMEZONE,))
                return zones[int(rng.integers(len(zones)))]
            return _BASE_TIMEZONE
        if rng.random() < 0.5:
            zones = COUNTRY_TIMEZONES.get(ip_country, (_BASE_TIMEZONE,))
            return zones[int(rng.integers(len(zones)))]
        return _BASE_TIMEZONE

_ATTRIBUTE_BY_KEY: Dict[str, Attribute] = {attribute.value: attribute for attribute in Attribute}


def _apply_changes(values: Dict[Attribute, object], changes: Dict[str, object]) -> None:
    """Apply a strategy changes dict exactly like ``Fingerprint.replace``.

    Same key order — existing keys keep their dict position, new keys
    append — so the final dict is indistinguishable from the reference
    generator's replace() chain.  Coercion is skipped: the strategy changes
    functions emit canonical values by construction (explicit ``int`` /
    ``float`` / ``str`` conversions and integer tuples), which replace()'s
    coercion maps to themselves; ``tests/test_vectorized.py`` pins the
    resulting byte equality against the replace() chain.
    """

    for key, value in changes.items():
        values[_ATTRIBUTE_BY_KEY[key]] = value
