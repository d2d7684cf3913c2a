"""Real-user traffic generator.

Section 7.4 evaluates FP-Inconsistent's false-positive behaviour on 2,206
requests from students who were given a dedicated honey-site URL.  This
module generates the equivalent traffic: each simulated user owns one real
device from the catalogue, keeps a stable, mutually consistent fingerprint,
connects from residential address space near the university, and retains
the first-party cookie across visits.

A small fraction of users run a User-Agent spoofer extension (the paper
attributes its handful of false positives to students experimenting with
exactly that), which rewrites the User-Agent while leaving every other
attribute untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.devices.catalog import DeviceCatalog
from repro.devices.profiles import DeviceProfile
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.useragent import build_user_agent
from repro.honeysite.site import HoneySite, SessionRecorder
from repro.honeysite.storage import SECONDS_PER_DAY
from repro.network.cookies import ClientCookieStore
from repro.seeding import derive_rng

#: Default source label under which real-user traffic is recorded.
REAL_USER_SOURCE = "real_users"

#: User-Agents installed by the "User-Agent switcher" extensions some
#: students experimented with: desktop users masquerading as other devices.
_SPOOFER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("iPhone", "iOS", "Mobile Safari"),
    ("iPad", "iOS", "Mobile Safari"),
    ("Windows PC", "Windows", "Chrome"),
    ("Mac", "Mac OS X", "Safari"),
)


@dataclass
class _User:
    profile: DeviceProfile
    fingerprint: Fingerprint
    cookies: ClientCookieStore
    ip_address: str
    ua_spoofer: bool


class RealUserTrafficGenerator:
    """Generates consistent human traffic toward a dedicated URL."""

    def __init__(
        self,
        site: HoneySite,
        *,
        catalog: Optional[DeviceCatalog] = None,
        rng=None,
        home_country: str = "United States of America",
        home_region: str = "California",
        home_timezone: str = "America/Los_Angeles",
        ua_spoofer_rate: float = 0.03,
    ):
        if not 0.0 <= ua_spoofer_rate <= 1.0:
            raise ValueError("ua_spoofer_rate must be within [0, 1]")
        self._site = site
        self._catalog = catalog if catalog is not None else DeviceCatalog()
        self._rng = derive_rng(rng if rng is not None else 0)
        self._home_country = home_country
        self._home_region = home_region
        self._home_timezone = home_timezone
        self._ua_spoofer_rate = ua_spoofer_rate

    def _make_user(self, rng: np.random.Generator) -> _User:
        profile, fingerprint = self._catalog.sample_fingerprint(rng, timezone=self._home_timezone)
        ip_address = self._site.geo.allocate_address(
            rng,
            country=self._home_country,
            datacenter=False,
            region_name=self._home_region,
        )
        ua_spoofer = rng.random() < self._ua_spoofer_rate
        if ua_spoofer:
            target_device, target_os, target_browser = _SPOOFER_TARGETS[
                int(rng.integers(len(_SPOOFER_TARGETS)))
            ]
            fingerprint = fingerprint.replace(
                user_agent=build_user_agent(target_device, target_os, target_browser),
                ua_device=target_device,
                ua_os=target_os,
                ua_browser=target_browser,
            )
        return _User(
            profile=profile,
            fingerprint=fingerprint,
            cookies=ClientCookieStore(retention=1.0, rng=np.random.default_rng(rng.integers(0, 2 ** 32))),
            ip_address=ip_address,
            ua_spoofer=ua_spoofer,
        )

    def run_vectorized(
        self,
        *,
        num_requests: int = 2206,
        num_users: int = 350,
        campaign_days: int = 30,
        source: str = REAL_USER_SOURCE,
        recorder: Optional[SessionRecorder] = None,
    ) -> int:
        """Generate and record *num_requests* real-user requests.

        Byte-identical to the request-by-request reference ``run``
        (``tests/reference/generation.py``); returns the number of
        requests recorded.

        Users keep one configuration for the whole campaign, so every
        per-request quantity is materialised once per user; the user picks
        — the only per-request draws on the generator stream — are taken as
        one batched ``integers`` call, which consumes the bit stream
        exactly like the reference loop's scalar draws.  The per-user private
        cookie streams (retention 1.0) never influence any output and are
        skipped: a user presents no cookie on the first visit and the
        retained server cookie afterwards.
        """

        if num_requests < 1 or num_users < 1:
            raise ValueError("num_requests and num_users must be positive")
        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(source)
        users = [self._make_user(rng) for _ in range(num_users)]
        if recorder is None:
            recorder = SessionRecorder(self._site)

        timestamps = np.sort(rng.random(num_requests)) * campaign_days * SECONDS_PER_DAY
        picks = rng.integers(0, len(users), size=num_requests)
        materials: list = [None] * len(users)
        cookies: list = [None] * len(users)
        emit = recorder.emit

        recorded = 0
        for timestamp, pick in zip(timestamps, picks):
            index = int(pick)
            material = materials[index]
            if material is None:
                user = users[index]
                material = recorder.materialize(user.fingerprint, user.ip_address)
                materials[index] = material
            cookies[index] = emit(
                material,
                url_path=url_path,
                source=source,
                timestamp=float(timestamp),
                presented_cookie=cookies[index],
            )
            recorded += 1
        return recorded
