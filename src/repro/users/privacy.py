"""Privacy-enhancing technology models.

Section 7.5 evaluates FP-Inconsistent on traffic generated with five
privacy technologies (Safari, Brave, Tor Browser, uBlock Origin and
AdBlock Plus on Chrome) from four real devices.  Each technology model
takes the consistent fingerprint of a real device and applies the
alterations the technology actually performs:

* **Brave** randomises ``deviceMemory``, ``hardwareConcurrency``, canvas,
  audio, plugins and adds small screen-resolution noise — but keeps the
  values *plausible*, and keeps cookies, so repeated visits from the same
  device produce temporal (not spatial) inconsistencies.
* **Tor Browser** standardises the fingerprint (fixed letterboxed window,
  UTC timezone, 2 cores) and routes traffic through exit relays, so the
  browser timezone no longer matches the IP location.
* **Safari, uBlock Origin and AdBlock Plus** block trackers but do not
  alter fingerprint attributes.
* **Fingerprint Spoofer** (a Chrome extension mentioned in the paper)
  rewrites the User-Agent without touching correlated attributes.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.devices.catalog import DeviceCatalog
from repro.devices.profiles import DeviceProfile
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.useragent import build_user_agent
from repro.geo.asn import TOR_EXIT_ASNS
from repro.geo.ipaddr import regions_of_country
from repro.honeysite.site import HoneySite, SessionRecorder
from repro.honeysite.storage import SECONDS_PER_DAY
from repro.seeding import derive_rng


class PrivacyTechnology(str, enum.Enum):
    """The privacy technologies evaluated in Section 7.5."""

    SAFARI = "Safari"
    BRAVE = "Brave"
    TOR = "Tor"
    UBLOCK_ORIGIN = "uBlock Origin"
    ADBLOCK_PLUS = "AdBlock Plus"
    FINGERPRINT_SPOOFER = "Fingerprint Spoofer"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Plausible deviceMemory values Brave farbles desktop reports into.
_BRAVE_MEMORY_VALUES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)


def apply_brave(fingerprint: Fingerprint, rng: np.random.Generator) -> Fingerprint:
    """Apply Brave's per-session fingerprint farbling.

    Per the paper's observation, Brave "alters deviceMemory on desktops to
    plausible values"; on phones and tablets the reported memory is left
    alone.  Plugin *entries* are farbled rather than hidden, so the plugin
    surface (present on desktop, absent on mobile) stays intact.
    """

    base_cores = int(fingerprint.get(Attribute.HARDWARE_CONCURRENCY) or 4)
    farbled_cores = max(2, base_cores - int(rng.integers(0, 3)) * 2)
    resolution = fingerprint.get(Attribute.SCREEN_RESOLUTION) or (1920, 1080)
    farbled_resolution = (
        int(resolution[0]) - int(rng.integers(0, 9)),
        int(resolution[1]) - int(rng.integers(0, 9)),
    )
    changes = dict(
        hardware_concurrency=farbled_cores,
        screen_resolution=farbled_resolution,
        canvas=f"farbled-{int(rng.integers(1 << 30))}",
        audio=float(rng.random()),
    )
    is_mobile = int(fingerprint.get(Attribute.MAX_TOUCH_POINTS) or 0) > 0
    if not is_mobile:
        changes["device_memory"] = float(
            _BRAVE_MEMORY_VALUES[int(rng.integers(len(_BRAVE_MEMORY_VALUES)))]
        )
    return fingerprint.replace(**changes)


def apply_tor(fingerprint: Fingerprint) -> Fingerprint:
    """Apply Tor Browser's fingerprint standardisation.

    Tor Browser is Firefox ESR: like every modern Firefox it exposes the
    standard PDF-viewer plugin entries (which is also why BotD does not
    flag it — Appendix G).
    """

    return fingerprint.replace(
        user_agent=build_user_agent("Windows PC", "Windows", "Firefox"),
        ua_device="Windows PC",
        ua_os="Windows",
        ua_browser="Firefox",
        platform="Win32",
        vendor="",
        vendor_flavors=(),
        plugins=(
            "PDF Viewer",
            "Chrome PDF Viewer",
            "Chromium PDF Viewer",
            "Microsoft Edge PDF Viewer",
            "WebKit built-in PDF",
        ),
        hardware_concurrency=2,
        device_memory=8.0,
        screen_resolution=(1000, 1000),
        color_depth=24,
        max_touch_points=0,
        touch_support="None",
        timezone="UTC",
        languages=("en-US", "en"),
    )


def apply_fingerprint_spoofer(fingerprint: Fingerprint, rng: np.random.Generator) -> Fingerprint:
    """Rewrite the User-Agent only, as the Chrome extension does."""

    targets = (("iPhone", "iOS", "Mobile Safari"), ("Mac", "Mac OS X", "Safari"))
    device, os_family, browser = targets[int(rng.integers(len(targets)))]
    return fingerprint.replace(
        user_agent=build_user_agent(device, os_family, browser),
        ua_device=device,
        ua_os=os_family,
        ua_browser=browser,
    )


#: The four physical devices used for the Section 7.5 experiment.
EXPERIMENT_DEVICE_NAMES: Tuple[str, ...] = (
    "macbook-pro-chrome",   # M1 MacBook Pro
    "linux-desktop-chrome",  # Intel Coffee Lake desktop
    "ipad-pro-12",           # iPad Pro
    "pixel-7",               # Google Pixel 7
)


class PrivacyTrafficGenerator:
    """Generates traffic through each privacy technology (Section 7.5)."""

    def __init__(
        self,
        site: HoneySite,
        *,
        catalog: Optional[DeviceCatalog] = None,
        rng=None,
        home_country: str = "United States of America",
        home_timezone: str = "America/Los_Angeles",
    ):
        self._site = site
        self._catalog = catalog if catalog is not None else DeviceCatalog()
        self._rng = derive_rng(rng if rng is not None else 0)
        self._home_country = home_country
        self._home_timezone = home_timezone

    def source_label(self, technology: PrivacyTechnology) -> str:
        """Source label under which the technology's traffic is recorded."""

        return f"privacy:{technology.value}"

    def _device_profiles(self) -> List[DeviceProfile]:
        profiles = []
        for name in EXPERIMENT_DEVICE_NAMES:
            try:
                profiles.append(self._catalog.get(name))
            except KeyError:
                continue
        if not profiles:
            profiles = list(self._catalog.desktop_profiles()[:2] + self._catalog.mobile_profiles()[:2])
        return profiles

    def _tor_exit_address(self, rng: np.random.Generator) -> str:
        asn = sorted(TOR_EXIT_ASNS)[int(rng.integers(len(TOR_EXIT_ASNS)))]
        from repro.geo.asn import ASN_REGISTRY

        country = ASN_REGISTRY[asn].country
        regions = regions_of_country(country) or regions_of_country("United States of America")
        region = regions[int(rng.integers(len(regions)))]
        return self._site.geo.space.allocate(asn, region, rng)

    def run_technology_vectorized(
        self,
        technology: PrivacyTechnology,
        *,
        num_requests: int = 60,
        campaign_days: int = 5,
        recorder: Optional[SessionRecorder] = None,
    ) -> int:
        """Send and record *num_requests* requests using *technology*.

        Requests rotate over the four experiment devices; each device keeps
        its cookies (as the paper notes, Brave retains cookies, which is
        what surfaces its temporal inconsistencies).  Byte-identical to the
        request-by-request reference ``run_technology``
        (``tests/reference/generation.py``).

        The four experiment devices keep stable fingerprints and addresses,
        so for the non-farbling technologies (Safari, uBlock Origin,
        AdBlock Plus — and Tor's standardised fingerprint) the session
        material is built once per device; Brave and the spoofer extension
        re-roll attributes per request and run the full per-request path.
        Per-device private cookie streams (retention 1.0) never influence
        output and are skipped, but their seeding draws are preserved.
        """

        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self._rng.integers(0, 2 ** 32))
        url_path = self._site.register_source(self.source_label(technology))
        profiles = self._device_profiles()
        for _profile in profiles:
            # The reference seeds one private cookie-store generator per
            # device from the main stream; consume the identical draw.
            rng.integers(0, 2 ** 32)
        home_ips = {
            profile.name: self._site.geo.allocate_address(
                rng, country=self._home_country, datacenter=False
            )
            for profile in profiles
        }
        if recorder is None:
            recorder = SessionRecorder(self._site)
        source = self.source_label(technology)

        base_fingerprints = {
            profile.name: profile.fingerprint(timezone=self._home_timezone)
            for profile in profiles
        }
        static_materials: Dict[str, object] = {}
        if technology is PrivacyTechnology.TOR:
            tor_fingerprints = {
                name: apply_tor(fingerprint)
                for name, fingerprint in base_fingerprints.items()
            }
        elif technology not in (
            PrivacyTechnology.BRAVE,
            PrivacyTechnology.FINGERPRINT_SPOOFER,
        ):
            static_materials = {
                profile.name: recorder.materialize(
                    base_fingerprints[profile.name], home_ips[profile.name]
                )
                for profile in profiles
            }

        held_cookies: Dict[str, Optional[str]] = {profile.name: None for profile in profiles}
        recorded = 0
        timestamps = np.sort(rng.random(num_requests)) * campaign_days * SECONDS_PER_DAY
        for index, timestamp in enumerate(timestamps):
            profile = profiles[index % len(profiles)]
            name = profile.name
            if technology is PrivacyTechnology.BRAVE:
                fingerprint = apply_brave(base_fingerprints[name], rng)
                material = recorder.materialize(fingerprint, home_ips[name])
            elif technology is PrivacyTechnology.TOR:
                ip_address = self._tor_exit_address(rng)
                material = recorder.materialize(tor_fingerprints[name], ip_address)
            elif technology is PrivacyTechnology.FINGERPRINT_SPOOFER:
                fingerprint = apply_fingerprint_spoofer(base_fingerprints[name], rng)
                material = recorder.materialize(fingerprint, home_ips[name])
            else:
                material = static_materials[name]
            held_cookies[name] = recorder.emit(
                material,
                url_path=url_path,
                source=source,
                timestamp=float(timestamp),
                presented_cookie=held_cookies[name],
            )
            recorded += 1
        return recorded
