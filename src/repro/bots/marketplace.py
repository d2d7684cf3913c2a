"""The 20 bot services measured in the paper (Table 1).

Each profile's request volume and detector-evasion targets are the values
measured on the honey site between September and November 2023 (Table 1).
The remaining knobs (strategy flavour, proxy mix, consistency, advertised
region) are set from the qualitative findings of Sections 5.3 and 6:

* S15, S18 and S19 achieved 100% BotD evasion through PDF plugins
  (Section 5.3.1);
* S14 and S20 evaded both services by combining touch spoofing with a low
  ``hardwareConcurrency`` (Section 5.3.3);
* S8, S9 and S17 had the highest DataDome evasion (low core counts);
* S7, S11 and S16 were almost always caught by DataDome;
* four services advertised traffic from the United States, Canada, Europe
  and France respectively (Section 6.2), with the measured IP-vs-timezone
  match rates.
"""

from __future__ import annotations

from typing import Tuple

from repro.bots.service import BotDEvasionFlavor, BotServiceProfile

_PLUGINS = BotDEvasionFlavor.PLUGINS
_TOUCH = BotDEvasionFlavor.TOUCH
_MIXED = BotDEvasionFlavor.MIXED


def _workers(num_requests: int) -> int:
    return max(5, num_requests // 2500)


def build_marketplace() -> Tuple[BotServiceProfile, ...]:
    """Build the 20 calibrated bot-service profiles of Table 1."""

    services = (
        BotServiceProfile(
            name="S1", num_requests=121500,
            datadome_evasion_target=0.4401, botd_evasion_target=0.7158,
            botd_flavor=_MIXED, num_workers=_workers(121500),
            device_spoof_rate=0.6, consistency=0.15,
            cookie_retention=0.22,
        ),
        BotServiceProfile(
            name="S2", num_requests=63708,
            datadome_evasion_target=0.4299, botd_evasion_target=0.7229,
            botd_flavor=_MIXED, num_workers=_workers(63708),
            device_spoof_rate=0.6, consistency=0.15,
        ),
        BotServiceProfile(
            name="S3", num_requests=54746,
            datadome_evasion_target=0.7491, botd_evasion_target=0.1026,
            botd_flavor=_PLUGINS, num_workers=_workers(54746),
            device_spoof_rate=0.5, consistency=0.2,
        ),
        BotServiceProfile(
            name="S4", num_requests=47278,
            datadome_evasion_target=0.3865, botd_evasion_target=0.7385,
            botd_flavor=_MIXED, num_workers=_workers(47278),
            device_spoof_rate=0.55, consistency=0.15,
            advertised_region="United States",
            ip_region_match_rate=0.93, timezone_region_match_rate=0.9,
        ),
        BotServiceProfile(
            name="S5", num_requests=40087,
            datadome_evasion_target=0.2386, botd_evasion_target=0.7265,
            botd_flavor=_MIXED, num_workers=_workers(40087),
            device_spoof_rate=0.5, consistency=0.2,
            advertised_region="Canada",
            ip_region_match_rate=0.9244, timezone_region_match_rate=0.7652,
        ),
        BotServiceProfile(
            name="S6", num_requests=32447,
            datadome_evasion_target=0.7181, botd_evasion_target=0.0545,
            botd_flavor=_PLUGINS, num_workers=_workers(32447),
            device_spoof_rate=0.45, consistency=0.25,
        ),
        BotServiceProfile(
            name="S7", num_requests=28940,
            datadome_evasion_target=0.0256, botd_evasion_target=0.3999,
            botd_flavor=_MIXED, num_workers=_workers(28940),
            device_spoof_rate=0.4, consistency=0.2, forced_colors_rate=0.4,
        ),
        BotServiceProfile(
            name="S8", num_requests=26335,
            datadome_evasion_target=0.8043, botd_evasion_target=0.289,
            botd_flavor=_PLUGINS, num_workers=_workers(26335),
            device_spoof_rate=0.65, consistency=0.12,
        ),
        BotServiceProfile(
            name="S9", num_requests=23412,
            datadome_evasion_target=0.7829, botd_evasion_target=0.1933,
            botd_flavor=_PLUGINS, num_workers=_workers(23412),
            device_spoof_rate=0.65, consistency=0.12,
        ),
        BotServiceProfile(
            name="S10", num_requests=18967,
            datadome_evasion_target=0.1577, botd_evasion_target=0.5923,
            botd_flavor=_MIXED, num_workers=_workers(18967),
            device_spoof_rate=0.5, consistency=0.18,
            advertised_region="Europe",
            ip_region_match_rate=0.9983, timezone_region_match_rate=0.56,
        ),
        BotServiceProfile(
            name="S11", num_requests=17996,
            datadome_evasion_target=0.0655, botd_evasion_target=0.5936,
            botd_flavor=_MIXED, num_workers=_workers(17996),
            device_spoof_rate=0.45, consistency=0.2, forced_colors_rate=0.35,
        ),
        BotServiceProfile(
            name="S12", num_requests=7010,
            datadome_evasion_target=0.0505, botd_evasion_target=0.5144,
            botd_flavor=_MIXED, num_workers=_workers(7010),
            device_spoof_rate=0.45, consistency=0.2, forced_colors_rate=0.35,
            advertised_region="France",
            ip_region_match_rate=0.95, timezone_region_match_rate=0.72,
        ),
        BotServiceProfile(
            name="S13", num_requests=5119,
            datadome_evasion_target=0.0695, botd_evasion_target=0.5052,
            botd_flavor=_MIXED, num_workers=_workers(5119),
            device_spoof_rate=0.45, consistency=0.2, forced_colors_rate=0.3,
        ),
        BotServiceProfile(
            name="S14", num_requests=4920,
            datadome_evasion_target=0.8374, botd_evasion_target=0.9008,
            botd_flavor=_TOUCH, num_workers=_workers(4920),
            device_spoof_rate=0.75, consistency=0.1,
        ),
        BotServiceProfile(
            name="S15", num_requests=4219,
            datadome_evasion_target=0.1114, botd_evasion_target=1.0,
            botd_flavor=_PLUGINS, num_workers=_workers(4219),
            device_spoof_rate=0.5, consistency=0.15,
        ),
        BotServiceProfile(
            name="S16", num_requests=4174,
            datadome_evasion_target=0.0448, botd_evasion_target=0.0002,
            botd_flavor=_MIXED, num_workers=_workers(4174),
            device_spoof_rate=0.25, consistency=0.3, forced_colors_rate=0.4,
        ),
        BotServiceProfile(
            name="S17", num_requests=2999,
            datadome_evasion_target=0.7466, botd_evasion_target=0.079,
            botd_flavor=_PLUGINS, num_workers=_workers(2999),
            device_spoof_rate=0.6, consistency=0.15,
        ),
        BotServiceProfile(
            name="S18", num_requests=1430,
            datadome_evasion_target=0.207, botd_evasion_target=1.0,
            botd_flavor=_PLUGINS, num_workers=_workers(1430),
            device_spoof_rate=0.5, consistency=0.15,
        ),
        BotServiceProfile(
            name="S19", num_requests=1411,
            datadome_evasion_target=0.0992, botd_evasion_target=1.0,
            botd_flavor=_PLUGINS, num_workers=_workers(1411),
            device_spoof_rate=0.5, consistency=0.15,
        ),
        BotServiceProfile(
            name="S20", num_requests=382,
            datadome_evasion_target=0.9712, botd_evasion_target=0.9712,
            botd_flavor=_TOUCH, num_workers=_workers(382),
            device_spoof_rate=0.75, consistency=0.1,
        ),
    )
    return services


#: Total request volume of the full-scale corpus (matches the paper).
TOTAL_REQUESTS = sum(profile.num_requests for profile in build_marketplace())
