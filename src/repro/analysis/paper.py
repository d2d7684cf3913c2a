"""The paper's reported numbers as one typed table.

``repro pipeline --json`` and ``repro report --json`` print a ``paper`` row
for each value the command reproduces (:func:`paper_rows`).  Known
divergences are in :data:`DEVIATIONS`; ``tests/test_paper_claims.py``
fails on any other difference beyond its ``allowed_delta`` (the key's
tolerance plus three binomial standard errors).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple

from repro.bots.marketplace import build_marketplace


class PaperValue(NamedTuple):
    """One number the paper reports, as a fraction (0.5544 for 55.44 %)."""

    key: str
    section: str
    value: float


class Measurement(NamedTuple):
    """A reproduced rate and the number of requests it is measured over."""

    value: float
    requests: int


class Deviation(NamedTuple):
    """A known difference from the paper: how far it may go, and why."""

    tolerance: float
    reason: str


_TABLE4_SETTINGS = ("baseline", "with_spatial", "with_temporal", "with_combined")

PAPER_VALUES = (
    PaperValue("table1.DataDome.detection", "Table 1", 0.5544),
    PaperValue("table1.BotD.detection", "Table 1", 0.4707),
    # The marketplace profiles are calibrated to Table 1's per-service rates.
    *(
        PaperValue(f"table1.{profile.name}.{detector}_evasion", "Table 1", target)
        for profile in build_marketplace()
        for detector, target in (
            ("DataDome", profile.datadome_evasion_target),
            ("BotD", profile.botd_evasion_target),
        )
    ),
    PaperValue("blocklists.asn.flagged_share", "§5.1", 0.8254),
    PaperValue("blocklists.asn.DataDome_evasion", "§5.1", 0.5293),
    PaperValue("blocklists.asn.BotD_evasion", "§5.1", 0.4317),
    PaperValue("blocklists.ip.covered_share", "§5.1", 0.1586),
    PaperValue("blocklists.ip.DataDome_evasion", "§5.1", 0.481),
    PaperValue("blocklists.ip.BotD_evasion", "§5.1", 0.6885),
    PaperValue("table2.DataDome.accuracy", "Table 2", 0.8166),
    PaperValue("table2.BotD.accuracy", "Table 2", 0.9771),
    PaperValue("dual_evaders.DataDome_evasion", "§5.3.3", 0.847),
    PaperValue("dual_evaders.BotD_evasion", "§5.3.3", 0.9059),
    PaperValue("dual_evaders.low_cores_share", "§5.3.3", 0.8377),
    PaperValue("dual_evaders.no_plugins_share", "§5.3.3", 0.9302),
    PaperValue("dual_evaders.touch_support_share", "§5.3.3", 0.7836),
    # §6.2 quotes the match rates of two advertised regions, which the
    # advertising services' profiles carry.
    *(
        PaperValue(f"section62.{profile.advertised_region}.{match}", "§6.2", rate)
        for profile in build_marketplace()
        if profile.advertised_region in ("Canada", "Europe")
        for match, rate in (
            ("ip_match", profile.ip_region_match_rate),
            ("timezone_match", profile.timezone_region_match_rate),
        )
    ),
    *(
        PaperValue(f"table4.{detector}.{setting}", "Table 4", value)
        for detector, values in (
            ("DataDome", (0.5544, 0.7604, 0.5653, 0.7688)),
            ("BotD", (0.4707, 0.7033, 0.4809, 0.7086)),
        )
        for setting, value in zip(_TABLE4_SETTINGS, values)
    ),
    PaperValue("table4.DataDome.evasion_reduction", "§7.3", 0.4811),
    PaperValue("table4.BotD.evasion_reduction", "§7.3", 0.4495),
    PaperValue("generalization.DataDome.drop", "§7.3", 0.0023),
    PaperValue("generalization.BotD.drop", "§7.3", 0.0042),
    PaperValue("real_users.tnr", "§7.4", 0.9684),
    PaperValue("privacy.Tor.spatial", "§7.5", 1.0),
    PaperValue("privacy.Brave.spatial", "§7.5", 0.0),
    PaperValue("privacy.Safari.flagged", "§7.5", 0.0),
    PaperValue("privacy.uBlock Origin.flagged", "§7.5", 0.0),
    PaperValue("privacy.AdBlock Plus.flagged", "§7.5", 0.0),
)

PAPER: Dict[str, PaperValue] = {entry.key: entry for entry in PAPER_VALUES}

#: How far a reproduced value may sit from the paper's, beyond sampling noise.
TOLERANCE = 0.05

# Reasons quote the reproduction at scale 0.1, seed 7.
DEVIATIONS: Dict[str, Deviation] = {
    "table4.DataDome.evasion_reduction": Deviation(
        0.1, "Table 4's rates with rules sit 2-3 points high, so 53 % of evaders go, not 48.11 %"
    ),
    "table4.BotD.evasion_reduction": Deviation(
        0.15, "spatial rules catch more BotD evaders (74.1 % vs 70.33 %): 54 % go, not 44.95 %"
    ),
    "table2.DataDome.accuracy": Deviation(
        0.2, "the modelled DataDome decides from the fingerprint alone, so a forest learns it"
    ),
    "blocklists.asn.DataDome_evasion": Deviation(
        0.25, "the modelled DataDome flags data-centre address space, where flagged ASNs sit"
    ),
    "blocklists.asn.BotD_evasion": Deviation(
        0.2, "the modelled BotD never reads the address: flagged ASNs evade at the corpus rate"
    ),
    "blocklists.ip.BotD_evasion": Deviation(
        0.2, "the modelled BotD never reads the address: covered IPs evade at the corpus rate"
    ),
    "dual_evaders.no_plugins_share": Deviation(
        0.1, "both dual evaders (S14, S20) spoof touch and never send plugins (1.0 vs 93.02 %)"
    ),
    "dual_evaders.touch_support_share": Deviation(
        0.15, "both dual evaders (S14, S20) spoof touch on 89 % of requests (paper 78.36 %)"
    ),
    "section62.Canada.timezone_match": Deviation(
        0.3, "off-region sessions report America/New_York, whose offsets Canada shares (1.0)"
    ),
}


def paper_rows(measured: Mapping[str, Measurement], scale: float) -> List[dict]:
    """One ``{key, section, reproduced, paper, delta, scale}`` row per paper
    value in *measured*, in table order."""

    return [
        {
            "key": entry.key,
            "section": entry.section,
            "reproduced": round(measured[entry.key].value, 4),
            "paper": entry.value,
            "delta": round(measured[entry.key].value - entry.value, 4),
            "scale": scale,
        }
        for entry in PAPER_VALUES
        if entry.key in measured
    ]


def pipeline_measurements(result, bot_requests: int, real_user_requests: int) -> dict:
    """Table 4, the evasion reductions, the §7.4 TNR and (when it ran) the
    §7.3 drops of a :class:`~repro.core.pipeline.PipelineResult`."""

    measured = {}
    for name, rates in result.table4.items():
        for setting in _TABLE4_SETTINGS:
            measured[f"table4.{name}.{setting}"] = Measurement(getattr(rates, setting), bot_requests)
        evading = round((1.0 - rates.baseline) * bot_requests)
        measured[f"table4.{name}.evasion_reduction"] = Measurement(rates.evasion_reduction, evading)
    for name, entry in (result.generalization or {}).items():
        measured[f"generalization.{name}.drop"] = Measurement(entry.accuracy_drop, bot_requests)
    if result.real_user_tnr is not None:
        measured["real_users.tnr"] = Measurement(result.real_user_tnr, real_user_requests)
    return measured
