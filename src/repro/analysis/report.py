"""One-command paper report (``repro report``).

Regenerates every table and figure of the paper from a built (or cached)
corpus in a single pass, timing each section and rendering the results
through :mod:`repro.reporting.tables` / :mod:`repro.reporting.figures`.

Every analysis answers the corpus's
:class:`~repro.honeysite.storage.RequestStore` straight from its
:class:`~repro.honeysite.storage.RecordColumns` arrays; the store has no
record objects, and the report's
:func:`~repro.honeysite.storage.materialized_record_count` delta reads 0.

Per-section SHA-256 digests over the canonical JSON of each section's
data (``repro report --json``) make the output checkable from the command
line; ``tests/golden/corpus.json`` pins all fourteen.  Each section also
returns the paper values it reproduces, outside its data;
:meth:`Report.paper` sets them beside the paper's
(:mod:`repro.analysis.paper`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.attributes import appendix_c_combination, table2
from repro.analysis.corpus import Corpus
from repro.analysis.evasion import (
    cohort_comparison,
    dual_evader_summary,
    overall_detection_rates,
    table1_rows,
    top_and_bottom_services,
)
from repro.analysis.figures import (
    canonical_fingerprint_rows,
    figure4_plugin_evasion,
    figure5_core_cdfs,
    figure6_device_evasion,
    figure7_iphone_resolutions,
    figure8_location_histograms,
    figure9_daily_series,
    figure10_platform_spread,
    new_fingerprints_over_time,
    section62_geo_match,
)
from repro.analysis.ip_analysis import analyze_asn_blocklist, analyze_ip_blocklist
from repro.analysis.paper import Measurement, paper_rows
from repro.honeysite.storage import RequestStore, materialized_record_count
from repro.reporting.figures import ascii_bar_chart, cdf_table
from repro.reporting.tables import format_percent, format_table


@dataclass(frozen=True)
class ReportSection:
    """One rendered table or figure plus its machine-readable data."""

    key: str
    title: str
    paper_ref: str
    seconds: float
    body: str
    data: object
    #: the paper values this section reproduces (not part of the digest)
    measured: Dict[str, Measurement] = dataclasses.field(default_factory=dict)

    @property
    def digest(self) -> str:
        """Content address of the section data."""

        canonical = json.dumps(self.data, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Report:
    """Every paper table/figure regenerated from one corpus."""

    scale: float
    seed: int
    sections: Tuple[ReportSection, ...]
    total_seconds: float
    #: record objects materialised while generating (0 for a columnar corpus)
    materialized_records: int
    #: corpus cache content-address, when the corpus came through the cache
    cache_key: Optional[str] = None

    def digests(self) -> Dict[str, str]:
        return {section.key: section.digest for section in self.sections}

    def paper(self) -> List[dict]:
        """One row per paper value the report's sections reproduce."""

        measured = {}
        for section in self.sections:
            measured.update(section.measured)
        return paper_rows(measured, self.scale)

    def render(self) -> str:
        """The full plain-text report, ending with the paper-value rows."""

        blocks = []
        for section in self.sections:
            header = f"{section.title} ({section.paper_ref})"
            blocks.append(f"{header}\n{'=' * len(header)}\n{section.body}")
        rows = self.paper()
        if rows:
            header = f"Reproduced vs paper (scale {self.scale})"
            body = format_table(
                ["Key", "Section", "Reproduced", "Paper", "Delta"],
                [
                    (row["key"], row["section"], row["reproduced"], row["paper"], f"{row['delta']:+.4f}")
                    for row in rows
                ],
            )
            blocks.append(f"{header}\n{'=' * len(header)}\n{body}")
        return "\n\n".join(blocks)

    def to_document(self) -> dict:
        """The ``--json`` document: timings, digests and section data."""

        return {
            "scale": self.scale,
            "seed": self.seed,
            "cache_key": self.cache_key,
            "total_seconds": round(self.total_seconds, 3),
            "materialized_records": self.materialized_records,
            "paper": self.paper(),
            "sections": [
                {
                    "key": section.key,
                    "title": section.title,
                    "paper_ref": section.paper_ref,
                    "seconds": round(section.seconds, 4),
                    "digest": section.digest,
                    "data": section.data,
                }
                for section in self.sections
            ],
        }


def _asdict(value) -> dict:
    return dataclasses.asdict(value)


def _rate_bar(points, label_of, value_of) -> str:
    return ascii_bar_chart(
        {label_of(point): value_of(point) for point in points},
        value_format="{:.4f}",
    )


def _section_table1(corpus: Corpus, store: RequestStore):
    rows = table1_rows(store)
    overall = overall_detection_rates(store)
    data = {"rows": [_asdict(row) for row in rows], "overall_detection": overall}
    body = format_table(
        ["Service", "Requests", "DataDome evasion", "BotD evasion"],
        [
            (
                row.service,
                row.num_requests,
                format_percent(row.datadome_evasion_rate),
                format_percent(row.botd_evasion_rate),
            )
            for row in rows
        ],
    )
    body += "\n" + "\n".join(
        f"Overall {name} detection: {format_percent(rate)}"
        for name, rate in overall.items()
    )
    measured = {
        f"table1.{name}.detection": Measurement(rate, len(store)) for name, rate in overall.items()
    }
    for row in rows:
        for name, rate in (("DataDome", row.datadome_evasion_rate), ("BotD", row.botd_evasion_rate)):
            measured[f"table1.{row.service}.{name}_evasion"] = Measurement(rate, row.num_requests)
    return data, body, measured


def _section_cohorts(corpus: Corpus, store: RequestStore):
    comparisons = {
        detector: cohort_comparison(store, detector)
        for detector in ("DataDome", "BotD")
    }
    dual = dual_evader_summary(store)
    data = {
        "comparisons": {name: _asdict(c) for name, c in comparisons.items()},
        "dual_evaders": _asdict(dual),
    }
    rows = []
    for name, c in comparisons.items():
        rows.append(
            (
                name,
                ", ".join(c.top_services),
                format_percent(c.top_evasion_rate),
                format_percent(c.top_with_plugins),
                format_percent(c.top_with_touch),
                format_percent(c.top_low_cores),
            )
        )
        rows.append(
            (
                f"{name} (bottom)",
                ", ".join(c.bottom_services),
                format_percent(c.bottom_evasion_rate),
                format_percent(c.bottom_with_plugins),
                format_percent(c.bottom_with_touch),
                format_percent(c.bottom_low_cores),
            )
        )
    body = format_table(
        ["Cohort", "Services", "Evasion", "Plugins", "Touch", "<8 cores"], rows
    )
    body += (
        f"\nDual evaders (>80% on both): {', '.join(dual.services) or '(none)'} — "
        f"{dual.num_requests} requests, "
        f"DataDome {format_percent(dual.datadome_evasion_rate)}, "
        f"BotD {format_percent(dual.botd_evasion_rate)}"
    )
    measured = {
        f"dual_evaders.{name}": Measurement(value, dual.num_requests)
        for name, value in (
            ("DataDome_evasion", dual.datadome_evasion_rate),
            ("BotD_evasion", dual.botd_evasion_rate),
            ("low_cores_share", dual.low_cores_fraction),
            ("no_plugins_share", dual.no_plugins_fraction),
            ("touch_support_share", dual.touch_support_fraction),
        )
    }
    return data, body, measured


def _section_table2(ml_samples: int, ml_seed: int):
    def build(corpus: Corpus, store: RequestStore):
        classifiers = table2(store, max_samples=ml_samples, seed=ml_seed)
        columns = {name: result.top_attributes(5) for name, result in classifiers.items()}
        measured = {
            f"table2.{name}.accuracy": Measurement(result.test_accuracy, result.test_rows)
            for name, result in classifiers.items()
        }
        depth = max((len(names) for names in columns.values()), default=0)
        rows = [
            [rank + 1] + [columns[d][rank] if rank < len(columns[d]) else "" for d in columns]
            for rank in range(depth)
        ]
        body = format_table(["Rank", *columns.keys()], rows)
        return columns, body, measured

    return build


def _section_appendix_c(corpus: Corpus, store: RequestStore):
    result = appendix_c_combination(store)
    data = _asdict(result)
    body = (
        f"Matching requests: {result.matching_requests}\n"
        f"DataDome evasion among matches: {format_percent(result.matching_datadome_evasion)}\n"
        f"Overall DataDome evasion: {format_percent(result.overall_datadome_evasion)}"
    )
    return data, body, {}


def _section_figure4(corpus: Corpus, store: RequestStore):
    points = figure4_plugin_evasion(store)
    data = [_asdict(point) for point in points]
    body = _rate_bar(points, lambda p: p.plugin, lambda p: p.evasion_probability)
    return data, body, {}


def _section_figure5(corpus: Corpus, store: RequestStore):
    rows = table1_rows(store)
    top, bottom = top_and_bottom_services(rows, "DataDome")
    high, low = figure5_core_cdfs(store, top, bottom)
    data = {
        "high_services": list(top),
        "low_services": list(bottom),
        "curves": [_asdict(curve) for curve in (high, low)],
    }
    body = cdf_table(
        [
            (curve.label, curve.core_counts, curve.cumulative_probability)
            for curve in (high, low)
        ],
        value_name="cores",
    )
    return data, body, {}


def _section_figure6(corpus: Corpus, store: RequestStore):
    points = figure6_device_evasion(store)
    data = [_asdict(point) for point in points]
    body = _rate_bar(points, lambda p: p.device, lambda p: p.evasion_probability)
    return data, body, {}


def _section_figure7(corpus: Corpus, store: RequestStore):
    analysis = figure7_iphone_resolutions(store)
    data = _asdict(analysis)
    body = format_table(
        ["Resolution", "Requests", "Evasion", "Real iPhone?"],
        [
            (
                point.resolution,
                point.requests,
                format_percent(point.evasion_probability),
                "yes" if point.exists_on_real_iphone else "no",
            )
            for point in analysis.top_points
        ],
    )
    body += (
        f"\nUnique resolutions: {analysis.unique_resolutions} "
        f"({analysis.unique_resolutions_among_evading} among evading); "
        f"{analysis.nonexistent_in_top} of the top {len(analysis.top_points)} "
        "do not exist on real iPhones"
    )
    return data, body, {}


def _section_figure8(corpus: Corpus, store: RequestStore):
    by_timezone, by_ip = figure8_location_histograms(store)
    data = {"by_timezone_country": by_timezone, "by_ip_country": by_ip}
    top_tz = dict(sorted(by_timezone.items(), key=lambda kv: kv[1], reverse=True)[:10])
    top_ip = dict(sorted(by_ip.items(), key=lambda kv: kv[1], reverse=True)[:10])
    body = ascii_bar_chart(top_tz, value_format="{:.0f}", title="By timezone country (top 10)")
    body += "\n" + ascii_bar_chart(top_ip, value_format="{:.0f}", title="By IP country (top 10)")
    return data, body, {}


def _section_geo_match(corpus: Corpus, store: RequestStore):
    regions = {
        profile.name: profile.advertised_region
        for profile in corpus.bot_profiles
        if profile.advertised_region
    }
    summaries = section62_geo_match(store, regions)
    data = [_asdict(summary) for summary in summaries]
    body = format_table(
        ["Service", "Region", "Requests", "IP match", "Timezone match"],
        [
            (
                summary.service,
                summary.advertised_region,
                summary.requests,
                format_percent(summary.ip_match_rate),
                format_percent(summary.timezone_match_rate),
            )
            for summary in summaries
        ],
    )
    measured = {}
    for summary in summaries:
        key, requests = f"section62.{summary.advertised_region}", summary.requests
        measured[f"{key}.ip_match"] = Measurement(summary.ip_match_rate, requests)
        measured[f"{key}.timezone_match"] = Measurement(summary.timezone_match_rate, requests)
    return data, body, measured


def _section_figure9(corpus: Corpus, store: RequestStore):
    fingerprint_rows = canonical_fingerprint_rows(store.columns)
    series = figure9_daily_series(store, fingerprint_rows=fingerprint_rows)
    new_fingerprints = new_fingerprints_over_time(store, fingerprint_rows=fingerprint_rows)
    data = {"series": _asdict(series), "new_fingerprints": list(new_fingerprints)}
    body = format_table(
        ["Day", "Requests", "Unique IPs", "Unique cookies", "Unique fingerprints"],
        list(
            zip(
                series.days,
                series.requests,
                series.unique_ips,
                series.unique_cookies,
                series.unique_fingerprints,
            )
        ),
    )
    body += f"\nNew fingerprints per day: {sum(new_fingerprints)} total over {len(new_fingerprints)} day(s)"
    return data, body, {}


def _section_figure10(corpus: Corpus, store: RequestStore):
    spread = figure10_platform_spread(store)
    if spread is None:
        return None, "(no cookies recorded)", {}
    data = _asdict(spread)
    body = (
        f"Busiest cookie: {spread.cookie} ({spread.requests} requests, "
        f"{spread.distinct_platforms} platform(s))\n"
    )
    body += ascii_bar_chart(spread.platform_percentages, value_format="{:.2f}%")
    return data, body, {}


def _section_blocklists(corpus: Corpus, store: RequestStore):
    asn = analyze_asn_blocklist(store, corpus.site.geo)
    ip = analyze_ip_blocklist(store)
    data = {"asn": _asdict(asn), "ip": _asdict(ip)}
    body = format_table(
        ["Blocklist", "Requests covered", "Coverage", "DataDome evasion", "BotD evasion"],
        [
            (
                "ASN",
                asn.flagged_requests,
                format_percent(asn.flagged_fraction),
                format_percent(asn.flagged_datadome_evasion),
                format_percent(asn.flagged_botd_evasion),
            ),
            (
                "IP (minFraud-like)",
                ip.covered_requests,
                format_percent(ip.coverage),
                format_percent(ip.covered_datadome_evasion),
                format_percent(ip.covered_botd_evasion),
            ),
        ],
    )
    measured = {
        "blocklists.asn.flagged_share": Measurement(asn.flagged_fraction, asn.total_requests),
        "blocklists.asn.DataDome_evasion": Measurement(
            asn.flagged_datadome_evasion, asn.flagged_requests
        ),
        "blocklists.asn.BotD_evasion": Measurement(asn.flagged_botd_evasion, asn.flagged_requests),
        "blocklists.ip.covered_share": Measurement(ip.coverage, ip.total_requests),
        "blocklists.ip.DataDome_evasion": Measurement(
            ip.covered_datadome_evasion, ip.covered_requests
        ),
        "blocklists.ip.BotD_evasion": Measurement(ip.covered_botd_evasion, ip.covered_requests),
    }
    return data, body, measured


def _section_privacy(corpus: Corpus, store: RequestStore):
    from repro.analysis.privacy_eval import (
        corpus_privacy_tables,
        evaluate_privacy_technologies,
    )
    from repro.core.detector import FPInconsistent
    from repro.users.privacy import PrivacyTechnology

    stores = {}
    for technology in PrivacyTechnology:
        privacy_store = corpus.privacy_store(technology)
        if len(privacy_store) > 0:
            stores[technology] = privacy_store
    if not stores:
        return None, "(no privacy-technology traffic in this corpus)", {}

    detector = FPInconsistent()
    table, _source = detector.resolve_table(corpus.bot_store, corpus.columnar_tables.get("bots"))
    detector.fit_table(table)
    results = evaluate_privacy_technologies(
        stores, detector, tables=corpus_privacy_tables(corpus)
    )
    data = [
        {**_asdict(result), "technology": result.technology.value}
        for result in results
    ]
    body = format_table(
        ["Technology", "Requests", "DataDome", "BotD", "FP-Inconsistent", "Spatial", "Temporal"],
        [
            (
                result.technology.value,
                result.requests,
                format_percent(result.datadome_detection_rate),
                format_percent(result.botd_detection_rate),
                format_percent(result.fp_inconsistent_rate),
                format_percent(result.fp_spatial_rate),
                format_percent(result.fp_temporal_rate),
            )
            for result in results
        ],
    )
    measured = {}
    for result in results:
        name, requests = result.technology.value, result.requests
        measured[f"privacy.{name}.spatial"] = Measurement(result.fp_spatial_rate, requests)
        measured[f"privacy.{name}.flagged"] = Measurement(result.fp_inconsistent_rate, requests)
    return data, body, measured


def _section_builders(ml_samples: int, ml_seed: int) -> List[Tuple[str, str, str, Callable]]:
    """(key, title, paper_ref, builder) for every report section, in
    paper order.  A builder returns the section's data, its rendered body
    and the paper values it measures (keys of
    :data:`~repro.analysis.paper.PAPER`)."""

    return [
        ("table1", "Table 1 · Per-service evasion", "§5.3", _section_table1),
        ("blocklists", "ASN / IP blocklist coverage", "§5.1", _section_blocklists),
        ("table2", "Table 2 · Attribute importance", "§5.2", _section_table2(ml_samples, ml_seed)),
        ("cohorts", "Evasion cohorts", "§5.3.1–5.3.3", _section_cohorts),
        ("figure4", "Figure 4 · PDF-plugin evasion", "§5.3", _section_figure4),
        ("figure5", "Figure 5 · Core-count CDFs", "§5.3.1", _section_figure5),
        ("figure6", "Figure 6 · Device-type evasion", "§6.1", _section_figure6),
        ("figure7", "Figure 7 · iPhone resolutions", "§6.1", _section_figure7),
        ("section62", "Advertised-region match rates", "§6.2", _section_geo_match),
        ("figure8", "Figure 8 · Location histograms", "§6.2", _section_figure8),
        ("figure9", "Figure 9 · Daily series", "§6.3", _section_figure9),
        ("figure10", "Figure 10 · Cookie platform spread", "§6.3", _section_figure10),
        ("appendix_c", "Appendix C · Combination rule", "App. C", _section_appendix_c),
        ("privacy", "Privacy technologies", "§7.5", _section_privacy),
    ]


def report_section_keys() -> Tuple[str, ...]:
    """Every section key ``generate_report`` knows, in report order."""

    return tuple(entry[0] for entry in _section_builders(0, 0))


def generate_report(
    corpus: Corpus,
    *,
    ml_samples: int = 4000,
    ml_seed: int = 0,
    sections: Optional[Sequence[str]] = None,
    cache_key: Optional[str] = None,
) -> Report:
    """Regenerate every paper table/figure from *corpus*.

    ``sections`` optionally restricts generation to a subset of
    :func:`report_section_keys`.  The returned report carries per-section
    wall-clock seconds, content digests, and the number of record objects
    materialised while generating (zero for a columnar-backed corpus).
    """

    builders = _section_builders(ml_samples, ml_seed)
    known = {key for key, _, _, _ in builders}
    if sections is not None:
        unknown = sorted(set(sections) - known)
        if unknown:
            raise ValueError(
                f"unknown report section(s) {', '.join(unknown)}; "
                f"known: {', '.join(key for key, _, _, _ in builders)}"
            )
        builders = [entry for entry in builders if entry[0] in set(sections)]

    counter_before = materialized_record_count()
    tracer = obs.tracer()
    store = corpus.bot_store
    with tracer.span("report.generate", sections=len(builders)) as report_span:
        built: List[ReportSection] = []
        for key, title, paper_ref, builder in builders:
            # The span is the section timer: ``Span.duration`` is always
            # measured (recording into the tracer stays telemetry-gated).
            with tracer.span("report.section", key=key) as span:
                data, body, measured = builder(corpus, store)
            built.append(
                ReportSection(
                    key=key,
                    title=title,
                    paper_ref=paper_ref,
                    seconds=span.duration,
                    body=body,
                    data=data,
                    measured=measured,
                )
            )
    total_seconds = report_span.duration
    # Counter delta across the whole run.
    materialized = materialized_record_count() - counter_before
    return Report(
        scale=corpus.scale,
        seed=corpus.seed,
        sections=tuple(built),
        total_seconds=total_seconds,
        materialized_records=materialized,
        cache_key=cache_key,
    )
