"""Measurement analyses backing every table and figure of the paper.

The public names below load their submodule on first access, so a command
that only loads a cached corpus never imports the ML-backed analyses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "attributes": (
            "CombinationRuleResult",
            "EvasionClassifierResult",
            "appendix_c_combination",
            "table2",
            "train_evasion_classifier",
        ),
        "cache": (
            "CACHE_ENV_VAR",
            "CorpusCache",
            "corpus_cache_key",
            "corpus_digest",
            "default_cache_dir",
            "load_corpus",
            "save_corpus",
        ),
        "corpus": ("Corpus", "DEFAULT_SCALE", "SCALE_ENV_VAR", "build_corpus", "default_scale"),
        "engine": (
            "CorpusEngine",
            "ShardSpec",
            "WORKERS_ENV_VAR",
            "build_or_load_corpus",
            "default_workers",
        ),
        "evasion": (
            "CohortComparison",
            "DualEvaderSummary",
            "ServiceEvasionRow",
            "cohort_comparison",
            "dual_evader_summary",
            "overall_detection_rates",
            "table1_rows",
            "top_and_bottom_services",
        ),
        "figures": (
            "CookiePlatformSpread",
            "CoreCountCdf",
            "DailySeries",
            "DeviceEvasionPoint",
            "GeoMismatchSummary",
            "IphoneResolutionAnalysis",
            "PluginEvasionPoint",
            "ResolutionEvasionPoint",
            "figure4_plugin_evasion",
            "figure5_core_cdfs",
            "figure6_device_evasion",
            "figure7_iphone_resolutions",
            "figure8_location_histograms",
            "figure9_daily_series",
            "figure10_platform_spread",
            "new_fingerprints_over_time",
            "section62_geo_match",
        ),
        "ip_analysis": (
            "AsnBlocklistAnalysis",
            "IpBlocklistAnalysis",
            "analyze_asn_blocklist",
            "analyze_ip_blocklist",
        ),
        "privacy_eval": (
            "PrivacyTechnologyResult",
            "corpus_privacy_tables",
            "evaluate_privacy_technologies",
        ),
    },
)
