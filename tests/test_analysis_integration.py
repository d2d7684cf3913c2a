"""Integration tests: full corpus → analyses → FP-Inconsistent evaluation.

The paper-shape tests each check one claim of ``test_paper_claims.py``
(where the claims are stated, and checked on three seeds) on the shared
seed-11 corpus, so a failing claim shows under its own test name.  The
rest pin the shape of the analyses' outputs, not paper results.
"""

import pytest

from repro.analysis.evasion import table1_rows
from repro.analysis.figures import (
    figure4_plugin_evasion,
    figure9_daily_series,
    figure10_platform_spread,
)
from repro.reporting.figures import ascii_bar_chart
from repro.reporting.tables import format_percent, format_table
from test_paper_claims import falsifications


@pytest.fixture(scope="module")
def claims(claims_runs):
    return claims_runs(11)


def holds(claims, name):
    found = falsifications(claims, [name])
    assert found.issues == []
    assert found.evidence


# -- corpus shape -----------------------------------------------------------------


def test_corpus_has_all_sources(small_corpus):
    sources = set(small_corpus.store.sources())
    assert {f"S{i}" for i in range(1, 21)} <= sources
    assert "real_users" in sources
    assert any(source.startswith("privacy:") for source in sources)


def test_corpus_volumes_scale_with_table1(claims):
    holds(claims, "table1_volumes")


def test_overall_detection_rates_match_paper_shape(claims):
    holds(claims, "table1_headline_rates")


def test_per_service_evasion_targets_are_tracked(claims):
    holds(claims, "table1_service_targets")


def test_top_bottom_cohorts_match_paper(claims):
    holds(claims, "cohort_membership")


# -- section 5.1 ------------------------------------------------------------------------


def test_asn_blocklist_analysis(claims):
    holds(claims, "asn_blocklist")


def test_ip_blocklist_analysis(claims):
    holds(claims, "ip_blocklist")


# -- section 5.2 / 5.3 ----------------------------------------------------------------------


def test_evasion_classifier_accuracy_and_importance(claims):
    holds(claims, "table2_botd")


def test_datadome_classifier_finds_hardware_concurrency(claims):
    holds(claims, "table2_datadome")


def test_cohort_comparison_botd_plugins(claims):
    holds(claims, "cohorts_botd_plugins")


def test_cohort_comparison_datadome_cores(claims):
    holds(claims, "cohorts_datadome_cores")


def test_dual_evaders_exploit_touch(claims):
    holds(claims, "dual_evaders")


def test_appendix_c_combination_rule(claims):
    holds(claims, "appendix_c")


# -- figures ------------------------------------------------------------------------------------


def test_figure4_any_plugin_nearly_guarantees_botd_evasion(claims):
    holds(claims, "figure4_plugins")


def test_figure5_low_cores_dominate_high_evasion_cohort(claims):
    holds(claims, "figure5_low_cores")


def test_figure6_popular_devices_have_high_evasion(claims):
    holds(claims, "figure6_devices")


def test_figure7_most_top_iphone_resolutions_do_not_exist(claims):
    holds(claims, "figure7_resolutions")


def test_section62_ip_matches_better_than_timezone(claims):
    holds(claims, "section62_ip_beats_timezone")


def test_figure8_histograms_cover_both_views(claims):
    holds(claims, "figure8_views_disagree")


def test_figure9_series_consistency(small_corpus):
    series = figure9_daily_series(small_corpus.bot_store)
    assert sum(series.requests) == len(small_corpus.bot_store)
    assert len(series.days) == len(series.unique_ips) == len(series.unique_cookies)
    for day_requests, day_fps in zip(series.requests, series.unique_fingerprints):
        assert day_fps <= day_requests


def test_figure10_platform_spread_shows_rotation(small_corpus):
    spread = figure10_platform_spread(small_corpus.bot_store)
    assert spread is not None
    assert spread.requests >= 2
    assert abs(sum(spread.platform_percentages.values()) - 100.0) < 1e-6


# -- FP-Inconsistent evaluation --------------------------------------------------------------------


def test_pipeline_rules_are_nonempty_and_serializable(claims, tmp_path):
    assert len(claims.pipeline.filter_list) > 20
    path = tmp_path / "rules.json"
    claims.pipeline.filter_list.save(path)
    assert path.exists()


def test_table4_shape(claims):
    holds(claims, "table4_ordering")


def test_table3_every_service_improves(claims):
    holds(claims, "table3_every_service_improves")


def test_real_user_true_negative_rate(claims):
    holds(claims, "real_user_tnr")


def test_generalization_drop_is_small(claims):
    holds(claims, "generalization_drop")


def test_privacy_technologies_match_section75(claims):
    holds(claims, "privacy_section75")


# -- reporting helpers --------------------------------------------------------------------------------


def test_reporting_renders_table1(small_corpus):
    rows = table1_rows(small_corpus.bot_store)
    table = format_table(
        ["Service", "Requests", "DataDome evasion", "BotD evasion"],
        [
            (row.service, row.num_requests, format_percent(row.datadome_evasion_rate), format_percent(row.botd_evasion_rate))
            for row in rows
        ],
        title="Table 1",
    )
    assert "S1" in table and "%" in table


def test_reporting_chart_and_csv(small_corpus):
    # The CSV exporter is gone (the --json documents carry every series);
    # the chart renders, and the Figure 9 columns stay parallel.
    points = figure4_plugin_evasion(small_corpus.bot_store)
    chart = ascii_bar_chart({point.plugin: point.evasion_probability for point in points})
    assert "#" in chart
    series = figure9_daily_series(small_corpus.bot_store)
    assert len(series.days) == len(series.requests) > 0
