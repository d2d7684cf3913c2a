"""Tests for the unified telemetry layer (:mod:`repro.obs`).

Covers the registry and histogram semantics, span nesting, the shard-span
merge back from process-pool workers, exporter formats, the CLI exporter
flags, the back-compat accessors that now read through the registry, and
the load-bearing invariant of the whole layer: enabling telemetry never
changes a single output byte.
"""

from __future__ import annotations

import gc
import json
import os

import pytest
from reference.store import records

from repro import obs
from repro.analysis.engine import CorpusEngine
from repro.cli import main as cli_main
from repro.core.detector import FPInconsistent
from repro.core.rules import FilterList, InconsistencyRule
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.honeysite.storage import materialized_record_count
from repro.stream import FilterListRefresher, ReplayDriver, StreamHealth, verdicts_digest

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    real_user_requests=120,
)


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """Restore the telemetry switch and drain the tracer after each test.

    Always-on counters are left alone — they are cumulative by design
    and every consumer reads deltas — but the enabled/disabled state and
    the span buffer must not leak between tests (or into the rest of the
    suite, which assumes untraced runs).
    """

    before = os.environ.get(obs.TELEMETRY_ENV_VAR)
    yield
    obs.set_telemetry(None)
    if before is None:
        os.environ.pop(obs.TELEMETRY_ENV_VAR, None)
    else:
        os.environ[obs.TELEMETRY_ENV_VAR] = before
    obs.tracer().reset()


# -- registry semantics -------------------------------------------------------


def test_counter_labels_totals_and_monotonicity():
    obs.set_telemetry(True)
    c = obs.counter("test_obs_counter_total", "help text")
    c.reset()
    c.inc()
    c.inc(2, status="hit")
    c.inc(3, status="miss")
    c.inc(status="hit")
    assert c.value() == 1
    assert c.value(status="hit") == 3
    assert c.value(status="miss") == 3
    assert c.total() == 7
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gated_counter_is_a_noop_when_disabled():
    obs.set_telemetry(False)
    c = obs.counter("test_obs_gated_total")
    c.reset()
    c.inc(5)
    assert c.value() == 0
    obs.set_telemetry(True)
    c.inc(5)
    assert c.value() == 5


def test_always_counter_records_while_disabled():
    obs.set_telemetry(False)
    c = obs.counter("test_obs_always_total", always=True)
    c.reset()
    c.inc(2)
    assert c.value() == 2


def test_gauge_set_add_last_write_wins():
    obs.set_telemetry(True)
    g = obs.gauge("test_obs_gauge")
    g.reset()
    g.set(10)
    g.set(4)
    g.add(1.5)
    assert g.value() == 5.5


def test_histogram_buckets_sum_count_and_inf_slot():
    obs.set_telemetry(True)
    h = obs.histogram("test_obs_seconds", buckets=(0.1, 1.0))
    h.reset()
    for value in (0.05, 0.5, 0.5, 2.0):
        h.observe(value, stage="total")
    snap = h.snapshot(stage="total")
    # Non-cumulative internal counts: [<=0.1, <=1.0, +Inf].
    assert snap["counts"] == [1, 2, 1]
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(3.05)
    # A boundary value lands in the bucket whose bound it equals.
    h.observe(0.1, stage="total")
    assert h.snapshot(stage="total")["counts"][0] == 2


def test_registry_interns_by_name_and_rejects_type_mismatch():
    first = obs.counter("test_obs_interned_total", "first help")
    second = obs.counter("test_obs_interned_total", "ignored rebinding help")
    assert first is second
    assert second.help == "first help"
    with pytest.raises(ValueError):
        obs.gauge("test_obs_interned_total")
    # Re-registration with always=True upgrades the existing instrument.
    assert not first.always
    obs.counter("test_obs_interned_total", always=True)
    assert first.always


def test_registry_snapshot_reset_and_metric_value():
    obs.set_telemetry(True)
    c = obs.counter("test_obs_snapshot_total", "snapshot help")
    c.reset()
    c.inc(4, kind="a")
    snapshot = obs.registry().snapshot()
    entry = snapshot["test_obs_snapshot_total"]
    assert entry["type"] == "counter"
    assert entry["series"] == [{"labels": {"kind": "a"}, "value": 4.0}]
    assert obs.metric_value("test_obs_snapshot_total", kind="a") == 4
    assert obs.metric_value("test_obs_never_registered") == 0.0
    c.reset()
    assert c.series() == []
    # Empty series are dropped from snapshots entirely.
    assert "test_obs_snapshot_total" not in obs.registry().snapshot()


# -- spans --------------------------------------------------------------------


def test_span_nesting_depth_and_parent():
    obs.set_telemetry(True)
    trc = obs.tracer()
    trc.reset()
    with trc.span("outer.work", rows=3):
        with trc.span("inner.step") as inner:
            inner.set(result="ok")
    records = {record.name: record for record in trc.records()}
    assert records["outer.work"].depth == 0
    assert records["outer.work"].parent is None
    assert records["outer.work"].attrs == {"rows": 3}
    assert records["inner.step"].depth == 1
    assert records["inner.step"].parent == "outer.work"
    assert records["inner.step"].attrs == {"result": "ok"}
    assert records["inner.step"].duration <= records["outer.work"].duration


def test_span_measures_duration_even_while_disabled():
    obs.set_telemetry(False)
    trc = obs.tracer()
    trc.reset()
    with trc.span("quiet.work") as span:
        pass
    assert span.duration >= 0.0
    assert trc.records() == []
    trc.record("quiet.loop", ts=1.0, duration=0.5)
    assert trc.records() == []


def test_span_records_error_attribute_on_exception():
    obs.set_telemetry(True)
    trc = obs.tracer()
    trc.reset()
    with pytest.raises(RuntimeError):
        with trc.span("failing.work"):
            raise RuntimeError("boom")
    (record,) = trc.records()
    assert record.attrs["error"] == "RuntimeError"


def test_tracer_adopt_merges_foreign_records():
    obs.set_telemetry(True)
    trc = obs.tracer()
    trc.reset()
    foreign = obs.SpanRecord(
        name="corpus.shard", ts=12.0, duration=0.25, pid=99999, tid=1
    )
    trc.adopt([foreign])
    assert trc.records() == [foreign]


# -- exporters ----------------------------------------------------------------


def test_prometheus_text_format():
    obs.set_telemetry(True)
    c = obs.counter("test_obs_prom_total", "a counter")
    c.reset()
    c.inc(3, status='he said "hi"\n')
    h = obs.histogram("test_obs_prom_seconds", "a histogram", buckets=(0.1, 1.0))
    h.reset()
    for value in (0.05, 0.5, 2.0):
        h.observe(value)
    text = obs.prometheus_text()
    assert "# HELP test_obs_prom_total a counter" in text
    assert "# TYPE test_obs_prom_total counter" in text
    assert 'test_obs_prom_total{status="he said \\"hi\\"\\n"} 3' in text
    # Cumulative buckets with the implicit +Inf, plus _sum and _count.
    assert 'test_obs_prom_seconds_bucket{le="0.1"} 1' in text
    assert 'test_obs_prom_seconds_bucket{le="1.0"} 2' in text
    assert 'test_obs_prom_seconds_bucket{le="+Inf"} 3' in text
    assert "test_obs_prom_seconds_count 3" in text
    assert "test_obs_prom_seconds_sum 2.55" in text


def test_chrome_trace_format():
    obs.set_telemetry(True)
    trc = obs.tracer()
    trc.reset()
    with trc.span("corpus.generate", shards=2):
        pass
    trc.adopt(
        [obs.SpanRecord(name="corpus.shard", ts=0.0, duration=0.5, pid=424242, tid=7)]
    )
    document = obs.chrome_trace()
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {meta["args"]["name"] for meta in metas} == {
        "repro",
        "shard-worker 424242",
    }
    by_name = {span["name"]: span for span in spans}
    assert by_name["corpus.generate"]["cat"] == "corpus"
    assert by_name["corpus.generate"]["args"] == {"shards": 2}
    # Timestamps are rebased to the earliest span, in microseconds.
    assert min(span["ts"] for span in spans) == 0.0
    assert by_name["corpus.shard"]["dur"] == pytest.approx(0.5e6)
    json.dumps(document)  # must be JSON-clean


# -- shard span merge from pool processes --------------------------------------


def test_shard_spans_merge_back_from_workers():
    # enable_telemetry() (not set_telemetry) so process workers inherit
    # the switch through the environment, as the CLI does.
    obs.enable_telemetry()
    trc = obs.tracer()
    trc.reset()
    engine = CorpusEngine(**TINY, min_records_per_worker=500)
    engine.build(workers=2)
    assert engine.last_plan["effective_workers"] == 2
    records = trc.records()
    shard_spans = [r for r in records if r.name == "corpus.shard"]
    assert len(shard_spans) == engine.last_plan["shards"]
    assert {r.attrs["source"] for r in shard_spans} >= {"real_users"}
    assert {r.pid for r in shard_spans} - {os.getpid()}, (
        "process-pool shard spans must carry the worker pids"
    )
    names = {r.name for r in records}
    assert {"corpus.generate", "corpus.merge"} <= names


# -- byte identity ------------------------------------------------------------


def _store_bytes(corpus) -> bytes:
    return "\n".join(
        json.dumps(record.to_dict(), sort_keys=True) for record in records(corpus.store)
    ).encode()


def test_corpus_build_is_byte_identical_with_telemetry_on():
    # A floor of one record per worker defeats the fan-out clamp, so both
    # TINY builds really cross the process pool.
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    baseline = engine.build(workers=2)
    assert engine.last_plan["effective_workers"] > 1, engine.last_plan
    obs.set_telemetry(True)
    traced = engine.build(workers=2)
    assert engine.last_plan["effective_workers"] > 1, engine.last_plan
    assert _store_bytes(baseline) == _store_bytes(traced)


def test_stream_replay_is_byte_identical_with_telemetry_on(small_corpus):
    bot_store = small_corpus.bot_store
    detector = FPInconsistent()
    table, _source = detector.resolve_table(
        bot_store, small_corpus.columnar_tables.get("bots")
    )
    detector.fit_table(table)

    obs.set_telemetry(False)
    baseline = ReplayDriver(detector, batch_size=512).replay(bot_store)
    obs.set_telemetry(True)
    traced = ReplayDriver(detector, batch_size=512).replay(bot_store)
    assert verdicts_digest(baseline.verdicts) == verdicts_digest(traced.verdicts)
    # ...and the telemetry side actually recorded the replay.
    hist = obs.registry().get("repro_stream_batch_seconds")
    assert hist.snapshot(stage="total")["count"] >= traced.batches
    assert any(r.name == "stream.batch" for r in obs.tracer().records())


# -- hot-path cost ------------------------------------------------------------

#: Corpus the overhead gate replays: seed 7 at scale 0.01 (~5k bot rows).
OVERHEAD_CORPUS = dict(seed=7, scale=0.01, include_real_users=True)
OVERHEAD_BATCH_SIZE = 2048
#: Timed replays per arm (after one untimed warm-up each); the best run
#: of each arm is compared.  One replay is ~25 ms, so a single run swings
#: by ±30 % on a shared machine and best-of-3 did not settle.
OVERHEAD_REPEATS = 7
#: Throughput share enabled telemetry may cost.  At this scale the
#: per-batch clock reads amortise over little work, so the allowance is
#: the noise-tolerant 25 %, not a tight budget.
OVERHEAD_BUDGET = 0.25


@pytest.fixture(scope="module")
def overhead_replay():
    """(detector, bot store) of the overhead corpus, rules fitted."""

    corpus = CorpusEngine(**OVERHEAD_CORPUS).build(workers=1)
    detector = FPInconsistent()
    table, _source = detector.resolve_table(corpus.bot_store, corpus.columnar_tables.get("bots"))
    detector.fit_table(table)
    return detector, corpus.bot_store


def _histogram_observations() -> int:
    return sum(
        series["count"]
        for metric in obs.registry().metrics()
        if metric.kind == "histogram"
        for series in metric.series()
    )


def test_replay_with_telemetry_off_records_nothing(overhead_replay):
    detector, bot_store = overhead_replay
    obs.tracer().reset()
    observations = _histogram_observations()
    obs.set_telemetry(False)
    ReplayDriver(detector, batch_size=OVERHEAD_BATCH_SIZE).replay(bot_store)
    assert obs.tracer().records() == []
    assert _histogram_observations() == observations
    # The same replay with telemetry on does record, so the zeros above
    # are the switch at work, not missing instrumentation.
    obs.set_telemetry(True)
    result = ReplayDriver(detector, batch_size=OVERHEAD_BATCH_SIZE).replay(bot_store)
    assert obs.tracer().records()
    assert _histogram_observations() >= observations + result.batches


def _replay_rows_per_second(detector, bot_store, enabled: bool) -> float:
    """One replay's throughput with the cyclic GC held off: a collection
    walks every object the test session keeps alive, which is a pause of
    the session, not a cost of telemetry."""

    obs.set_telemetry(enabled)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        replayer = ReplayDriver(detector, batch_size=OVERHEAD_BATCH_SIZE)
        return replayer.replay(bot_store).rows_per_second
    finally:
        if gc_was_enabled:
            gc.enable()


def test_telemetry_overhead_stays_within_budget(overhead_replay):
    """Enabled telemetry costs at most :data:`OVERHEAD_BUDGET` of replay
    throughput: a ratio of best-of-N runs per arm, never absolute rows/s,
    with the arms interleaved (in alternating order) so a slow phase of
    the machine hits both."""

    detector, bot_store = overhead_replay
    for enabled in (False, True):
        _replay_rows_per_second(detector, bot_store, enabled)  # first-use costs
    best = {False: 0.0, True: 0.0}
    for repeat in range(OVERHEAD_REPEATS):
        for enabled in (True, False) if repeat % 2 else (False, True):
            rows_per_second = _replay_rows_per_second(detector, bot_store, enabled)
            best[enabled] = max(best[enabled], rows_per_second)
    overhead = 1.0 - best[True] / best[False]
    assert overhead <= OVERHEAD_BUDGET, (
        f"telemetry costs {overhead:.1%} of replay throughput "
        f"({best[False]:.0f} rows/s off, {best[True]:.0f} on)"
    )


# -- back-compat accessors ----------------------------------------------------


def test_materialized_record_count_reads_the_registry():
    engine = CorpusEngine(seed=31, scale=0.002, include_real_users=False)
    before = materialized_record_count()
    corpus = engine.build(workers=1)
    FPInconsistent().fit(corpus.bot_store)
    # Nothing builds record objects: a build and a fit leave the count put.
    assert materialized_record_count() == before
    # The accessor reads the registry counter, whoever increments it.
    obs.counter("repro_records_materialized_total", always=True).inc(3)
    delta = materialized_record_count() - before
    assert delta == 3
    assert delta == obs.metric_value("repro_records_materialized_total") - before


def test_stream_health_writes_through_to_registry():
    health = StreamHealth()
    failures = obs.registry().get("repro_stream_classify_failures_total")
    rebuilds = obs.registry().get("repro_stream_classifier_rebuilds_total")
    dead = obs.registry().get("repro_stream_dead_letters_total")
    refresh = obs.registry().get("repro_stream_refresh_failures_total")
    before = (failures.value(), rebuilds.value(), dead.value(), refresh.value())
    health.record_classify_failure(RuntimeError("boom"))
    health.record_classifier_rebuild()
    health.record_dead_letter(batch=3, rows=[7, 8])
    health.record_refresh_failure(RuntimeError("no window"))
    after = (failures.value(), rebuilds.value(), dead.value(), refresh.value())
    assert after == tuple(value + 1 for value in before)
    # Restoring a checkpointed health report must not re-count.
    restored = StreamHealth.from_dict(health.to_dict())
    assert restored == health
    assert (failures.value(), rebuilds.value(), dead.value(), refresh.value()) == after


class _ScriptedRefresher(FilterListRefresher):
    """Refreshes every 2 batches, deploying the given lists in turn."""

    def __init__(self, lists):
        super().__init__(interval_batches=2, window_rows=10_000)
        self._lists = iter(lists)

    def refresh(self) -> FilterList:
        return next(self._lists)


def test_hot_swaps_count_rule_churn_in_the_registry(overhead_replay):
    detector, bot_store = overhead_replay
    deployed = list(detector.filter_list)
    assert len(deployed) > 3
    invented = InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.UA_DEVICE,
        value_a="Nokia 3310",
        attribute_b=Attribute.SCREEN_RESOLUTION,
        value_b=(1, 1),
    )
    first = FilterList(deployed[:-3] + [invented])  # +1, -3 vs the fitted list
    second = FilterList(deployed[:-3])  # -1 vs the first swap
    rules = obs.registry().get("repro_stream_refresh_rules_total")
    before = {change: rules.value(change=change) for change in ("added", "removed", "kept")}

    obs.set_telemetry(True)
    result = ReplayDriver(
        detector, batch_size=256, refresher=_ScriptedRefresher([first, second])
    ).replay(bot_store, max_batches=4)

    assert [entry["batch"] for entry in result.refreshes] == [2, 4]
    assert all(set(entry) == {"batch", "rules"} for entry in result.refreshes)
    kept = len(deployed) - 3
    assert {
        change: rules.value(change=change) - before[change] for change in before
    } == {"added": 1, "removed": 4, "kept": 2 * kept}


def test_shard_fault_stats_mirror_into_registry():
    runs = obs.registry().get("repro_shard_runs_total")
    obs.set_telemetry(True)
    before = runs.value(pool="corpus")
    engine = CorpusEngine(seed=31, scale=0.002, include_real_users=False)
    engine.build(workers=1)
    assert runs.value(pool="corpus") > before


# -- CLI exporter flags -------------------------------------------------------


def test_cli_stream_trace_and_metrics_exporters(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"
    json_path = tmp_path / "stream.json"
    argv = [
        "stream",
        "--seed", "5",
        "--scale", "0.002",
        "--no-real-users",
        "--no-cache",
        "--batch-size", "256",
    ]
    code = cli_main(argv + ["--json", str(tmp_path / "plain.json")])
    assert code == 0
    code = cli_main(
        argv
        + [
            "--json", str(json_path),
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "batch latency p50=" in captured.err

    trace = json.loads(trace_path.read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"corpus.load", "corpus.shard", "stream.mine_filter_list", "stream.batch"} <= names

    prom = metrics_path.read_text()
    assert "# TYPE repro_stream_batch_seconds histogram" in prom
    assert 'repro_stream_batch_seconds_bucket{le="+Inf",stage="total"}' in prom

    document = json.loads(json_path.read_text())
    assert "p95_batch_ms" in document
    assert "repro_stream_batch_seconds" in document["telemetry"]
    # Tracing must not change a single verdict byte.
    plain = json.loads((tmp_path / "plain.json").read_text())
    assert "telemetry" not in plain
    assert document["verdicts_digest"] == plain["verdicts_digest"]

    # A cache miss, then the warm hit: the ``corpus.load`` span says which
    # and how large the archive is, and neither changes a verdict byte.
    cached = [arg for arg in argv if arg != "--no-cache"] + ["--cache", str(tmp_path / "cache")]
    loads = []
    for run in ("miss", "hit"):
        obs.tracer().reset()
        run_json = tmp_path / f"{run}.json"
        assert cli_main(cached + ["--json", str(run_json), "--trace", str(trace_path)]) == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        loads += [e["args"] for e in events if e["ph"] == "X" and e["name"] == "corpus.load"]
        assert json.loads(run_json.read_text())["verdicts_digest"] == plain["verdicts_digest"]
    assert [load["status"] for load in loads] == ["miss", "hit"]
    assert loads[0]["archive_bytes"] == loads[1]["archive_bytes"] > 0
