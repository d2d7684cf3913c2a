"""Tests for the fault-injection harness and the fault-tolerant executors.

Three layers are pinned here against the deterministic fault plans of
``repro.faults``:

* the plan itself — parsing, seeding and pure ``(seed, point, key)``
  decisions;
* ``map_shards`` — bounded retries with backoff, pool rebuilds after a
  killed worker, and the in-process serial fallback for poisoned shards,
  all producing byte-identical corpora;
* the stream's supervised scoring — a failed classifier rebuilt with
  state carried over (verdicts byte-identical to a clean run), poisoned
  batches dead-lettered, failed re-mines keeping the deployed filter list
  and retrying with doubling backoff;
* the corpus cache — a write torn mid-archive never publishes an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from reference.detection import verdicts_equal
from reference.store import records

import repro
from repro import faults
from repro.analysis.cache import CorpusCache
from repro.analysis.engine import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_CAP_SECONDS,
    CorpusEngine,
    build_or_load_corpus,
    map_shards,
    retry_backoff_seconds,
)
from repro.core.detector import FPInconsistent
from repro.stream import (
    WORKER_ATTEMPTS,
    FilterListRefresher,
    ReplayDriver,
    StreamHealth,
    verdicts_digest,
)
from repro.stream.refresh import REFRESH_BACKOFF_BASE_BATCHES, REFRESH_BACKOFF_CAP_BATCHES

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


def _corpus_digest(corpus) -> str:
    return hashlib.sha256(
        "\n".join(
            json.dumps(record.to_dict(), sort_keys=True) for record in records(corpus.store)
        ).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return CorpusEngine(**TINY).build(workers=1)


@pytest.fixture(scope="module")
def baseline_digest(corpus):
    """Digest of the fault-free build (execution path never changes bytes)."""

    return _corpus_digest(corpus)


@pytest.fixture(scope="module")
def fitted(corpus):
    detector = FPInconsistent()
    table = detector.extract_table(corpus.bot_store)
    detector.fit_table(table)
    verdicts = detector.classify_table(table)
    return detector, table, verdicts


# -- plan parsing and decisions --------------------------------------------------


def test_plan_parses_multi_rule_spec():
    plan = faults.FaultPlan.parse(
        " shard_run:raise:0.1 , refresh_mine:raise:1, checkpoint_write:truncate:0.5 ,",
        seed=3,
    )
    assert {rule.point for rule in plan.rules.values()} == {
        "shard_run",
        "refresh_mine",
        "checkpoint_write",
    }
    assert plan.seed == 3


@pytest.mark.parametrize(
    "spec",
    [
        "shard_run:raise",  # not point:mode:probability
        "unknown_point:raise:0.5",
        "shard_run:explode:0.5",
        "shard_run:raise:often",
        "shard_run:raise:1.5",
        "shard_run:raise:0.1,shard_run:kill:0.2",  # duplicate point
    ],
)
def test_plan_rejects_malformed_specs(spec):
    with pytest.raises(faults.FaultPlanError):
        faults.FaultPlan.parse(spec)


def test_decisions_are_pure_functions_of_seed_point_key():
    plan = faults.FaultPlan.parse("shard_run:raise:0.5", seed=11)
    keys = [f"corpus:{index}:0" for index in range(200)]
    first = [plan.decide("shard_run", key) is not None for key in keys]
    assert first == [plan.decide("shard_run", key) is not None for key in keys]
    assert any(first) and not all(first)  # p=0.5 over 200 keys fires partially
    reseeded = faults.FaultPlan.parse("shard_run:raise:0.5", seed=12)
    assert first != [reseeded.decide("shard_run", key) is not None for key in keys]
    assert plan.decide("worker_classify", keys[0]) is None  # no rule → never


def test_probability_bounds_always_and_never_fire():
    always = faults.FaultPlan.parse("shard_run:raise:1")
    never = faults.FaultPlan.parse("shard_run:raise:0")
    for key in ("a", "b", "c"):
        assert always.decide("shard_run", key) is not None
        assert never.decide("shard_run", key) is None
    with pytest.raises(faults.InjectedFault, match="shard_run"):
        always.check("shard_run", "a")


def test_kill_downgrades_to_raise_outside_worker_processes():
    plan = faults.FaultPlan.parse("shard_run:kill:1")
    # allow_kill=False marks the coordinator: the fault must raise, never
    # os._exit the test process.
    with pytest.raises(faults.InjectedFault, match="kill"):
        plan.check("shard_run", "k", allow_kill=False)


def test_truncate_tears_the_file_then_raises(tmp_path):
    victim = tmp_path / "blob"
    victim.write_bytes(b"x" * 100)
    plan = faults.FaultPlan.parse("checkpoint_write:truncate:1")
    with pytest.raises(faults.InjectedFault):
        plan.check("checkpoint_write", "t", path=victim)
    assert victim.stat().st_size == 50
    # Without a path the mode degrades to a plain raise.
    with pytest.raises(faults.InjectedFault):
        plan.check("checkpoint_write", "t")


def test_active_plan_tracks_the_environment(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    assert faults.active_plan() is None
    faults.check("shard_run", "noop")  # no plan → no-op

    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "shard_run:raise:1")
    plan = faults.active_plan()
    assert plan is not None and plan.seed == 0
    assert faults.active_plan() is plan  # cached per (spec, seed) pair

    monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "9")
    assert faults.active_plan().seed == 9

    monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "not-a-seed")
    with pytest.raises(faults.FaultPlanError, match="REPRO_FAULTS_SEED"):
        faults.active_plan()


# -- map_shards: retry, rebuild, serial fallback ---------------------------------


def _double(value):
    return value * 2


def _nap(seconds):
    import time

    time.sleep(seconds)
    return seconds


def test_map_shards_retries_transient_worker_faults(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "shard_run:raise:0.5")
    stats = {}
    results = map_shards(_double, range(16), workers=4, retries=4, stats=stats)
    assert results == [value * 2 for value in range(16)]
    assert stats["failures"] > 0
    assert stats["retried"] > 0
    assert stats["attempt_rounds"] >= 2


def test_map_shards_poisoned_shards_fall_back_to_serial(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "shard_run:raise:1")
    stats = {}
    results = map_shards(_double, range(8), workers=4, retries=1, stats=stats)
    # Every pooled attempt fails; the serial fallback (trusted, no fault
    # point) still completes every payload correctly.
    assert results == [value * 2 for value in range(8)]
    assert stats["attempt_rounds"] == 2  # retries + 1
    assert stats["serial_fallbacks"] == 8


def test_map_shards_rebuilds_a_pool_after_a_killed_worker(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "shard_run:kill:0.4")
    stats = {}
    results = map_shards(_double, range(8), workers=2, retries=3, stats=stats)
    # The messages keep the cause of a rare failure under load.
    context = f"stats={stats} results={results}"
    assert results == [value * 2 for value in range(8)], context
    assert stats["failures"] > 0, context
    assert stats["pool_rebuilds"] >= 1, context


def test_map_shards_rebuilds_a_pool_broken_while_a_round_is_submitted(monkeypatch):
    """A worker killed by an early payload of a round can break the pool
    before the round is submitted: the payloads left fail that round and
    the rebuilt pool runs them."""

    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    pools = []

    class BreaksOnThirdSubmit(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.first, self.submits = not pools, 0
            pools.append(self)

        def submit(self, *args, **kwargs):
            self.submits += 1
            if self.first and self.submits == 3:
                raise BrokenProcessPool("a worker died while the round was submitted")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BreaksOnThirdSubmit)
    stats = {}
    results = map_shards(_double, range(8), workers=2, retries=3, stats=stats)
    assert results == [value * 2 for value in range(8)]
    assert stats["pool_rebuilds"] == 1 and stats["serial_fallbacks"] == 0, stats
    assert stats["failures"] == 6 and stats["attempt_rounds"] == 2, stats
    assert len(pools) == 2


def test_map_shards_timeout_abandons_the_stuck_pool(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.05")
    stats = {}
    results = map_shards(_nap, [0.4, 0.4], workers=2, retries=0, stats=stats)
    assert results == [0.4, 0.4]  # serial fallback finished the work
    assert stats["pool_rebuilds"] >= 1
    assert stats["serial_fallbacks"] == 2


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1"])
def test_map_shards_refuses_a_non_finite_or_negative_timeout(monkeypatch, timeout):
    # A nan timeout would time every pooled attempt out at once and push
    # every shard through the serial fallback.
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", timeout)
    with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT must be finite"):
        map_shards(abs, [-1, -2, -3, -4], workers=2, retries=1)


@pytest.mark.parametrize(
    "environment, variable",
    [
        ({"REPRO_FAULTS": "bogus"}, "REPRO_FAULTS"),
        ({"REPRO_FAULTS": "shard_run:raise:0.1", "REPRO_FAULTS_SEED": "xyz"}, "REPRO_FAULTS_SEED"),
    ],
)
def test_map_shards_refuses_a_bad_fault_plan_before_it_submits(monkeypatch, environment, variable):
    # Left to the workers, a bad plan would fail every pooled attempt and
    # the corpus would quietly be built serially.
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    stats = {}
    with pytest.raises(faults.FaultPlanError, match=f"{variable} must"):
        map_shards(abs, [-1, -2, -3, -4], workers=2, retries=1, stats=stats)
    assert stats == {}


def test_map_shards_inline_path_is_never_injected(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "shard_run:raise:1")
    stats = {}
    # workers=1 runs in-process: trusted execution, no fault point.
    assert map_shards(_double, range(4), workers=1, stats=stats) == [0, 2, 4, 6]
    assert stats["failures"] == 0 and stats["serial_fallbacks"] == 0


def test_retry_backoff_is_deterministic_exponential_and_jittered():
    delays = [retry_backoff_seconds(a, seed=7, label="corpus") for a in range(6)]
    assert delays == [retry_backoff_seconds(a, seed=7, label="corpus") for a in range(6)]
    for attempt, delay in enumerate(delays):
        base = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2**attempt)
        assert 0.5 * base <= delay < 1.5 * base
    assert retry_backoff_seconds(0, seed=8, label="corpus") != delays[0]
    assert retry_backoff_seconds(0, seed=7, label="shards") != delays[0]


def test_retry_backoff_is_identical_across_interpreters():
    """The jitter must not depend on the interpreter's salted ``hash``:
    processes started with different ``PYTHONHASHSEED`` back off alike."""

    code = (
        "from repro.analysis.engine import retry_backoff_seconds as b; "
        "print([b(a, seed=7, label='corpus') for a in range(4)])"
    )
    src = str(Path(repro.__file__).resolve().parents[1])

    def delays(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout

    here = [retry_backoff_seconds(attempt, seed=7, label="corpus") for attempt in range(4)]
    assert delays("1") == delays("2") == f"{here}\n"


# -- the corpus engine under shard faults ----------------------------------------


@pytest.mark.parametrize(
    "plan, recovered_by",
    [
        ("shard_run:raise:0.3", "retried"),
        ("shard_run:kill:0.2", "pool_rebuilds"),
        ("shard_run:raise:1", "serial_fallbacks"),
    ],
)
def test_corpus_is_byte_identical_under_shard_faults(
    monkeypatch, baseline_digest, plan, recovered_by
):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, plan)
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    rebuilt = engine.build(workers=4)
    stats = engine.last_plan["faults"]
    assert stats["failures"] > 0, stats
    assert stats[recovered_by] > 0, stats
    assert _corpus_digest(rebuilt) == baseline_digest


# -- supervised stream scoring ---------------------------------------------------


def test_stream_recovers_from_classify_faults_byte_identically(monkeypatch, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_classify:raise:0.3")
    result = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    health = result.health
    assert health.classify_failures > 0
    # An injected fault fires before any state mutates, so every failure
    # is recovered by one rebuild and nothing is dead-lettered.
    assert health.classifier_rebuilds == health.classify_failures
    assert not health.dead_letters
    assert result.rows == len(corpus.bot_store)
    assert verdicts_equal(result.verdicts, batch_verdicts)


def test_poisoned_row_group_is_dead_lettered_not_fatal(monkeypatch, corpus, fitted):
    detector, _table, _verdicts = fitted
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_classify:raise:1")
    result = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    health = result.health
    # Every batch exhausts its attempt budget: the replay still completes,
    # no row counts as scored, and the health report lists every batch.
    assert len(result.verdicts) == 0
    assert result.rows == 0 and result.rows_per_second == 0.0
    assert [entry["batch"] for entry in health.dead_letters] == list(range(result.batches))
    assert sum(len(entry["rows"]) for entry in health.dead_letters) == len(corpus.bot_store)
    assert health.classify_failures == WORKER_ATTEMPTS * result.batches
    assert health.last_error is not None


def test_failed_refresh_keeps_the_deployed_list(monkeypatch, corpus, fitted):
    detector, _table, _verdicts = fitted
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "refresh_mine:raise:1")
    refresher = FilterListRefresher(
        detector.miner, interval_days=20.0, window_rows=2_000
    )
    faulty = ReplayDriver(detector, batch_size=256, refresher=refresher).replay(
        corpus.bot_store
    )
    assert faulty.health.refresh_failures > 0
    assert not faulty.refreshes  # no re-mine ever deployed

    monkeypatch.delenv(faults.FAULTS_ENV_VAR)
    frozen = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    # The stream kept scoring with the fitted list throughout: identical
    # to a refresher-free run.
    assert verdicts_digest(faulty.verdicts) == verdicts_digest(frozen.verdicts)


def test_failed_refresh_retries_with_doubling_backoff(monkeypatch, corpus, fitted):
    detector, _table, _verdicts = fitted
    batch_size = 16
    n_batches = -(-len(corpus.bot_store) // batch_size)
    interval = n_batches // 2 + 1  # comes due exactly once in this replay
    refresher = FilterListRefresher(
        detector.miner, interval_batches=interval, window_rows=2_000
    )
    attempts = []
    real_check = faults.check

    def recording_check(point, key, **kwargs):
        if point == "refresh_mine":
            attempts.append(refresher.batches_seen)
        return real_check(point, key, **kwargs)

    monkeypatch.setattr(faults, "check", recording_check)
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "refresh_mine:raise:1")
    result = ReplayDriver(detector, batch_size=batch_size, refresher=refresher).replay(
        corpus.bot_store
    )
    # Every attempt fails: the first retry comes one batch after the due
    # one, then the gap doubles (1, 2, 4, ...) up to the cap.
    expected, at, gap = [], interval, REFRESH_BACKOFF_BASE_BATCHES
    while at <= n_batches:
        expected.append(at)
        at, gap = at + gap, min(gap * 2, REFRESH_BACKOFF_CAP_BATCHES)
    assert len(expected) >= 3
    assert attempts == expected
    assert result.health.refresh_failures == len(expected)
    assert not result.refreshes


def test_health_report_roundtrips_through_json(monkeypatch, corpus, fitted):
    detector, _table, _verdicts = fitted
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_classify:raise:0.3")
    result = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    document = json.loads(json.dumps(result.health.to_dict()))
    restored = StreamHealth.from_dict(document)
    assert restored == result.health
    assert restored.classify_failures == document["classify_failures"] > 0
    assert restored.classifier_rebuilds == document["classifier_rebuilds"]


# -- crash-safe cache writes -----------------------------------------------------


def test_torn_archive_write_never_publishes_a_cache_entry(
    monkeypatch, tmp_path, corpus
):
    cache = CorpusCache(tmp_path / "cache")
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "cache_write:truncate:1")
    with pytest.raises(faults.InjectedFault):
        cache.store("tamper", corpus)
    # The torn write left nothing behind: no entry, no staging debris.
    assert not cache.has("tamper")
    assert not list((tmp_path / "cache").iterdir())

    monkeypatch.delenv(faults.FAULTS_ENV_VAR)
    cache.store("tamper", corpus)
    assert cache.has("tamper")
    reloaded = cache.load("tamper")
    assert reloaded is not None and len(reloaded.store) == len(corpus.store)


def test_build_or_load_survives_a_failed_cache_store(monkeypatch, tmp_path):
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "cache_write:truncate:1")
    built, status = build_or_load_corpus(
        **TINY, workers=1, cache=tmp_path / "cache"
    )
    # The archive write failed, but caching is an optimisation: the build
    # itself must come back intact.
    assert status == "miss"
    assert len(built.store) > 0
    assert not list((tmp_path / "cache").glob("*/meta.json"))  # nothing published
