"""Tests for the vectorized corpus generation engine.

The engine's contract is byte-for-byte equality with the object-at-a-time
reference generators (``tests/reference/generation.py``) for every shard
of any seed and shard plan, worker-count invariance — plus
columnar tables identical to extraction, tables that persist inside the
corpus archive, deterministic sub-sharding and the min-records-per-worker
fan-out clamp.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from reference.detection import evaluate_generalization as reference_generalization
from reference.detection import verdicts_equal
from reference.generation import (
    ReferencePrivacyTrafficGenerator,
    ReferenceRealUserTrafficGenerator,
    record_dicts,
    reference_shard_store,
)
from reference.store import from_store, object_store, records, shard_store
from repro.analysis.cache import CorpusCache, save_corpus, load_corpus
from repro.analysis.engine import (
    MIN_RECORDS_PER_WORKER_COLUMNAR,
    CorpusEngine,
    build_or_load_corpus,
    run_shard,
)
from repro.bots.strategies import _pick, _pick_weighted
from repro.core.columnar import ColumnarTable
from repro.core.evaluation import evaluate_generalization
from repro.core.pipeline import FPInconsistentPipeline
from repro.geo.geolite import GeoDatabase
from repro.geo.ipaddr import IpAddressSpace
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import RequestStore, materialized_record_count
from repro.users.privacy import PrivacyTechnology, PrivacyTrafficGenerator
from repro.users.realuser import RealUserTrafficGenerator

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


def store_bytes(corpus) -> bytes:
    return "\n".join(
        json.dumps(record.to_dict(), sort_keys=True) for record in records(corpus.store)
    ).encode()


@pytest.fixture(scope="module")
def vectorized_corpus():
    return CorpusEngine(**TINY).build(workers=1)


def assert_shards_match_reference(engine: CorpusEngine) -> None:
    """Every planned shard equals its reference run byte for byte."""

    for spec in engine.plan():
        assert record_dicts(shard_store(run_shard(spec))) == record_dicts(
            reference_shard_store(spec)
        ), spec.source


# -- stream-identical cheap draws ------------------------------------------------


def test_pick_matches_generator_choice():
    pool = (8, 12, 16, 24, 32)
    for seed in range(10):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [int(a.choice(pool)) for _ in range(50)] == [
            int(_pick(b, pool)) for _ in range(50)
        ]
        assert a.bit_generator.state["state"] == b.bit_generator.state["state"]


def test_pick_weighted_matches_generator_choice():
    names = ("a", "b", "c", "d")
    probabilities = np.array([0.4, 0.3, 0.2, 0.1])
    for seed in range(10):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [names[int(a.choice(len(names), p=probabilities))] for _ in range(50)]
        got = [_pick_weighted(b, names, probabilities) for _ in range(50)]
        assert expected == got
        assert a.bit_generator.state["state"] == b.bit_generator.state["state"]


# -- byte equality ----------------------------------------------------------------


def test_vectorized_matches_legacy_byte_for_byte():
    assert_shards_match_reference(CorpusEngine(**TINY))


@pytest.mark.parametrize("seed", [7, 101])
def test_vectorized_matches_legacy_across_seeds(seed):
    assert_shards_match_reference(CorpusEngine(**{**TINY, "seed": seed}))


def test_vectorized_matches_legacy_with_subshards():
    engine = CorpusEngine(**{**TINY, "scale": 0.008, "include_privacy": False}, subshard_target=300)
    assert any(spec.request_budget is not None for spec in engine.plan())  # the split engaged
    assert_shards_match_reference(engine)


def test_vectorized_worker_invariance(vectorized_corpus):
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    parallel = engine.build(workers=4)
    assert engine.last_plan["effective_workers"] == 4  # the process pool ran
    assert store_bytes(parallel) == store_bytes(vectorized_corpus)


def test_vectorized_real_users_and_privacy_match_legacy():
    for seed in (3, 19):
        sites = [
            HoneySite(geo=GeoDatabase(IpAddressSpace()), rng=np.random.default_rng(seed))
            for _ in range(4)
        ]
        ReferenceRealUserTrafficGenerator(sites[0], rng=seed).run(num_requests=150, num_users=40)
        RealUserTrafficGenerator(sites[1], rng=seed).run_vectorized(
            num_requests=150, num_users=40
        )
        ReferencePrivacyTrafficGenerator(sites[2], rng=seed).run_technology(
            PrivacyTechnology.BRAVE, num_requests=24
        )
        PrivacyTrafficGenerator(sites[3], rng=seed).run_technology_vectorized(
            PrivacyTechnology.BRAVE, num_requests=24
        )

        assert record_dicts(sites[0].store) == record_dicts(sites[1].store)
        assert record_dicts(sites[2].store) == record_dicts(sites[3].store)


# -- columnar emission -----------------------------------------------------------


def assert_tables_equal(table: ColumnarTable, reference: ColumnarTable) -> None:
    assert table.attributes == reference.attributes
    for attribute in reference.attributes:
        assert np.array_equal(table.codes_of(attribute), reference.codes_of(attribute))
        left, right = table.values_of(attribute), reference.values_of(attribute)
        assert left == right
        assert [type(value) for value in left] == [type(value) for value in right]
    assert np.array_equal(table.request_ids, reference.request_ids)
    assert np.array_equal(table.timestamps, reference.timestamps)
    assert np.array_equal(table.cookie_codes, reference.cookie_codes)
    assert table.cookie_values == reference.cookie_values
    assert np.array_equal(table.ip_codes, reference.ip_codes)
    assert table.ip_values == reference.ip_values


def test_emitted_tables_identical_to_extraction(vectorized_corpus):
    expected = {"bots", "real_users"} | {
        f"privacy:{technology.value}" for technology in vectorized_corpus.privacy_requests
    }
    assert set(vectorized_corpus.columnar_tables) == expected
    assert_tables_equal(
        vectorized_corpus.columnar_tables["bots"],
        from_store(vectorized_corpus.bot_store),
    )
    assert_tables_equal(
        vectorized_corpus.columnar_tables["real_users"],
        from_store(vectorized_corpus.real_user_store),
    )
    for technology in vectorized_corpus.privacy_requests:
        assert_tables_equal(
            vectorized_corpus.columnar_tables[f"privacy:{technology.value}"],
            from_store(vectorized_corpus.privacy_store(technology)),
        )


# -- tables in the corpus archive ----------------------------------------------------


def test_table_npz_roundtrip(tmp_path, vectorized_corpus):
    # Tables persist as prefixed members of the corpus archive's ``.npz``.
    path = tmp_path / "bots.npz"
    table = vectorized_corpus.columnar_tables["bots"]
    arrays, meta = table.to_arrays("t0_")
    np.savez(path, **arrays)
    with np.load(path, allow_pickle=False) as data:
        restored = ColumnarTable.from_arrays(data, json.loads(json.dumps(meta)), prefix="t0_")
    assert_tables_equal(restored, table)


def test_columnar_archive_roundtrip(tmp_path, vectorized_corpus):
    save_corpus(vectorized_corpus, tmp_path / "archive")
    assert (tmp_path / "archive" / "store_columnar.npz").is_file()
    restored = load_corpus(tmp_path / "archive")
    assert set(restored.columnar_tables) == set(vectorized_corpus.columnar_tables)
    assert_tables_equal(
        restored.columnar_tables["bots"],
        from_store(restored.bot_store),
    )


def test_corrupt_columnar_archive_is_a_cache_miss(tmp_path, vectorized_corpus):
    from repro.honeysite.storage import StoreFormatError

    save_corpus(vectorized_corpus, tmp_path / "archive")
    (tmp_path / "archive" / "store_columnar.npz").write_bytes(b"definitely not npz")
    with pytest.raises(StoreFormatError):
        load_corpus(tmp_path / "archive")


def test_load_npz_rejects_negative_codes(tmp_path, vectorized_corpus):
    from repro.fingerprint.attributes import Attribute

    table = vectorized_corpus.columnar_tables["bots"]
    corrupt = table.take(np.arange(table.n_rows, dtype=np.int64))
    corrupt._codes[Attribute.PLATFORM] = corrupt._codes[Attribute.PLATFORM].copy()
    corrupt._codes[Attribute.PLATFORM][0] = -7
    arrays, meta = corrupt.to_arrays("t0_")
    np.savez(tmp_path / "corrupt.npz", **arrays)
    with np.load(tmp_path / "corrupt.npz", allow_pickle=False) as data:
        with pytest.raises(ValueError):
            ColumnarTable.from_arrays(data, meta, prefix="t0_")


def test_accepts_table_rejects_mismatched_store(vectorized_corpus):
    from repro.core.detector import FPInconsistent

    detector = FPInconsistent()
    bots = vectorized_corpus.columnar_tables["bots"]
    assert detector.accepts_table(bots, vectorized_corpus.bot_store)
    assert not detector.accepts_table(bots, vectorized_corpus.real_user_store)
    # the pipeline falls back to extraction rather than classifying the
    # wrong rows
    result = FPInconsistentPipeline().run(vectorized_corpus.real_user_store, bot_table=bots)
    assert result.table_sources == {"bots": "extracted"}


def test_cache_hit_restores_embedded_tables(tmp_path):
    cache = CorpusCache(tmp_path)
    cold, cold_status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    warm, warm_status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert (cold_status, warm_status) == ("miss", "hit")
    assert set(warm.columnar_tables) == set(cold.columnar_tables)
    assert set(warm.columnar_tables) >= {"bots", "real_users"}
    for subset in cold.columnar_tables:
        assert_tables_equal(warm.columnar_tables[subset], cold.columnar_tables[subset])


# -- sub-sharding + fan-out planning ----------------------------------------------


def test_subshard_budgets_are_deterministic_and_cover_volume():
    from repro.analysis.engine import MAX_TOTAL_SHARDS

    engine = CorpusEngine(**TINY, subshard_target=100)
    specs = engine.plan()
    assert len(specs) <= MAX_TOTAL_SHARDS
    budgets: dict = {}
    for spec in specs:
        if spec.kind != "bots":
            continue
        budgets.setdefault(spec.source, []).append(spec.request_budget)
    split_sources = 0
    for profile in engine.profiles:
        volume = profile.scaled_requests(engine.scale)
        parts = budgets[profile.name]
        if volume <= 100:
            # below the target a service is never split
            assert parts == [None]
        elif len(parts) > 1:
            # a split service's budgets are balanced and cover its volume
            split_sources += 1
            assert sum(parts) == volume
            assert max(parts) - min(parts) <= 1
    assert split_sources > 0  # the shard ceiling still leaves room to split
    # the plan is a pure function of the configuration, not the fan-out
    again = CorpusEngine(**TINY, subshard_target=100).plan()
    assert [(s.source, s.request_budget, s.seed.spawn_key) for s in specs] == [
        (s.source, s.request_budget, s.seed.spawn_key) for s in again
    ]


def test_unsplit_plan_keeps_source_seeds():
    # Services below the split threshold must keep the exact per-source
    # seeds earlier revisions used, so unsplit corpora stay unchanged.
    split = {s.source: s for s in CorpusEngine(**TINY, subshard_target=10 ** 9).plan()}
    for spec in split.values():
        assert spec.request_budget is None
    reference = {s.source: s for s in CorpusEngine(**TINY).plan()}
    for source, spec in split.items():
        assert spec.seed.spawn_key == reference[source].seed.spawn_key


def test_effective_workers_clamps_low_scales():
    engine = CorpusEngine(**TINY)
    specs = engine.plan()
    planned = sum(
        spec.request_budget
        if spec.request_budget is not None
        else spec.profile.scaled_requests(engine.scale)
        if spec.kind == "bots"
        else spec.num_requests
        for spec in specs
    )
    assert planned < MIN_RECORDS_PER_WORKER_COLUMNAR  # tiny corpus: one worker of work
    assert engine.effective_workers(8, specs) == 1
    engine.build(workers=8)
    assert engine.last_plan["requested_workers"] == 8
    assert engine.last_plan["effective_workers"] == 1


def test_effective_workers_scales_with_volume():
    engine = CorpusEngine(**TINY)
    specs = engine.plan()
    big = [spec for spec in specs for _ in range(4)]  # pretend 4x the shards
    assert engine.effective_workers(2, big) <= 2
    assert engine.effective_workers(1, specs) == 1


# -- generalisation over take() ---------------------------------------------------


def test_generalization_take_split_matches_legacy(vectorized_corpus):
    columnar = evaluate_generalization(vectorized_corpus.bot_store, seed=5)
    legacy = reference_generalization(object_store(vectorized_corpus.bot_store), seed=5)
    for name in columnar:
        assert columnar[name].train_detection_rate == legacy[name].train_detection_rate
        assert columnar[name].test_detection_rate == legacy[name].test_detection_rate


def test_generalization_materialises_no_records(vectorized_corpus):
    store = vectorized_corpus.bot_store
    assert isinstance(store, RequestStore)
    table = vectorized_corpus.columnar_tables["bots"]
    before = materialized_record_count()
    results = evaluate_generalization(store, seed=0, table=table)
    assert materialized_record_count() == before
    assert results == evaluate_generalization(store, seed=0)  # same as extracting


def test_pipeline_reuses_emitted_tables(vectorized_corpus):
    pipeline = FPInconsistentPipeline()
    reused = pipeline.run(
        vectorized_corpus.bot_store,
        real_user_store=vectorized_corpus.real_user_store,
        bot_table=vectorized_corpus.columnar_tables["bots"],
        real_user_table=vectorized_corpus.columnar_tables["real_users"],
    )
    fresh = pipeline.run(
        vectorized_corpus.bot_store,
        real_user_store=vectorized_corpus.real_user_store,
    )
    assert reused.table_sources == {"bots": "reused", "real_users": "reused"}
    assert fresh.table_sources == {"bots": "extracted", "real_users": "extracted"}
    assert [rule.to_dict() for rule in reused.filter_list] == [
        rule.to_dict() for rule in fresh.filter_list
    ]
    assert reused.real_user_tnr == fresh.real_user_tnr
    assert sorted(reused.verdicts.request_ids) == sorted(fresh.verdicts.request_ids)
    assert verdicts_equal(reused.verdicts, fresh.verdicts)


def test_incompatible_table_falls_back_to_extraction(vectorized_corpus):
    from repro.fingerprint.attributes import Attribute

    bots = vectorized_corpus.columnar_tables["bots"]
    crippled = bots.with_columns({Attribute.PLATFORM: bots.codes_of(Attribute.PLATFORM)})
    pipeline = FPInconsistentPipeline()
    result = pipeline.run(vectorized_corpus.bot_store, bot_table=crippled)
    assert result.table_sources == {"bots": "extracted"}
