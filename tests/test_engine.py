"""Tests for the sharded corpus engine, persistence layer and cache."""

from __future__ import annotations

import json

import pytest
from reference.generation import source_of
from reference.store import records, shard_store

import repro.analysis.engine as engine_module
from repro import obs
from repro.analysis.cache import (
    COMPRESS_ENV_VAR,
    CorpusCache,
    corpus_cache_key,
    corpus_digest,
    load_corpus,
    save_corpus,
)
from repro.analysis.corpus import build_corpus
from repro.analysis.engine import (
    CorpusEngine,
    build_or_load_corpus,
    run_shard,
)
from repro.fingerprint.attributes import Attribute
from repro.geo.ipaddr import GeoRegion, IpAddressSpace, PrefixAssignment
from repro.honeysite.storage import CORPUS_FORMAT_VERSION, RequestStore, StoreFormatError
from repro.users.privacy import PrivacyTechnology

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


def store_bytes(corpus) -> bytes:
    """Canonical serialisation of a corpus store, for equality checks."""

    return "\n".join(
        json.dumps(record.to_dict(), sort_keys=True) for record in records(corpus.store)
    ).encode()


@pytest.fixture(scope="module")
def tiny_engine_corpus():
    return CorpusEngine(**TINY).build(workers=1)


# -- determinism ----------------------------------------------------------------


def test_same_seed_identical_for_one_and_four_workers(tiny_engine_corpus):
    # A floor of one record per worker defeats the fan-out clamp, so the
    # TINY build really crosses the process pool.
    engine = CorpusEngine(**TINY, min_records_per_worker=1)
    parallel = engine.build(workers=4)
    assert engine.last_plan["effective_workers"] > 1, engine.last_plan
    assert store_bytes(tiny_engine_corpus) == store_bytes(parallel)


def test_different_seed_differs(tiny_engine_corpus):
    other = CorpusEngine(**{**TINY, "seed": 30}).build(workers=1)
    assert store_bytes(tiny_engine_corpus) != store_bytes(other)


def test_request_ids_are_sequential(tiny_engine_corpus):
    ids = tiny_engine_corpus.store.request_id_array().tolist()
    assert ids == list(range(1, len(ids) + 1))


def test_engine_corpus_supports_analyses(tiny_engine_corpus):
    corpus = tiny_engine_corpus
    assert len(corpus.bot_store) == sum(corpus.service_volumes.values())
    assert len(corpus.real_user_store) == corpus.real_user_requests
    assert set(corpus.privacy_requests) == {
        PrivacyTechnology.SAFARI,
        PrivacyTechnology.BRAVE,
        PrivacyTechnology.TOR,
        PrivacyTechnology.UBLOCK_ORIGIN,
        PrivacyTechnology.ADBLOCK_PLUS,
    }
    # The merged geo database must resolve every shard-allocated address and
    # agree with the IP enrichment stamped at collection time.
    for record in records(corpus.store):
        geo = corpus.site.geo.lookup(record.request.ip_address)
        assert geo is not None
        assert geo.country == record.attribute(Attribute.IP_COUNTRY)


def test_shards_cover_all_sources():
    specs = CorpusEngine(**TINY).plan()
    kinds = [spec.kind for spec in specs]
    assert kinds.count("bots") == 20
    assert kinds.count("real_users") == 1
    assert kinds.count("privacy") == 5
    assert len({spec.url_path for spec in specs}) == len(specs)
    assert len({spec.seed.spawn_key for spec in specs}) == len(specs)


def test_run_shard_is_self_contained():
    spec = CorpusEngine(**TINY).plan()[3]
    first = run_shard(spec)
    second = run_shard(spec)
    assert first.recorded == second.recorded
    # Columnar transport: the shard ships a payload, not record objects.
    assert isinstance(shard_store(first), RequestStore)
    first_store, second_store = shard_store(first), shard_store(second)
    assert len(first_store) == first.recorded
    assert [r.request.ip_address for r in records(first_store)] == [
        r.request.ip_address for r in records(second_store)
    ]


def test_build_corpus_is_the_engine_corpus(monkeypatch, tmp_path):
    # The library facade builds exactly what ``repro corpus`` builds: a
    # columnar store whose ids do not depend on process history.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CORPUS_CACHE", raising=False)
    config = dict(seed=31, scale=0.003, include_real_users=False)
    first = build_corpus(**config)
    second = build_corpus(**config)
    assert isinstance(first.store, RequestStore)
    assert (first.store.request_id_array() == second.store.request_id_array()).all()
    engine, _status = build_or_load_corpus(**config, workers=2, cache=tmp_path)
    assert corpus_digest(first) == corpus_digest(second) == corpus_digest(engine)


def _cache_keys(cache: CorpusCache) -> list:
    """Published entries of *cache* (staging directories are dot-prefixed)."""

    return sorted(
        entry.name
        for entry in cache.root.iterdir()
        if not entry.name.startswith(".") and cache.has(entry.name)
    )


def test_cache_false_equals_cached_build(monkeypatch, tmp_path):
    # cache=False only skips the cache; the corpus is the one a cached
    # build stores and serves.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_CORPUS_CACHE", str(tmp_path))
    cached = build_corpus(seed=37, scale=0.002, include_real_users=False)
    no_cache = build_corpus(seed=37, scale=0.002, include_real_users=False, cache=False)
    warm = build_corpus(seed=37, scale=0.002, include_real_users=False)
    assert len(_cache_keys(CorpusCache(tmp_path))) == 1
    assert corpus_digest(no_cache) == corpus_digest(cached) == corpus_digest(warm)
    assert store_bytes(no_cache) == store_bytes(cached)


# -- partitioned address space -------------------------------------------------


def test_partitioned_spaces_are_disjoint():
    region = GeoRegion("United States of America", "California", "America/Los_Angeles")
    spaces = [IpAddressSpace(partition=(index, 3)) for index in range(3)]
    prefixes = set()
    for space in spaces:
        for asn in (7922, 701, 16509):
            assignment = space.assignment_for(asn, region)
            assert (assignment.first_octet, assignment.second_octet) not in prefixes
            prefixes.add((assignment.first_octet, assignment.second_octet))


def test_partition_validation():
    with pytest.raises(ValueError):
        IpAddressSpace(partition=(3, 3))
    with pytest.raises(ValueError):
        IpAddressSpace(partition=(0, 0))


def test_adopt_rejects_conflicting_prefix():
    region_a = GeoRegion("United States of America", "California", "America/Los_Angeles")
    region_b = GeoRegion("United States of America", "Texas", "America/Chicago")
    space = IpAddressSpace()
    taken = space.assignment_for(7922, region_a)
    conflicting = PrefixAssignment(
        first_octet=taken.first_octet,
        second_octet=taken.second_octet,
        asn=701,
        region=region_b,
    )
    with pytest.raises(ValueError):
        space.adopt(conflicting)
    space.adopt(taken)  # re-adopting the identical assignment is a no-op


# -- persistence ---------------------------------------------------------------


def test_load_rejects_newer_format(tiny_engine_corpus, tmp_path):
    directory = save_corpus(tiny_engine_corpus, tmp_path / "archive")
    meta = json.loads((directory / "meta.json").read_text())
    meta["format_version"] = CORPUS_FORMAT_VERSION + 1
    (directory / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(StoreFormatError):
        load_corpus(directory)


def test_load_rejects_truncated_store(tiny_engine_corpus, tmp_path):
    directory = save_corpus(tiny_engine_corpus, tmp_path / "archive")
    archive = directory / "store_columnar.npz"
    archive.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])
    with pytest.raises(StoreFormatError):
        load_corpus(directory)


def test_corpus_archive_roundtrip(tiny_engine_corpus, tmp_path):
    save_corpus(tiny_engine_corpus, tmp_path / "archive")
    restored = load_corpus(tmp_path / "archive")
    assert store_bytes(restored) == store_bytes(tiny_engine_corpus)
    assert restored.seed == tiny_engine_corpus.seed
    assert restored.scale == tiny_engine_corpus.scale
    assert restored.service_volumes == tiny_engine_corpus.service_volumes
    assert restored.privacy_requests == tiny_engine_corpus.privacy_requests
    # restored geo + URL registry keep working
    assert len(restored.bot_store) == len(tiny_engine_corpus.bot_store)
    record = records(restored.store)[0]
    assert restored.site.geo.lookup(record.request.ip_address) is not None
    assert source_of(restored.site.urls, record.request.url_path) == record.source
    assert corpus_digest(restored) == corpus_digest(tiny_engine_corpus)


def test_store_roundtrip_gzip_with_decision_fidelity(tiny_engine_corpus, tmp_path, monkeypatch):
    """The compressed archive keeps every record, and each decision's detector and signals."""

    monkeypatch.setenv(COMPRESS_ENV_VAR, "1")
    directory = save_corpus(tiny_engine_corpus, tmp_path / "archive")
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    assert meta["format_version"] == CORPUS_FORMAT_VERSION

    loaded = load_corpus(directory).store
    assert len(loaded) == len(tiny_engine_corpus.store)
    for original, restored in zip(records(tiny_engine_corpus.store), records(loaded)):
        assert original.to_dict() == restored.to_dict()
        assert restored.datadome.detector == "DataDome"
        assert restored.botd.detector == "BotD"
        assert restored.datadome == original.datadome
        assert restored.botd == original.botd
        assert restored.datadome.signals == original.datadome.signals
        assert restored.request.fingerprint == original.request.fingerprint


# -- cache ---------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path, monkeypatch):
    # build_or_load_corpus takes no floor, so lower the module default to
    # make the cold TINY build fan out over the process pool.
    monkeypatch.setattr(engine_module, "MIN_RECORDS_PER_WORKER_COLUMNAR", 1)
    rounds_before = obs.registry().value("repro_shard_attempt_rounds_total", pool="corpus")
    cold, cold_status = build_or_load_corpus(**TINY, workers=2, cache=tmp_path)
    assert (
        obs.registry().value("repro_shard_attempt_rounds_total", pool="corpus")
        > rounds_before
    )
    warm, warm_status = build_or_load_corpus(**TINY, workers=1, cache=tmp_path)
    assert (cold_status, warm_status) == ("miss", "hit")
    assert store_bytes(cold) == store_bytes(warm)


def test_cache_invalidation_on_key_inputs(tmp_path):
    cache = CorpusCache(tmp_path)
    _, first = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert first == "miss"
    _, seed_changed = build_or_load_corpus(**{**TINY, "seed": 99}, workers=1, cache=cache)
    assert seed_changed == "miss"
    _, scale_changed = build_or_load_corpus(**{**TINY, "scale": 0.005}, workers=1, cache=cache)
    assert scale_changed == "miss"
    assert len(_cache_keys(cache)) == 3


def test_cache_key_ignores_parallelism_but_not_format_version():
    base = dict(
        seed=1,
        scale=0.01,
        include_real_users=True,
        include_privacy=False,
        real_user_requests=10,
        privacy_requests_each=5,
        campaign_days=90,
    )
    assert corpus_cache_key(**base) == corpus_cache_key(**base)
    assert corpus_cache_key(**base) != corpus_cache_key(
        **base, format_version=CORPUS_FORMAT_VERSION + 1
    )
    assert corpus_cache_key(**base) != corpus_cache_key(**{**base, "include_privacy": True})


def test_corrupt_cache_entry_is_rebuilt(tmp_path):
    cache = CorpusCache(tmp_path)
    _, first = build_or_load_corpus(**TINY, workers=1, cache=cache)
    key = _cache_keys(cache)[0]
    (cache.path_for(key) / "store_columnar.npz").write_bytes(b"not an archive at all")
    _, second = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert (first, second) == ("miss", "miss")
